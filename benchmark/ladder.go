package main

// The layer ladder: six rigs, each one public layer deeper, carrying
// the workload's message at that layer's own interface:
//
//	fabric   fabric.Port.Send / Poll (+ FramePool Get / Release)
//	nic      nic.Device.TxFrame / AppendRxBurst
//	netstack netstack.TCPConn.Send / RecvAppend + Stack.Poll
//	catnip   catnip endpoint Push / Pop + Transport.Poll
//	core     LibOS.Push / Pop / TryWait / Poll, hand-written server
//	app      the workload's own loop (echo.Server.Step; checksum verify)
//
// A layer's self time is its rung minus the rung below. The two frame
// rungs replay the frame schedule the netstack rung put on the wire
// (frames per op each way and their mean size, read from the devices'
// counters), so ACKs and MSS segmentation are charged to the fabric and
// nic for carrying them and to the netstack only for producing them.
// Echo rungs are ping-pong and report the median op of their fastest
// 50 ms slice; stream rungs keep 8 one-way messages outstanding and
// report time per delivered message in their best slice.

import (
	"fmt"
	"runtime"
	"time"

	demi "demikernel"
	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/libos/catnip"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/queue"
	"demikernel/internal/simclock"
)

// ladderLayers names the rungs bottom-up; metric <layer>.self_ns.
var ladderLayers = [...]string{"fabric", "nic", "netstack", "catnip", "core", "app"}

type ladderSpec struct {
	payload int  // application bytes per message
	oneWay  bool // stream: 8 outstanding one-way messages; else ping-pong
	idle    int  // idle connections from the netstack rung upward
	// top builds the two highest rungs: the workload's rig without
	// (core rung) and with (app rung) its application part.
	top func(seed int64, app bool) (stepper, error)
}

var (
	macA = fabric.MAC{2, 0, 0, 0, 0, 0xa}
	macB = fabric.MAC{2, 0, 0, 0, 0, 0xb}
	ipA  = netstack.IP(10, 0, 0, 0xa)
	ipB  = netstack.IP(10, 0, 0, 0xb)
)

// ladderResult is the measured ladder of one workload.
type ladderResult struct {
	rung         [len(ladderLayers)]float64 // ns per op, bottom-up
	bytesPerConn float64                    // netstack heap per idle connection pair
}

func (l ladderResult) self(i int) float64 {
	if i == 0 {
		return l.rung[0]
	}
	return l.rung[i] - l.rung[i-1]
}

// ladderRounds is how many slices each rung's time is cut into. The
// rungs take turns, slice by slice, so that a stretch of the host's slow
// state cannot fall on one rung alone and show up as that layer's cost.
const ladderRounds = 8

// runLadder measures every rung for seconds in total.
func runLadder(spec ladderSpec, seed int64, seconds float64) (ladderResult, error) {
	var res ladderResult

	// The netstack rung first: the frame rungs replay the schedule its
	// warm-up put on the wire.
	var rungs [len(ladderLayers)]stepper
	st, err := newStackRung(spec)
	if err != nil {
		return res, err
	}
	res.bytesPerConn = st.bytesPerConn
	warm := func(i int, s stepper) error {
		rungs[i] = s
		if _, err := newPass(seconds/10, 0, 0, nil).run(s); err != nil {
			return fmt.Errorf("ladder rung %s: %w", ladderLayers[i], err)
		}
		return nil
	}
	txA, txB, dma := st.wire()
	if err := warm(2, st); err != nil {
		return res, err
	}
	txA2, txB2, dma2 := st.wire()
	ops := float64(st.ops)
	sched := frameSched{
		n:    [2]int{int(float64(txA2-txA)/ops + 0.5), int(float64(txB2-txB)/ops + 0.5)},
		size: int(float64(dma2-dma) / float64(txA2-txA+txB2-txB)),
	}
	cr, err := newCatnipRung(spec)
	if err != nil {
		return res, err
	}
	coreRung, err := spec.top(seed, false)
	if err != nil {
		return res, err
	}
	appRung, err := spec.top(seed, true)
	if err != nil {
		return res, err
	}
	for i, s := range []stepper{newFabricRung(sched), newNICRung(sched), nil, cr, coreRung, appRung} {
		if s == nil {
			continue
		}
		if err := warm(i, s); err != nil {
			return res, err
		}
	}

	var slices [len(ladderLayers)][]passResult
	slice := seconds / ladderRounds
	for round := 0; round < ladderRounds; round++ {
		for i, s := range rungs {
			r, err := newPass(slice, 0, int(slice*2e6)+1024, nil).run(s)
			if err != nil {
				return res, fmt.Errorf("ladder rung %s: %w", ladderLayers[i], err)
			}
			slices[i] = append(slices[i], r)
		}
	}
	for i := range rungs {
		p50, rate := bestSlice(slices[i]...)
		res.rung[i] = p50
		if spec.oneWay {
			res.rung[i] = 1e9 / rate
		}
	}
	return res, nil
}

// --- fabric and nic rungs: replay a frame schedule ---

// frameSched is what one op puts on the wire: n[0] frames A->B, then
// n[1] frames B->A, all of the mean frame size.
type frameSched struct {
	n    [2]int
	size int
}

// frameRung sends and receives bare frames through send/recv pairs, one
// pair per direction.
type frameRung struct {
	failer
	sched frameSched
	pool  *fabric.FramePool
	send  [2]func(fabric.Frame)
	recv  [2]func() int // poll the direction's receiver; frames consumed
}

func (r *frameRung) step(p *pass) {
	t0 := p.clock()
	macs := [2]fabric.MAC{macA, macB}
	for dir := 0; dir < 2; dir++ {
		for i := 0; i < r.sched.n[dir]; i++ {
			fb := r.pool.Get(r.sched.size)
			data := fb.Bytes()
			copy(data[0:6], macs[1-dir][:])
			copy(data[6:12], macs[dir][:])
			r.send[dir](fabric.Frame{Data: data, Buf: fb})
		}
		for got, spins := 0, 0; got < r.sched.n[dir]; {
			got += r.recv[dir]()
			if p.expired(t0, &spins) {
				r.fail("frames lost on a frame rung")
				return
			}
		}
	}
	t1 := p.clock()
	p.record(t1, t1-t0, 1, 0, 0)
}

func (r *frameRung) quiesce() error { return nil }

func newFabricRung(sched frameSched) *frameRung {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	ports := [2]*fabric.Port{sw.NewPort(0), sw.NewPort(0)}
	r := &frameRung{sched: sched, pool: fabric.NewFramePool()}
	for dir := 0; dir < 2; dir++ {
		from, to := ports[dir], ports[1-dir]
		r.send[dir] = from.Send
		r.recv[dir] = func() int {
			f, ok := to.Poll()
			if !ok {
				return 0
			}
			f.Release()
			return 1
		}
	}
	return r
}

func newNICRung(sched frameSched) *frameRung {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	devs := [2]*nic.Device{
		nic.New(&model, sw, nic.Config{MAC: macA}),
		nic.New(&model, sw, nic.Config{MAC: macB}),
	}
	r := &frameRung{sched: sched, pool: fabric.NewFramePool()}
	var burst []fabric.Frame
	for dir := 0; dir < 2; dir++ {
		from, to := devs[dir], devs[1-dir]
		r.send[dir] = from.TxFrame
		r.recv[dir] = func() int {
			burst = to.AppendRxBurst(burst[:0], 0, 64)
			for i := range burst {
				burst[i].Release()
			}
			return len(burst)
		}
	}
	return r
}

// --- netstack rung ---

// stackRung is two netstack.Stacks on two NICs and one TCP connection,
// carrying the message as the marshalled-SGA byte count catnip would
// put on the stream.
type stackRung struct {
	failer
	spec         ladderSpec
	devA, devB   *nic.Device
	a, b         *netstack.Stack
	ca, cb       *netstack.TCPConn
	msg, scratch []byte
	bytesPerConn float64

	inflight       // one-way mode
	ops      int64 // messages delivered, for the frame schedule
	rcvd     int
}

func dialStacks(a, b *netstack.Stack, l *netstack.TCPListener, port uint16) (ca, cb *netstack.TCPConn, err error) {
	if ca, err = a.DialTCP(b.IP(), port); err != nil {
		return nil, nil, err
	}
	for i := 0; ; i++ {
		a.Poll()
		b.Poll()
		if cb == nil {
			cb, _ = l.Accept()
		}
		if cb != nil && ca.Established() {
			return ca, cb, nil
		}
		if err := ca.Err(); err != nil {
			return nil, nil, err
		}
		if i > pumpLimit {
			return nil, nil, fmt.Errorf("netstack rung: handshake made no progress")
		}
	}
}

// heapAlloc is the live heap after two collections (the second empties
// what the first moved to sync.Pool victim caches).
func heapAlloc() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func newStackRung(spec ladderSpec) (*stackRung, error) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	r := &stackRung{spec: spec}
	r.devA = nic.New(&model, sw, nic.Config{MAC: macA})
	r.devB = nic.New(&model, sw, nic.Config{MAC: macB})
	r.a = netstack.New(&model, r.devA, netstack.Config{IP: ipA})
	r.b = netstack.New(&model, r.devB, netstack.Config{IP: ipB})
	r.msg = make([]byte, demi.NewSGA(make([]byte, spec.payload)).MarshalledSize())
	l, err := r.b.ListenTCP(echoPort)
	if err != nil {
		return nil, err
	}
	if r.ca, r.cb, err = dialStacks(r.a, r.b, l, echoPort); err != nil {
		return nil, err
	}
	if spec.idle > 0 {
		li, err := r.b.ListenTCP(idlePort)
		if err != nil {
			return nil, err
		}
		before := heapAlloc()
		for i := 0; i < spec.idle; i++ {
			if _, _, err := dialStacks(r.a, r.b, li, idlePort); err != nil {
				return nil, err
			}
		}
		r.bytesPerConn = (heapAlloc() - before) / float64(spec.idle)
	}
	return r, nil
}

// wire reads the devices' counters: frames sent by A, frames sent by B,
// and bytes DMAed by A (everything either side sent, once).
func (r *stackRung) wire() (txA, txB, bytes int64) {
	sa, sb := r.devA.Stats(), r.devB.Stats()
	return sa.TxFrames, sb.TxFrames, sa.DMABytes
}

// transfer moves one message between the two stacks. Like the rungs
// above, it polls only the stack that has something to receive; the
// sender's stack sees the ACK on its next turn as receiver.
func (r *stackRung) transfer(p *pass, t0 int64, from, to *netstack.TCPConn, sender, receiver *netstack.Stack) {
	for off, spins := 0, 0; off < len(r.msg); {
		n, err := from.Send(r.msg[off:], 0)
		if err != nil {
			r.fail("netstack rung send: %v", err)
			return
		}
		off += n
		if n == 0 {
			receiver.Poll()
			sender.Poll()
		}
		if p.expired(t0, &spins) {
			r.fail("netstack rung send timed out")
			return
		}
	}
	for got, spins := 0, 0; got < len(r.msg); {
		receiver.Poll()
		b, _, err := to.RecvAppend(r.scratch[:0], 0)
		if err != nil {
			r.fail("netstack rung recv: %v", err)
			return
		}
		r.scratch = b
		got += len(b)
		if len(b) == 0 {
			sender.Poll() // window or cwnd limited: let the sender see ACKs
		}
		if p.expired(t0, &spins) {
			r.fail("netstack rung recv timed out")
			return
		}
	}
}

func (r *stackRung) step(p *pass) {
	if !r.spec.oneWay {
		t0 := p.clock()
		r.transfer(p, t0, r.ca, r.cb, r.a, r.b)
		if r.err == nil {
			r.transfer(p, t0, r.cb, r.ca, r.b, r.a)
		}
		t1 := p.clock()
		r.ops++
		p.record(t1, t1-t0, 1, 0, 0)
		return
	}
	for r.open() {
		// 8 x 16 KiB is under the send buffer, so Send takes it whole.
		if n, err := r.ca.Send(r.msg, 0); err != nil || n != len(r.msg) {
			r.fail("netstack rung send took %d of %d bytes: %v", n, len(r.msg), err)
			return
		}
		r.push(p.clock())
	}
	r.receive(p)
	if r.overdue(p) {
		r.fail("netstack rung message timed out")
	}
}

// receive polls both stacks and books every whole message that arrived.
func (r *stackRung) receive(p *pass) {
	r.a.Poll()
	r.b.Poll()
	b, _, err := r.cb.RecvAppend(r.scratch[:0], 0)
	if err != nil {
		r.fail("netstack rung recv: %v", err)
		return
	}
	r.scratch = b
	for r.rcvd += len(b); r.rcvd >= len(r.msg); r.rcvd -= len(r.msg) {
		r.deliver(p, 0, 0)
		r.ops++
	}
}

func (r *stackRung) quiesce() error {
	scratch := &pass{t0: time.Now()}
	for i := 0; r.delivered < r.sent; i++ {
		r.receive(scratch)
		if r.err != nil {
			return r.err
		}
		if i > pumpLimit {
			return fmt.Errorf("netstack rung never drained")
		}
	}
	return settle(func() int { return r.a.Poll() + r.b.Poll() })
}

// --- catnip rung ---

// catnipRung is two catnip transports and their endpoints, driven
// through Endpoint.Push/Pop with DoneFuncs and Transport.Poll: catnip
// without the libOS descriptor table, tokens and completer above it.
type catnipRung struct {
	failer
	spec   ladderSpec
	ta, tb *catnip.Transport
	ea, eb core.Endpoint
	msg    demi.SGA

	aGot, bGot   bool
	aComp, bComp queue.Completion
	onA, onB     queue.DoneFunc
	pushed       queue.DoneFunc

	inflight // one-way mode
}

func dialCatnip(ta, tb *catnip.Transport, l core.Endpoint, port uint16) (ea, eb core.Endpoint, err error) {
	if ea, err = ta.Socket(); err != nil {
		return nil, nil, err
	}
	if err = ea.Connect(core.Addr{IP: ipB, MAC: macB, Port: port}); err != nil {
		return nil, nil, err
	}
	for i := 0; ; i++ {
		ta.Poll()
		tb.Poll()
		if eb == nil {
			if ep, ok, err := l.Accept(); err != nil {
				return nil, nil, err
			} else if ok {
				eb = ep
			}
		}
		if eb != nil && ea.Connected() {
			return ea, eb, nil
		}
		if err := ea.Err(); err != nil {
			return nil, nil, err
		}
		if i > pumpLimit {
			return nil, nil, fmt.Errorf("catnip rung: handshake made no progress")
		}
	}
}

func listenCatnip(t *catnip.Transport, port uint16) (core.Endpoint, error) {
	l, err := t.Socket()
	if err != nil {
		return nil, err
	}
	if err := l.Bind(core.Addr{Port: port}); err != nil {
		return nil, err
	}
	return l, l.Listen()
}

func newCatnipRung(spec ladderSpec) (*catnipRung, error) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	r := &catnipRung{spec: spec, msg: demi.NewSGA(make([]byte, spec.payload))}
	r.ta = catnip.New(&model, sw, catnip.Config{MAC: macA, IP: ipA})
	r.tb = catnip.New(&model, sw, catnip.Config{MAC: macB, IP: ipB})
	l, err := listenCatnip(r.tb, echoPort)
	if err != nil {
		return nil, err
	}
	if r.ea, r.eb, err = dialCatnip(r.ta, r.tb, l, echoPort); err != nil {
		return nil, err
	}
	if spec.idle > 0 {
		li, err := listenCatnip(r.tb, idlePort)
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.idle; i++ {
			if _, _, err := dialCatnip(r.ta, r.tb, li, idlePort); err != nil {
				return nil, err
			}
		}
	}
	r.onA = func(c queue.Completion) { r.aComp, r.aGot = c, true }
	r.onB = func(c queue.Completion) { r.bComp, r.bGot = c, true }
	r.pushed = func(c queue.Completion) {
		if c.Err != nil {
			r.fail("catnip rung push: %v", c.Err)
		}
	}
	if spec.oneWay {
		r.eb.Pop(r.onB)
	}
	return r, nil
}

// await polls first then second until *got, or times out.
func (r *catnipRung) await(p *pass, t0 int64, got *bool, first, second *catnip.Transport) {
	for spins := 0; !*got && r.err == nil; {
		first.Poll()
		if *got {
			return
		}
		second.Poll()
		if p.expired(t0, &spins) {
			r.fail("catnip rung timed out")
		}
	}
}

func (r *catnipRung) step(p *pass) {
	if !r.spec.oneWay {
		t0 := p.clock()
		r.eb.Pop(r.onB)
		r.ea.Push(r.msg, 0, r.pushed)
		r.await(p, t0, &r.bGot, r.tb, r.ta)
		if r.err != nil || r.bComp.Err != nil {
			r.fail("catnip rung request: %v", r.bComp.Err)
			return
		}
		r.bGot = false
		r.ea.Pop(r.onA)
		r.eb.Push(r.bComp.SGA, r.bComp.Cost, r.pushed)
		r.bComp.SGA.Free()
		r.await(p, t0, &r.aGot, r.ta, r.tb)
		if r.err != nil || r.aComp.Err != nil {
			r.fail("catnip rung response: %v", r.aComp.Err)
			return
		}
		r.aGot = false
		r.aComp.SGA.Free()
		t1 := p.clock()
		p.record(t1, t1-t0, 1, 0, 0)
		return
	}
	for r.open() {
		r.push(p.clock())
		r.ea.Push(r.msg, 0, r.pushed)
	}
	r.ta.Poll()
	r.tb.Poll()
	r.receive(p)
	if r.overdue(p) {
		r.fail("catnip rung message timed out")
	}
}

// receive takes every delivered message; re-arming the pop may complete
// inline from the ready list, hence the loop.
func (r *catnipRung) receive(p *pass) {
	for r.bGot && r.err == nil {
		r.bGot = false
		if r.bComp.Err != nil {
			r.fail("catnip rung delivery: %v", r.bComp.Err)
			return
		}
		r.bComp.SGA.Free()
		r.deliver(p, 0, 0)
		r.eb.Pop(r.onB)
	}
}

func (r *catnipRung) quiesce() error {
	scratch := &pass{t0: time.Now()}
	for i := 0; r.delivered < r.sent; i++ {
		r.ta.Poll()
		r.tb.Poll()
		r.receive(scratch)
		if r.err != nil {
			return r.err
		}
		if i > pumpLimit {
			return fmt.Errorf("catnip rung never drained")
		}
	}
	return settle(func() int { return r.ta.Poll() + r.tb.Poll() })
}
