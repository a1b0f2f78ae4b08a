// Package catmint is the RDMA library OS: it implements the Demikernel
// queue abstraction over the simulated RDMA verbs device (internal/rdma).
//
// Where catnip must supply an entire network stack, an RDMA NIC already
// provides reliable, message-oriented transport in hardware (Table 1,
// middle column); what it does NOT provide is exactly what the paper
// calls out in §2: "applications must still supply OS buffer management
// and flow control. Applications have to register memory before using it
// for I/O, and receivers must allocate enough buffers of the right size
// for senders." catmint supplies those pieces:
//
//   - a registered buffer pool (arena MRs carved into fixed slots), so
//     applications never register memory and registration cost is
//     amortised per arena, not per message (§4.5);
//
//   - receive-buffer management: a configurable number of receives is
//     kept posted on every queue pair, eliminating the paper's
//     too-few-buffers failure mode (RNR) that raw verbs applications
//     must handle themselves (the E13 experiment quantifies this).
//
// Pushes from SGAs allocated via AllocSGA travel zero-copy (the device
// gathers directly from registered memory); pushes from unregistered
// application memory are staged into a pool slot with the staging copy
// charged, which is what a real libOS would have to do.
package catmint

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/fifo"
	"demikernel/internal/queue"
	"demikernel/internal/rdma"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// SlotSize is the fixed message buffer size: the largest framed SGA one
// push may carry over catmint. It is deliberately larger than a power-of-
// two payload so 16 KiB application messages fit with framing overhead.
const SlotSize = 32 * 1024

// slotsPerArena slots are carved from each registered arena MR.
const slotsPerArena = 64

// DefaultPostedRecvs is how many receives the libOS keeps posted per
// queue pair.
const DefaultPostedRecvs = 32

// readyByte is the one-byte connection-ready marker the accepting side
// sends after posting its receives (framed SGAs are always >= 8 bytes,
// so it cannot collide with data).
const readyByte = 0xA5

// ErrMessageTooBig is returned when a framed SGA exceeds SlotSize.
var ErrMessageTooBig = errors.New("catmint: message exceeds slot size")

// A broken queue pair is terminal for its endpoint, as a dead connection
// is on catnip: both errors are core.ErrPeerDead, so a client's failover
// redials a fresh connection, and each stays matchable with errors.Is.
// They are surfaced through qtoken completions, never by hanging a Wait.
var (
	// ErrQPBroken is carried by completions whose work requests were
	// flushed when the queue pair errored, and by every operation on its
	// endpoint after that.
	ErrQPBroken = fmt.Errorf("%w: catmint: queue pair errored", core.ErrPeerDead)
	// ErrOpTimeout is the dead-peer detector: an operation stayed
	// inflight past OpTimeout, so the peer (or the path to it) is gone.
	ErrOpTimeout = fmt.Errorf("%w: catmint: operation timed out", core.ErrPeerDead)
)

// DefaultOpTimeout bounds how long a send-side work request may stay
// inflight before the libOS declares the peer dead. Healthy completions
// take microseconds of polling; two seconds only ever expires when the
// peer stopped answering.
const DefaultOpTimeout = 2 * time.Second

// Config tunes the transport.
type Config struct {
	MAC fabric.MAC
	// OpTimeout overrides DefaultOpTimeout (chaos tests shorten it so
	// dead peers are detected quickly). Negative disables the detector.
	OpTimeout time.Duration
}

// Transport is the catmint libOS transport.
type Transport struct {
	model *simclock.CostModel
	clock *simclock.Clock
	dev   *rdma.Device
	pd    *rdma.PD
	scq   *rdma.CQ
	rcq   *rdma.CQ
	cfg   Config

	// route is held while Poll routes the completions it took off the
	// CQs: two pollers (a Background one and a blocking wait's) taking a
	// batch each would otherwise hand one connection's messages to its
	// pops out of order. A poller that finds it held leaves the CQs to
	// the holder, so a completion callback that polls cannot deadlock.
	route sync.Mutex

	mu       sync.Mutex
	pool     []*slot // free slots
	arenas   int
	pending  map[uint64]*pendingOp // wrID -> op
	nextWRID uint64
	// deadlines holds the send-side work requests in post order, which
	// is deadline order: each is due OpTimeout after it was posted.
	deadlines fifo.Queue[wrDeadline]
	// listeners are the endpoints Poll stages inbound connections for.
	// The slice is never written in place, so Poll iterates a copy of
	// the header outside the lock.
	listeners []*endpoint
	// stats
	stagedCopies int64
	zeroCopyTx   int64
	opTimeouts   int64
}

type slot struct {
	mr  *rdma.MR
	off int
}

func (s *slot) bytes() []byte { return s.mr.Bytes()[s.off : s.off+SlotSize] }

type pendingOp struct {
	kind queue.OpKind
	ep   *endpoint
	slot *slot
	done queue.DoneFunc
	cost simclock.Lat
	// onWC, when set, routes the raw completion to a one-sided
	// operation (see remote.go) instead of the queue machinery.
	onWC func(rdma.WC)
}

// wrDeadline is when the send-side work request id is due, in the
// clock's Unix nanoseconds.
type wrDeadline struct {
	id uint64
	at int64
}

// New attaches a catmint instance to the fabric switch; its op deadlines
// read clock, the node's clock.
func New(model *simclock.CostModel, sw *fabric.Switch, cfg Config, clock *simclock.Clock) *Transport {
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	dev := rdma.New(model, sw, cfg.MAC)
	t := &Transport{
		model:   model,
		clock:   clock,
		dev:     dev,
		pd:      dev.AllocPD(),
		cfg:     cfg,
		pending: make(map[uint64]*pendingOp),
	}
	t.scq = dev.CreateCQ()
	t.rcq = dev.CreateCQ()
	return t
}

// Name implements core.Transport.
func (t *Transport) Name() string { return "catmint" }

// Features implements core.Transport.
func (t *Transport) Features() core.Features {
	return core.Features{
		KernelBypass: true,
		HWTransport:  true,
		SoftwareSupplied: []string{
			"buffer management (posted receives)", "memory registration pooling",
			"sga framing", "flow control",
		},
	}
}

// Device exposes the RDMA device (for stats in experiments).
func (t *Transport) Device() *rdma.Device { return t.dev }

// StagedCopies reports pushes that had to stage unregistered memory.
func (t *Transport) StagedCopies() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stagedCopies
}

// ZeroCopyTx reports pushes that went out directly from registered
// memory.
func (t *Transport) ZeroCopyTx() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.zeroCopyTx
}

// OpTimeouts reports operations expired by the dead-peer detector.
func (t *Transport) OpTimeouts() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opTimeouts
}

// Pending reports work requests posted and not yet completed: on a
// transport at rest, each open connection's posted receive window.
func (t *Transport) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// RegisterTelemetry lifts the transport's counters — its own libOS-layer
// stats plus the RDMA device's — into a telemetry registry under prefix.
func (t *Transport) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	t.dev.RegisterTelemetry(r, prefix+".rnic")
	r.RegisterFunc(prefix+".staged_copies", t.StagedCopies)
	r.RegisterFunc(prefix+".zero_copy_tx", t.ZeroCopyTx)
	r.RegisterFunc(prefix+".op_timeouts", t.OpTimeouts)
	r.RegisterFunc(prefix+".arenas", func() int64 { return int64(t.Arenas()) })
}

// allocSlot pops a free slot, registering a new arena when the pool is
// dry (one registration per arena: the §4.5 amortisation).
func (t *Transport) allocSlot() *slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.pool) == 0 {
		arena := make([]byte, SlotSize*slotsPerArena)
		mr := t.pd.RegisterMemory(arena)
		t.arenas++
		for i := 0; i < slotsPerArena; i++ {
			t.pool = append(t.pool, &slot{mr: mr, off: i * SlotSize})
		}
	}
	s := t.pool[len(t.pool)-1]
	t.pool = t.pool[:len(t.pool)-1]
	return s
}

func (t *Transport) freeSlot(s *slot) {
	t.mu.Lock()
	t.pool = append(t.pool, s)
	t.mu.Unlock()
}

// Arenas returns how many arena registrations have been performed.
func (t *Transport) Arenas() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.arenas
}

// AllocSGA implements core.Transport: the returned single-segment SGA
// lives in a registered pool slot, so pushes of it are zero-copy.
func (t *Transport) AllocSGA(n int) sga.SGA {
	if n > SlotSize {
		// Oversized allocations fall back to heap memory (staged at
		// push time).
		return sga.New(make([]byte, n))
	}
	sl := t.allocSlot()
	s := sga.New(sl.bytes()[:n]).WithFree(func() { t.freeSlot(sl) })
	s.Reg = sl
	return s
}

// SocketUDP implements core.Transport; this libOS has no datagram path.
func (t *Transport) SocketUDP() (core.Endpoint, error) {
	return nil, core.ErrNotSupported
}

// Open implements core.Transport; catmint has no storage path.
func (t *Transport) Open(string) (queue.IoQueue, error) {
	return nil, core.ErrNotSupported
}

// Socket implements core.Transport.
func (t *Transport) Socket() (core.Endpoint, error) {
	return &endpoint{t: t}, nil
}

// Poll implements core.Transport: pump the device, stage inbound
// connections, route completions, and expire dead-peer ops. A broken
// queue pair needs no walk of its own: its posted receives flush to the
// receive CQ, and a peer that went silent is what expireDue finds.
func (t *Transport) Poll() int {
	n := t.dev.Poll()

	// Stage inbound connections eagerly: the libOS (not the
	// application) posts the receive window and signals readiness, so a
	// peer that connects and immediately pushes never hits RNR — the
	// buffer-management burden §2 describes, carried by the libOS.
	t.mu.Lock()
	listeners := t.listeners
	t.mu.Unlock()
	for _, l := range listeners {
		n += l.stageAccepts()
	}

	if t.route.TryLock() {
		for _, wc := range t.rcq.Poll(0) {
			n++
			t.handleRecv(wc)
		}
		for _, wc := range t.scq.Poll(0) {
			n++
			t.handleSendComp(wc)
		}
		t.route.Unlock()
	}
	return n + t.expireDue()
}

// expireDue is the dead-peer detector: a send-side work request inflight
// past its deadline completes with ErrOpTimeout and breaks its queue
// pair. A peer behind a downed link never NAKs, so without this the op
// would hang forever. Only the head of the deadline FIFO is looked at:
// an id that completed is dropped, a due one expires, and the first live
// one not yet due ends the pass, so a poll costs what expires, not what
// is posted. A clock stepped back delays an expiry by at most the step:
// an id posted after the step waits behind those posted before it.
func (t *Transport) expireDue() int {
	t.mu.Lock()
	var expired []*pendingOp
	if t.deadlines.Len() > 0 {
		now := t.clock.UnixNano()
		for t.deadlines.Len() > 0 {
			d := *t.deadlines.Front() // a copy: Pop zeroes the slot
			op := t.pending[d.id]
			if op != nil && now <= d.at {
				break
			}
			t.deadlines.Pop()
			if op != nil {
				delete(t.pending, d.id)
				expired = append(expired, op)
			}
		}
	}
	t.opTimeouts += int64(len(expired))
	t.mu.Unlock()
	for _, op := range expired {
		// Break first: a destroyed queue pair no longer writes the slot.
		op.ep.breakQP(ErrOpTimeout)
		t.freeSlot(op.slot)
		if op.onWC != nil {
			op.onWC(rdma.WC{Status: rdma.StatusQPError})
		} else if op.done != nil {
			op.done(queue.Completion{Kind: op.kind, Err: ErrOpTimeout})
		}
	}
	return len(expired)
}

// take removes and returns the op posted as wrID; nil when the op is no
// longer pending (the detector expired it first).
func (t *Transport) take(wrID uint64) *pendingOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.pending[wrID]
	delete(t.pending, wrID)
	return op
}

// unpost withdraws a work request the device refused and recycles its
// slot. It reports false when the detector expired the op first, which
// has then completed it already.
func (t *Transport) unpost(wrID uint64) bool {
	op := t.take(wrID)
	if op != nil {
		t.freeSlot(op.slot)
	}
	return op != nil
}

func (t *Transport) handleRecv(wc rdma.WC) {
	op := t.take(wc.WRID)
	if op == nil {
		return
	}
	ep := op.ep
	if wc.Status != rdma.StatusSuccess {
		// A flushed receive: the queue pair errored or was destroyed,
		// and the endpoint dies with it.
		t.freeSlot(op.slot)
		ep.breakQP(ErrQPBroken)
		return
	}
	// Keep the configured number of receives posted.
	ep.postRecv()
	data := op.slot.bytes()[:wc.Len]
	if wc.Len == 1 && data[0] == readyByte {
		t.freeSlot(op.slot)
		ep.mu.Lock()
		ep.isReady = true
		ep.mu.Unlock()
		return
	}
	s, _, err := sga.Unmarshal(data)
	if err != nil {
		t.freeSlot(op.slot)
		ep.deliver(queue.Completion{Kind: queue.OpPop, Err: err})
		return
	}
	sl := op.slot
	s = s.WithFree(func() { t.freeSlot(sl) })
	ep.deliver(queue.Completion{Kind: queue.OpPop, SGA: s, Cost: wc.Cost})
}

func (t *Transport) handleSendComp(wc rdma.WC) {
	op := t.take(wc.WRID)
	if op == nil {
		return
	}
	if op.onWC != nil {
		// One-sided operation: the callback may need the slot's bytes
		// (reads), so it runs before the slot recycles.
		op.onWC(wc)
	}
	t.freeSlot(op.slot)
	if op.done != nil { // nil: a one-sided op, or the ready marker
		op.done(queue.Completion{Kind: queue.OpPush, Cost: op.cost + wc.Cost, Err: wcErr("send", wc.Status)})
	}
}

// wcErr is the error a work completion reports: nil on success, and
// ErrQPBroken for a request its queue pair flushed.
func wcErr(op string, st rdma.WCStatus) error {
	switch st {
	case rdma.StatusSuccess:
		return nil
	case rdma.StatusQPError:
		return ErrQPBroken
	}
	return fmt.Errorf("catmint: %s failed: %v", op, st)
}

// postErr is the error of a work request the device refused: a queue
// pair that errored after the endpoint last looked reports what a
// request it flushed would.
func postErr(err error) error {
	if errors.Is(err, rdma.ErrQPState) {
		return ErrQPBroken
	}
	return err
}

func (t *Transport) newWRID(op *pendingOp) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextWRID++
	t.pending[t.nextWRID] = op
	// Send-side work requests get a dead-peer deadline; posted receives
	// (kind OpPop without a one-sided callback) wait indefinitely.
	if t.cfg.OpTimeout > 0 && (op.kind == queue.OpPush || op.onWC != nil) {
		t.deadlines.Push(wrDeadline{t.nextWRID, t.clock.UnixNano() + int64(t.cfg.OpTimeout)})
	}
	return t.nextWRID
}

// dropListener takes a closed listener off Poll's list.
func (t *Transport) dropListener(e *endpoint) {
	t.mu.Lock()
	t.listeners = slices.DeleteFunc(slices.Clone(t.listeners), func(l *endpoint) bool { return l == e })
	t.mu.Unlock()
}

// endpoint is one catmint socket queue over an RDMA queue pair. When the
// queue pair breaks the endpoint is dead for good, on the dialing side as
// on the accepting one: the client's failover redials a new connection.
type endpoint struct {
	t *Transport

	mu       sync.Mutex
	bound    core.Addr
	listener *rdma.Listener
	qp       *rdma.QP
	// rx is the pop side, under mu. Its terminal error is the one that
	// broke the queue pair.
	rx      queue.PopSide
	acceptQ []*endpoint // staged inbound connections (listeners only)
	isReady bool        // connection fully usable (ready marker seen / sent)
}

// Bind implements core.Endpoint.
func (e *endpoint) Bind(addr core.Addr) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bound = addr
	return nil
}

// LocalAddr implements core.Endpoint.
func (e *endpoint) LocalAddr() core.Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bound
}

// Listen implements core.Endpoint.
func (e *endpoint) Listen() error {
	l, err := e.t.dev.Listen(e.LocalAddr().Port, e.t.pd, e.t.scq, e.t.rcq)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.listener = l
	e.mu.Unlock()
	e.t.mu.Lock()
	e.t.listeners = append(e.t.listeners, e)
	e.t.mu.Unlock()
	return nil
}

// stageAccepts drains the device-level backlog into fully initialised
// endpoints (receive window posted, ready marker sent). Called from
// Transport.Poll so staging never waits for the application; what
// arrives at a closed listener is closed at once.
func (e *endpoint) stageAccepts() int {
	e.mu.Lock()
	l := e.listener
	e.mu.Unlock()
	n := 0
	for qp, ok := l.Accept(); ok; qp, ok = l.Accept() {
		child := &endpoint{t: e.t, qp: qp, isReady: true}
		for i := 0; i < DefaultPostedRecvs; i++ {
			child.postRecv()
		}
		child.sendReadyMarker()
		e.mu.Lock()
		closed := e.rx.Closed()
		if !closed {
			e.acceptQ = append(e.acceptQ, child)
		}
		e.mu.Unlock()
		if closed {
			child.Close()
		}
		n++
	}
	return n
}

// Accept implements core.Endpoint: it pops one staged connection.
func (e *endpoint) Accept() (core.Endpoint, bool, error) {
	e.mu.Lock()
	l := e.listener
	e.mu.Unlock()
	if l == nil {
		return nil, false, core.ErrNotListening
	}
	e.stageAccepts()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.acceptQ) == 0 {
		return nil, false, nil
	}
	child := e.acceptQ[0]
	e.acceptQ = e.acceptQ[1:]
	return child, true, nil
}

// Connect implements core.Endpoint: the receive window is posted before
// the connection request leaves, so the peer can never hit RNR on the
// handshake.
func (e *endpoint) Connect(addr core.Addr) error {
	qp := e.t.dev.NewQP(e.t.pd, e.t.scq, e.t.rcq)
	e.mu.Lock()
	e.qp = qp
	e.mu.Unlock()
	for i := 0; i < DefaultPostedRecvs; i++ {
		e.postRecv()
	}
	qp.Connect(addr.MAC, addr.Port)
	return nil
}

// Connected implements core.Endpoint.
func (e *endpoint) Connected() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.isReady && e.qp != nil && e.qp.Connected()
}

// Err implements core.Endpoint: non-nil once the queue pair broke.
func (e *endpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rx.Err()
}

// breakQP kills the endpoint with err, which every later operation fails
// with; completions delivered before the break can still be popped. The
// queue pair is destroyed so that what it still holds flushes back. The
// first error sticks.
func (e *endpoint) breakQP(err error) {
	e.mu.Lock()
	if e.rx.Closed() || e.rx.Err() != nil {
		e.mu.Unlock()
		return
	}
	dropped := e.rx.Fail(err)
	qp := e.qp
	e.mu.Unlock()
	qp.Destroy()
	dropped.Settle()
}

func (e *endpoint) sendReadyMarker() {
	sl := e.t.allocSlot()
	sl.bytes()[0] = readyByte
	wrID := e.t.newWRID(&pendingOp{kind: queue.OpPush, ep: e, slot: sl})
	if e.qp.PostSend(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: 1}) != nil {
		e.t.unpost(wrID) // the queue pair broke already: its flushed receives say so
	}
}

// postRecv posts one pool slot as a receive buffer. A receive posted to
// a queue pair that has errored flushes at once, like those before it.
func (e *endpoint) postRecv() {
	e.mu.Lock()
	qp := e.qp
	e.mu.Unlock()
	sl := e.t.allocSlot()
	wrID := e.t.newWRID(&pendingOp{kind: queue.OpPop, ep: e, slot: sl})
	if qp.PostRecv(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: SlotSize}) != nil {
		e.t.unpost(wrID)
	}
}

// usableQP returns the queue pair an operation posts to, or the error
// the operation fails with at once.
func (e *endpoint) usableQP() (*rdma.QP, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.rx.Closed() || e.qp == nil:
		return nil, queue.ErrClosed
	case e.rx.Err() != nil:
		return nil, e.rx.Err()
	}
	return e.qp, nil
}

// Push implements queue.IoQueue.
func (e *endpoint) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	qp, err := e.usableQP()
	if err == nil && s.MarshalledSize() > SlotSize {
		err = ErrMessageTooBig
	}
	if err != nil {
		done(queue.Completion{Kind: queue.OpPush, Err: err})
		return
	}
	sl := e.t.allocSlot()
	buf := s.AppendMarshal(sl.bytes()[:0])

	// Zero-copy accounting: if every segment came from the registered
	// pool the device gathers in place; otherwise the staging into the
	// slot is a real copy and is charged.
	e.t.mu.Lock()
	if _, registered := s.Reg.(*slot); registered {
		e.t.zeroCopyTx++
	} else {
		e.t.stagedCopies++
		cost += e.t.model.CopyCost(s.Len())
	}
	e.t.mu.Unlock()

	wrID := e.t.newWRID(&pendingOp{kind: queue.OpPush, ep: e, slot: sl, done: done, cost: cost})
	if err := qp.PostSend(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: len(buf)}); err != nil && e.t.unpost(wrID) {
		done(queue.Completion{Kind: queue.OpPush, Err: postErr(err)})
	}
}

// Pop implements queue.IoQueue: the pop side answers it, or it parks until
// a receive completes.
func (e *endpoint) Pop(done queue.DoneFunc) {
	e.mu.Lock()
	c, ok := e.rx.Pop(done)
	e.mu.Unlock()
	if ok {
		done(c)
	}
}

// deliver hands c to the pop side: to the oldest parked pop, or held for
// the next one; a closed endpoint has no next pop, so c is freed.
func (e *endpoint) deliver(c queue.Completion) {
	e.mu.Lock()
	w, ok := e.rx.Deliver(c)
	e.mu.Unlock()
	if ok {
		w(c)
	}
}

// Pump implements queue.IoQueue; completion routing happens centrally in
// Transport.Poll.
func (e *endpoint) Pump() int { return 0 }

// Close implements queue.IoQueue and releases what the endpoint held: its
// queue pair is destroyed, so the posted receives flush back to the pool
// on the next Poll; completions nobody popped are freed; and a listener
// leaves the transport and closes the connections it staged that nobody
// accepted.
func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.rx.Closed() {
		e.mu.Unlock()
		return nil
	}
	dropped := e.rx.Close()
	qp, l, staged := e.qp, e.listener, e.acceptQ
	e.acceptQ = nil
	e.mu.Unlock()
	if l != nil {
		e.t.dropListener(e)
		l.Close()        // or the port stays bound to a listener nobody accepts from
		e.stageAccepts() // the device's backlog, each closed as it is staged
	}
	if qp != nil {
		qp.Destroy()
	}
	for _, child := range staged {
		child.Close()
	}
	dropped.Settle()
	return nil
}
