package main

// The catnip<->catnip rigs: two unsharded nodes on one loss-free
// fabric.Switch, pumped only by the calling goroutine (the hotPathPair
// shape of the legacy *_bench_test.go rigs). The "wire" is the
// in-process fabric; nothing leaves this process.

import (
	"bytes"
	"fmt"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/echo"
	"demikernel/internal/fabric"
	"demikernel/internal/queue"
	"demikernel/internal/telemetry"
	"demikernel/internal/uring"
)

const (
	echoPort = 7
	idlePort = 9
)

// netPair is a server and a client node with their whole verticals in
// one telemetry registry.
type netPair struct {
	c                *demi.Cluster
	reg              *telemetry.Registry
	srvNode, cliNode *demi.Node
	srv, cli         *demi.LibOS
}

func newRegistry(c *demi.Cluster) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	c.Switch.RegisterTelemetry(reg, "fabric.switch")
	fabric.DefaultFramePool.RegisterTelemetry(reg, "framepool.default")
	fabric.RegisterBurstTelemetry(reg, "rxburst")
	return reg
}

func newNetPair(seed int64) *netPair {
	c := demi.NewCluster(seed)
	reg := newRegistry(c)
	p := &netPair{c: c, reg: reg}
	p.srvNode = c.MustSpawn(demi.Catnip, demi.WithHost(1), demi.WithTelemetry(reg))
	p.cliNode = c.MustSpawn(demi.Catnip, demi.WithHost(2), demi.WithTelemetry(reg))
	p.srv, p.cli = p.srvNode.LibOS, p.cliNode.LibOS
	return p
}

// listen opens a listening socket on the server.
func (n *netPair) listen(port uint16) (demi.QD, error) {
	qd, err := n.srv.Socket()
	if err != nil {
		return 0, err
	}
	if err := n.srv.Bind(qd, demi.Addr{Port: port}); err != nil {
		return 0, err
	}
	return qd, n.srv.Listen(qd)
}

// connect dials the server's port from a fresh client socket and pumps
// both nodes from this goroutine until the handshake completes. serve
// runs after each server poll (an app's accept loop), and may be nil.
func (n *netPair) connect(port uint16, serve func()) (demi.QD, error) {
	qd, err := n.cli.Socket()
	if err != nil {
		return 0, err
	}
	ep, err := n.cli.EndpointOf(qd)
	if err != nil {
		return 0, err
	}
	if err := ep.Connect(n.c.AddrOf(n.srvNode, port)); err != nil {
		return 0, err
	}
	for i := 0; !ep.Connected(); i++ {
		n.cli.Poll()
		n.srv.Poll()
		if serve != nil {
			serve()
		}
		if err := ep.Err(); err != nil {
			return 0, err
		}
		if i > pumpLimit {
			return 0, fmt.Errorf("connect to port %d made no progress", port)
		}
	}
	return qd, nil
}

// accept takes one established connection off a driver-owned listener.
func (n *netPair) accept(lqd demi.QD) (demi.QD, error) {
	for i := 0; ; i++ {
		qd, ok, err := n.srv.TryAccept(lqd)
		if err != nil {
			return 0, err
		}
		if ok {
			return qd, nil
		}
		n.cli.Poll()
		n.srv.Poll()
		if i > pumpLimit {
			return 0, fmt.Errorf("accept made no progress")
		}
	}
}

// addIdle opens k established keep-alive connections that never carry
// an op: Socket/Connect on the client, Accept on a driver-owned server
// listener, through the same two nodes the measured connection uses.
func (n *netPair) addIdle(k int) error {
	lqd, err := n.listen(idlePort)
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		if _, err := n.connect(idlePort, nil); err != nil {
			return err
		}
		if _, err := n.accept(lqd); err != nil {
			return err
		}
	}
	return nil
}

// netRig is what the two-node rigs share: the pair, and the rig methods
// that only depend on it. serve is the server application's turn (nil
// when the driver itself is the server).
type netRig struct {
	rigBase
	n     *netPair
	serve func()
}

func newNetRig(seed int64) netRig {
	n := newNetPair(seed)
	return netRig{rigBase: rigBase{reg: n.reg}, n: n}
}

func (r *netRig) quiesce() error {
	return settle(func() int {
		k := r.n.cli.Poll() + r.n.srv.Poll()
		if r.serve != nil {
			r.serve()
		}
		return k
	})
}

func (r *netRig) idlePoll() int {
	r.n.cli.Poll()
	r.n.srv.Poll()
	return 2
}

func (r *netRig) atRest() int64 { return 0 }

func (r *netRig) layerCounters(m map[string]float64, d telemetry.Snapshot, p *pass) {
	netCounters(m, d, p)
}

// netCounters are the counter metrics every network rig reports, from
// the registry diff of one pass.
func netCounters(m map[string]float64, d telemetry.Snapshot, p *pass) {
	ops := float64(p.ops)
	m["fabric.frames_per_op"] = ratio(sum(d, "fabric.", ".delivered"), ops)
	m["fabric.drops"] = fabricDrops(d)
	m["fabric.pool_miss_share"] = ratio(sum(d, "framepool.", ".misses"),
		sum(d, "framepool.", ".misses")+sum(d, "framepool.", ".pooled"))
	m["nic.rx_burst_mean"] = ratio(sum(d, "", ".nic.rx_frames"), sum(d, "rxburst.", ""))
	m["nic.dma_bytes_per_op"] = ratio(sum(d, "", ".nic.dma_bytes"), ops)
	m["nic.rx_dropped"] = sum(d, "", ".nic.rx_dropped")
	m["netstack.segs_tx_per_op"] = ratio(sum(d, "", ".netstack.tcp_segs_sent"), ops)
	m["netstack.segs_rx_per_op"] = ratio(sum(d, "", ".netstack.tcp_segs_rcvd"), ops)
	m["netstack.retransmits"] = sum(d, "", ".netstack.retransmits")
	m["netstack.dup_acks"] = sum(d, "", ".netstack.dup_acks_rcvd")
	m["netstack.ooo_segs"] = sum(d, "", ".netstack.out_of_order_segs")
	m["catnip.rx_stalls"] = sum(d, "", ".rx_ready_stalls")
	m["uring.sq_full_spins"] = sum(d, "", ".uring.sq_full_spins")
	if p.submits > 0 {
		m["uring.sqe_per_submit"] = ratio(sum(d, "host2.", ".uring.sq_posted"), float64(p.submits))
		m["uring.cqe_per_harvest"] = ratio(sum(d, "host2.", ".uring.cq_harvested"), float64(p.harvests))
	}
}

// --- echo64 / echo64_idle1k ---

// echoRig is one connection with one echo in flight over the per-op
// token path: Pop/Push/TryWait/Poll on the client, and either
// echo.Server.Step (the workload and the ladder's app rung) or a
// hand-written pop->push server on the same LibOS calls (the ladder's
// core rung) inline on the server.
type echoRig struct {
	netRig
	app *echo.Server // nil: hand-written server
	sqd demi.QD      // hand-written server's connection
	sqt demi.QToken  // its armed pop
	cqd demi.QD
	gen *generator
	seq uint64
	buf []byte
	req demi.SGA
}

func newEchoRig(seed int64, idle int, useApp bool) (*echoRig, error) {
	r := &echoRig{netRig: newNetRig(seed)}
	var err error
	if r.gen, err = newGenerator("echo64", seed); err != nil {
		return nil, err
	}
	r.buf = randomBytes(seed+3, echoPayload)
	r.req = demi.NewSGA(r.buf)
	if useApp {
		r.app = echo.NewServer(r.n.srv)
		if err := r.app.Listen(echoPort); err != nil {
			return nil, err
		}
		r.serve = func() { r.app.Step() }
		if r.cqd, err = r.n.connect(echoPort, r.serve); err != nil {
			return nil, err
		}
	} else {
		lqd, err := r.n.listen(echoPort)
		if err != nil {
			return nil, err
		}
		if r.cqd, err = r.n.connect(echoPort, nil); err != nil {
			return nil, err
		}
		if r.sqd, err = r.n.accept(lqd); err != nil {
			return nil, err
		}
		if r.sqt, err = r.n.srv.Pop(r.sqd); err != nil {
			return nil, err
		}
	}
	if idle > 0 {
		if err := r.n.addIdle(idle); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// serveOne is the server's turn after its poll.
func (r *echoRig) serveOne(p *pass) {
	if r.app != nil {
		s := p.begin()
		r.app.Step()
		p.end(spStep, s)
		return
	}
	c, ok, err := r.n.srv.TryWait(r.sqt)
	if err != nil || !ok {
		return
	}
	if c.Err != nil {
		r.fail("server pop: %v", c.Err)
		return
	}
	qt, err := r.n.srv.PushCost(r.sqd, c.SGA, c.Cost)
	if err != nil {
		r.fail("server push: %v", err)
		return
	}
	if _, ok, _ := r.n.srv.TryWait(qt); !ok {
		r.fail("server push did not complete inline")
	}
	c.SGA.Free()
	if r.sqt, err = r.n.srv.Pop(r.sqd); err != nil {
		r.fail("server re-arm: %v", err)
	}
}

func (r *echoRig) step(p *pass) {
	t0 := p.opBegin()
	cli, srv := r.n.cli, r.n.srv

	s := p.begin()
	o := r.gen.next()
	r.seq++
	stamp(r.buf, o.salt, r.seq)
	p.end(spClient, s)

	s = p.begin()
	popQT, err := cli.Pop(r.cqd)
	p.end(spPop, s)
	if err != nil {
		r.fail("client pop: %v", err)
		return
	}
	s = p.begin()
	pushQT, err := cli.Push(r.cqd, r.req)
	p.end(spPush, s)
	if err != nil {
		r.fail("client push: %v", err)
		return
	}
	var resp demi.Completion
	for spins := 0; ; {
		s = p.begin()
		c, ok, err := cli.TryWait(popQT)
		p.end(spTryWait, s)
		if err != nil {
			r.fail("client wait: %v", err)
			return
		}
		if ok {
			resp = c
			break
		}
		p.poll(spPollSrv, srv)
		r.serveOne(p)
		p.poll(spPollCli, cli)
		if r.err != nil {
			return
		}
		if p.expired(t0, &spins) {
			r.fail("echo %d timed out after %v", r.seq, opTimeout)
			return
		}
	}
	if _, ok, err := cli.TryWait(pushQT); err != nil || !ok {
		r.fail("request push not complete with its echo: ok=%v err=%v", ok, err)
		return
	}
	if resp.Err != nil {
		r.fail("echo %d: %v", r.seq, resp.Err)
		return
	}
	s = p.begin()
	good := len(resp.SGA.Segments) == 1 && bytes.Equal(resp.SGA.Segments[0].Buf, r.buf)
	resp.SGA.Free()
	p.end(spClient, s)
	if !good {
		r.fail("echo %d returned different bytes", r.seq)
		return
	}
	t1 := p.opEnd()
	p.record(t1, t1-t0, 1, echoPayload, int64(resp.Cost))
}

// --- the client half of the two ring workloads ---

// ringClient carries pipelined request/response batches over the
// client's SQ/CQ ring: post push+pop SQEs for every request, pump both
// nodes and the server application, harvest tagged CQEs until every
// completion has landed. Pops complete in stream order, so the i-th pop
// CQE carries the response to the batch's i-th request.
type ringClient struct {
	*netRig
	cqd  demi.QD
	ring *uring.Pair
	sq   []uring.SQE
	cq   []uring.CQE
	// check verifies the response to the batch's i-th request.
	check func(i int, resp demi.SGA) bool
}

func newRingClient(r *netRig, port uint16, check func(int, demi.SGA) bool) (*ringClient, error) {
	cqd, err := r.n.connect(port, r.serve)
	if err != nil {
		return nil, err
	}
	return &ringClient{
		netRig: r, cqd: cqd, check: check,
		ring: r.n.cli.AttachRing(ringCap),
		sq:   make([]uring.SQE, 0, 2*ringBatch),
		cq:   make([]uring.CQE, ringCap),
	}, nil
}

// stage appends the push+pop pair of the batch's next request.
func (c *ringClient) stage(req demi.SGA) {
	i := uint64(len(c.sq) / 2)
	c.sq = append(c.sq,
		uring.SQE{Op: queue.OpPush, QD: int32(c.cqd), Tag: i<<1 | 1, SGA: req},
		uring.SQE{Op: queue.OpPop, QD: int32(c.cqd), Tag: i << 1})
}

// roundTrips drives the staged batch to completion and returns the
// summed virtual cost of its responses.
func (c *ringClient) roundTrips(p *pass, t0 int64) (virt int64) {
	cli, srv := c.n.cli, c.n.srv
	sq, want := c.sq, len(c.sq)
	c.sq = c.sq[:0]
	next := 0
	for got, spins := 0, 0; got < want; {
		if len(sq) > 0 {
			s := p.begin()
			k, err := cli.SubmitBatch(c.ring, sq)
			p.end(spSubmit, s)
			p.submits++
			if err != nil {
				c.fail("submit: %v", err)
				return 0
			}
			sq = sq[k:]
		}
		p.poll(spPollCli, cli) // drain the SQ, TX the requests
		p.poll(spPollSrv, srv) // RX; pop CQEs land on the server ring
		s := p.begin()
		c.serve()
		p.end(spStep, s)
		p.poll(spPollSrv, srv) // drain the server SQ, TX the responses
		p.poll(spPollCli, cli) // RX; pop CQEs land on the client ring
		s = p.begin()
		k := cli.HarvestCQ(c.ring, c.cq)
		p.end(spHarvest, s)
		p.harvests++
		s = p.begin()
		for i := 0; i < k; i++ {
			cqe := &c.cq[i]
			if cqe.Err != nil {
				c.fail("ring op tag %d: %v", cqe.Tag, cqe.Err)
				return 0
			}
			if cqe.Kind == queue.OpPop {
				if cqe.Tag != uint64(next)<<1 || !c.check(next, cqe.SGA) {
					c.fail("response %d of the batch failed verification", next)
				}
				next++
				virt += int64(cqe.Cost)
				cqe.SGA.Free()
			}
			*cqe = uring.CQE{}
			got++
		}
		p.end(spClient, s)
		if c.err != nil {
			return 0
		}
		if p.expired(t0, &spins) {
			c.fail("ring batch timed out after %v", opTimeout)
			return 0
		}
	}
	return virt
}

// --- ring_echo64_b32 ---

// ringRig posts 32 echo round trips per batch; echo.Server serves
// through its own ring.
type ringRig struct {
	netRig
	rc   *ringClient
	gen  *generator
	seq  uint64
	bufs [ringBatch][]byte
	reqs [ringBatch]demi.SGA
}

func newRingRig(seed int64) (*ringRig, error) {
	r := &ringRig{netRig: newNetRig(seed)}
	var err error
	if r.gen, err = newGenerator("ring_echo64_b32", seed); err != nil {
		return nil, err
	}
	base := randomBytes(seed+3, echoPayload)
	for i := range r.bufs {
		r.bufs[i] = bytes.Clone(base)
		r.reqs[i] = demi.NewSGA(r.bufs[i])
	}
	app := echo.NewServer(r.n.srv)
	if err := app.Listen(echoPort); err != nil {
		return nil, err
	}
	app.EnableRing(ringCap)
	r.serve = func() { app.Step() }
	r.rc, err = newRingClient(&r.netRig, echoPort, func(i int, resp demi.SGA) bool {
		return len(resp.Segments) == 1 && bytes.Equal(resp.Segments[0].Buf, r.bufs[i])
	})
	return r, err
}

func (r *ringRig) step(p *pass) {
	t0 := p.opBegin()
	s := p.begin()
	for i := range r.bufs {
		o := r.gen.next()
		r.seq++
		stamp(r.bufs[i], o.salt, r.seq)
		r.rc.stage(r.reqs[i])
	}
	p.end(spClient, s)
	virt := r.rc.roundTrips(p, t0)
	if r.err != nil {
		return
	}
	t1 := p.opEnd()
	p.record(t1, t1-t0, ringBatch, ringBatch*echoPayload, virt)
}

// --- stream16k ---

// streamRig keeps 8 x 16 KiB pushes outstanding on one connection; the
// driver is also the receiving application: it pops, checks sequence
// and checksum, and frees. A slot is reused only after its message was
// verified at the server (closed loop on delivery).
type streamRig struct {
	netRig
	inflight
	cqd, sqd demi.QD
	gen      *generator
	verify   bool // false: the ladder's core rung skips the checksum

	bufs    [streamWindow][]byte
	msgs    [streamWindow]demi.SGA
	pushQT  [streamWindow]demi.QToken
	salts   [streamWindow]uint64
	bodySum uint64 // weightedSum of the shared body with a zero header
	popQT   demi.QToken
}

func newStreamRig(seed int64, verify bool) (*streamRig, error) {
	r := &streamRig{netRig: newNetRig(seed), verify: verify}
	var err error
	if r.gen, err = newGenerator("stream16k", seed); err != nil {
		return nil, err
	}
	base := randomBytes(seed+3, streamMsg)
	stamp(base, 0, 0)
	r.bodySum = weightedSum(base)
	for i := range r.bufs {
		r.bufs[i] = bytes.Clone(base)
		r.msgs[i] = demi.NewSGA(r.bufs[i])
	}
	lqd, err := r.n.listen(echoPort)
	if err != nil {
		return nil, err
	}
	if r.cqd, err = r.n.connect(echoPort, nil); err != nil {
		return nil, err
	}
	if r.sqd, err = r.n.accept(lqd); err != nil {
		return nil, err
	}
	r.popQT, err = r.n.srv.Pop(r.sqd)
	return r, err
}

func (r *streamRig) step(p *pass) {
	cli, srv := r.n.cli, r.n.srv
	for r.open() {
		slot := r.sent % streamWindow
		s := p.begin()
		o := r.gen.next()
		r.salts[slot] = o.salt
		stamp(r.bufs[slot], r.sent, o.salt)
		p.end(spClient, s)
		now := p.clock()
		s = p.begin()
		qt, err := cli.Push(r.cqd, r.msgs[slot])
		p.end(spPush, s)
		if err != nil {
			r.fail("push %d: %v", r.sent, err)
			return
		}
		r.pushQT[slot] = qt
		r.push(now)
	}
	p.poll(spPollCli, cli)
	p.poll(spPollSrv, srv)
	r.receive(p)
	if r.overdue(p) {
		r.fail("message %d timed out after %v", r.delivered, opTimeout)
	}
}

// receive is the server application: take every message that has
// arrived, check it, free it and re-arm the pop.
func (r *streamRig) receive(p *pass) {
	cli, srv := r.n.cli, r.n.srv
	for {
		s := p.begin()
		c, ok, err := srv.TryWait(r.popQT)
		p.end(spTryWait, s)
		if err != nil {
			r.fail("server wait: %v", err)
			return
		}
		if !ok {
			return
		}
		if c.Err != nil {
			r.fail("message %d: %v", r.delivered, c.Err)
			return
		}
		slot := r.delivered % streamWindow
		s = p.begin()
		good := len(c.SGA.Segments) == 1 && len(c.SGA.Segments[0].Buf) == streamMsg
		if good && r.verify {
			// the header words carry weights 1 and 2 in weightedSum
			good = weightedSum(c.SGA.Segments[0].Buf) == r.bodySum+r.delivered+2*r.salts[slot]
		}
		c.SGA.Free()
		p.end(spClient, s)
		if !good {
			r.fail("message %d failed its sequence/checksum check", r.delivered)
			return
		}
		// Delivery implies the bytes left the send buffer, so the push
		// token must already be complete; consume it.
		if _, ok, err := cli.TryWait(r.pushQT[slot]); err != nil || !ok {
			r.fail("push %d not complete at delivery: ok=%v err=%v", r.delivered, ok, err)
			return
		}
		r.deliver(p, streamMsg, int64(c.Cost))
		s = p.begin()
		r.popQT, err = srv.Pop(r.sqd)
		p.end(spPop, s)
		if err != nil {
			r.fail("server pop: %v", err)
			return
		}
	}
}

// quiesce delivers what is in flight, then lets the ACKs drain. It runs
// outside the timed region: its deliveries land on a scratch pass.
func (r *streamRig) quiesce() error {
	scratch := &pass{t0: time.Now()}
	for i := 0; r.delivered < r.sent; i++ {
		r.n.cli.Poll()
		r.n.srv.Poll()
		r.receive(scratch)
		if r.err != nil {
			return r.err
		}
		if i > pumpLimit {
			return fmt.Errorf("stream never drained")
		}
	}
	return r.netRig.quiesce()
}
