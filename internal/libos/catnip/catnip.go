// Package catnip is the DPDK library OS: it implements the Demikernel
// queue abstraction over a raw kernel-bypass NIC (internal/nic), which —
// being a DPDK-class device — supplies nothing beyond descriptor rings.
// Everything else the paper lists as missing OS functionality is supplied
// here in user space: the TCP/IP stack (internal/netstack), buffer
// management (a fabric.FramePool behind every pool-backed SGA), and the
// scatter-gather framing that preserves atomic queue elements over a byte
// stream (§5.2).
//
// The name follows the open-source Demikernel convention (catnip is its
// DPDK libOS).
package catnip

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/fifo"
	"demikernel/internal/kernel"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// Transport is the catnip libOS transport.
type Transport struct {
	model *simclock.CostModel
	dev   *nic.Device
	// group, when non-nil, is the tenant queue group this transport is
	// bound to: a slice of a shared NIC instead of a whole device. port
	// is whichever of the two the stack actually drives — the data path
	// is identical either way (netstack.Device is satisfied by both).
	group *nic.QueueGroup
	port  netstack.Device
	// stackp holds the live netstack instance. It is an atomic pointer
	// because Restart swaps in a fresh stack while pollers may be
	// loading it; everything protocol-level lives behind it.
	stackp atomic.Pointer[netstack.Stack]
	// pool supplies every buffer the transport hands out — wire frames,
	// popped SGAs, AllocSGA — each one fabric.FrameBuf: the
	// process-wide default in a set of one, a private pool per shard in a
	// wider set, so the steady-state recycle path never crosses shard cache
	// lines.
	pool *fabric.FramePool
	// firedPool recycles the completion lists of pumps that fire more than
	// a handful at once; see fired.
	firedPool sync.Pool

	// Rebuild parameters, saved so Restart can construct a fresh stack
	// bound to the same device, queue, and shared neighbor table.
	cfg     Config
	rxQueue int
	neigh   *netstack.NeighborTable

	// crashed gates the whole data path: Poll checks it with ONE atomic
	// load and returns immediately while the transport is down. That
	// load is the entire steady-state cost of the lifecycle subsystem
	// when no fault is active.
	crashed atomic.Bool

	// rxStalls counts drain parks under RxReadyCap: each increment is
	// one transition of an endpoint into the "reader too slow, stop
	// draining" state. The operator's signal that clients are stalling.
	rxStalls atomic.Int64

	// mu is the shard lock. It is the lock of every stack built for this
	// shard (netstack.NewWithLock), so it outlives each of them, and it
	// guards the fields below and every endpoint's state too. A libOS entry
	// — Push, Pop, Pump, Poll, an Accept that finds a connection — takes it
	// once, and fires the completions it collected after letting go.
	mu *sync.Mutex

	// kern is nil on the bypass path. On the kernel path (catnap, or a node
	// SwitchKind demoted) it is the kernel whose prices the pump charges —
	// a syscall and a copy for every send and recv — while the stack pays
	// the kernel's per-packet tax; see SetKernel.
	kern *kernel.Kernel

	// prevStats accumulates the counters of dead stack incarnations so
	// StackStats (and telemetry) stay cumulative across crash/restart —
	// without it the frame-conservation laws would see NIC counters
	// keep climbing while stack counters reset to zero.
	prevStats netstack.Stats
	crashes   int64 // completed Crash calls (lifecycle telemetry)
	restarts  int64 // completed Restart calls

	// eps holds every open TCP endpoint at the index it remembers as slot
	// (Close swap-removes), udps every open datagram endpoint; Crash and
	// Restart walk them, Poll never does: a datagram endpoint is pumped when
	// PollReady reports its socket.
	eps  []*endpoint
	udps []*udpEndpoint
	// pump is the work list Poll serves instead of walking eps: the
	// endpoints marked since the last poll, each once (endpoint.marked),
	// in marking order. An endpoint is marked by whatever gives it work a
	// poll must finish — a pump that left frames behind a full send buffer,
	// a parked receive drain the reader has caught up on, and the stack
	// reporting its connection readable. A batched push or pop marks
	// nothing: its pump is its submitter's (queue.BatchIoQueue). pumpSpare
	// is the drained list of the previous poll, kept so that two slices
	// trade places and nothing is allocated; ready is PollReady's scratch.
	pump, pumpSpare []*endpoint
	ready           []any
}

// Config tunes the transport.
type Config struct {
	MAC fabric.MAC
	IP  netstack.IPv4Addr
	// PerPacketExtra is added to every packet's processing cost. Zero
	// for plain catnip; the E6 experiment sets it to the POSIX
	// emulation tax to model an mTCP-style stack.
	PerPacketExtra simclock.Lat
	// RTO overrides the stack's initial TCP retransmission timeout
	// (chaos tests shorten it so give-ups land inside the fault
	// window). Zero keeps the netstack default.
	RTO time.Duration
	// MaxRetransmits overrides the stack's consecutive-retransmit cap
	// before a connection gives up. Zero keeps the netstack default.
	MaxRetransmits int
	// Clock is the node's clock, which every shard's stack times its
	// timers by (nil: a fresh wall clock per stack).
	Clock *simclock.Clock
	// PoolFactory, when non-nil, supplies the frame pool each transport
	// (or shard) allocates from. The multi-tenant facade passes a
	// factory that tags the pool with the tenant's ID and wires its
	// quota ledger in as the pool accountant.
	PoolFactory func() *fabric.FramePool
	// RxReadyCap bounds how many popped-but-unharvested completions an
	// endpoint buffers before its receive drain parks. Past the cap,
	// stream bytes stay in the TCP receive buffer, the advertised
	// window shrinks toward zero, and the peer's sender stalls — so a
	// slow or stalled reader exerts end-to-end flow control instead of
	// growing an unbounded backlog. Zero means unbounded (the
	// historical behavior).
	RxReadyCap int
}

// New attaches a catnip instance (NIC + user stack + frame pool) to the
// fabric switch: the one shard of a set of one.
func New(model *simclock.CostModel, sw *fabric.Switch, cfg Config) *Transport {
	return NewSharded(model, sw, cfg, 1, 1).Shard(0)
}

// newTransport is the constructor behind every shard of every set: group
// nil means the transport owns (a queue of) the whole device; non-nil
// means it owns a queue of the tenant's slice. Binding the frame pool
// registers it with the device, once: a DPDK mempool registered at queue
// setup, so that no buffer is ever registered on the data path (§4.5).
func newTransport(model *simclock.CostModel, dev *nic.Device, group *nic.QueueGroup, cfg Config,
	rxQueue int, pool *fabric.FramePool, neigh *netstack.NeighborTable) *Transport {
	var port netstack.Device = dev
	if group != nil {
		port = group
	}
	dev.RegisterRegion(pool)
	t := &Transport{model: model, dev: dev, group: group, port: port, pool: pool,
		cfg: cfg, rxQueue: rxQueue, neigh: neigh, mu: new(sync.Mutex)}
	t.stackp.Store(t.buildStack())
	return t
}

// buildStack builds the transport a stack on its device, queue, neighbor
// table and shard lock; Restart gives a crashed transport a fresh one,
// under that lock.
func (t *Transport) buildStack() *netstack.Stack {
	return netstack.NewWithLock(t.model, t.port, netstack.Config{
		IP:             t.cfg.IP,
		PerPacketExtra: t.perPacketExtraLocked(),
		RTO:            t.cfg.RTO,
		MaxRetransmits: t.cfg.MaxRetransmits,
		RxQueue:        t.rxQueue,
		Pool:           t.pool,
		Neighbors:      t.neigh,
		Clock:          t.cfg.Clock,
	}, t.mu)
}

// Name implements core.Transport.
func (t *Transport) Name() string { return "catnip" }

// Features implements core.Transport: DPDK-class devices give only
// kernel bypass; the libOS supplies the whole stack (Table 1).
func (t *Transport) Features() core.Features {
	return core.Features{
		KernelBypass: true,
		HWOffloads:   true, // the simulated NIC has a filter table
		SoftwareSupplied: []string{
			"ethernet/arp", "ipv4", "tcp (retransmit, congestion control, flow control)",
			"buffer management", "sga framing",
		},
	}
}

// Device exposes the underlying NIC (for hardware filter offload).
func (t *Transport) Device() *nic.Device { return t.dev }

// Group exposes the tenant queue group the transport is bound to, or
// nil when it owns the whole device.
func (t *Transport) Group() *nic.QueueGroup { return t.group }

// Pool exposes the transport's frame pool (for tests and the chaos
// engine's hostile-tenant leak fault, which hoards frames from it).
func (t *Transport) Pool() *fabric.FramePool { return t.pool }

// Stack exposes the current user-level network stack (for stats). After
// a Restart this is the fresh incarnation; see StackStats for counters
// cumulative across incarnations.
func (t *Transport) Stack() *netstack.Stack { return t.stackp.Load() }

// StackStats returns the stack counters summed across every incarnation
// of this transport: the live stack plus everything folded in at each
// Crash. Conservation laws are stated against these.
func (t *Transport) StackStats() netstack.Stats {
	// Restart changes the base and the stack under one hold: read together,
	// they count each incarnation once.
	t.mu.Lock()
	prev, s := t.prevStats, t.Stack()
	t.mu.Unlock()
	return prev.Add(s.Stats())
}

// RegisterTelemetry lifts the transport's vertical above the NIC — user
// stack, rx_ready_stalls, and the crash/restart counts
// under prefix.lifecycle — into a telemetry registry under prefix.
// Netstack counters are registered through StackStats so they survive
// restarts. The NIC is the shard set's to register: its shards share it.
// (core.LibOS.RegisterTelemetry finds this method.)
func (t *Transport) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	netstack.RegisterStatsTelemetry(r, prefix+".netstack", t.StackStats)
	r.RegisterFunc(prefix+".lifecycle.crashes", func() int64 { n, _ := t.Lifetimes(); return n })
	r.RegisterFunc(prefix+".lifecycle.restarts", func() int64 { _, n := t.Lifetimes(); return n })
	r.RegisterFunc(prefix+".rx_ready_stalls", t.rxStalls.Load)
}

// RxStalls reports how many times an endpoint's receive drain parked on
// a full backlog (see Config.RxReadyCap).
func (t *Transport) RxStalls() int64 { return t.rxStalls.Load() }

// AllocSGA implements core.Transport: the buffer comes from the
// transport's frame pool, registered with the device when it was bound,
// and frees back into it. A tenant past its frame quota gets heap bytes
// instead, which push like any other. A buffer freed while a push of it is
// queued is recycled only once that push has ended (endpoint.push).
func (t *Transport) AllocSGA(n int) sga.SGA { return t.pool.SGA(n) }

// Open implements core.Transport; catnip has no storage path.
func (t *Transport) Open(string) (queue.IoQueue, error) {
	return nil, core.ErrNotSupported
}

// newEndpoint returns an endpoint of this transport, not yet in its table.
func (t *Transport) newEndpoint() *endpoint {
	e := &endpoint{t: t}
	e.framer.SetAlloc(t.pool.FrameAlloc)
	return e
}

// Socket implements core.Transport.
func (t *Transport) Socket() (core.Endpoint, error) {
	ep := t.newEndpoint()
	t.mu.Lock()
	t.adoptLocked(ep)
	t.mu.Unlock()
	return ep, nil
}

// SocketFrom is Socket with a fixed local source port: when the endpoint
// later Connects, the stack dials from that port instead of an ephemeral
// one. A sharded client uses it with nic.RSSQueueFlow to pick a source
// port whose RSS hash lands the flow on a chosen server shard — the
// client-side half of the paper's §3.1 flow-to-core partitioning.
func (t *Transport) SocketFrom(localPort uint16) (core.Endpoint, error) {
	ep, err := t.Socket()
	if err != nil {
		return nil, err
	}
	ep.(*endpoint).localPort = localPort
	return ep, nil
}

// wrapConnErr types a netstack terminal error with the core lifecycle
// sentinel, preserving the original for errors.Is: exhausted retransmit
// budgets, SYN timeouts, and peer RSTs all mean "the peer is dead" to
// the application driving failover, while crash-injected errors are
// already typed. Healthy (nil) errors pass through without allocating.
func wrapConnErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrPeerDead) || errors.Is(err, core.ErrLocalReset) {
		return err // already lifecycle-typed
	}
	if errors.Is(err, netstack.ErrMaxRetransmits) ||
		errors.Is(err, netstack.ErrConnectTimeout) ||
		errors.Is(err, netstack.ErrConnClosed) {
		return fmt.Errorf("%w: %w", core.ErrPeerDead, err)
	}
	return err
}

// errCrashed is the terminal error injected into every connection and
// qtoken pending when the local stack is crashed. One value for all
// victims: the crash path allocates nothing per operation.
var errCrashed = fmt.Errorf("catnip: stack crashed: %w", core.ErrLocalReset)

// Poll implements core.Transport: under one hold of the shard lock it
// pumps the user stack, then the endpoints on the pump list — those with
// work to finish, however many are open — and, the lock released, fires
// what completed. While the transport is crashed the body is skipped
// behind one atomic load, under the lock so that no poll runs on a stack
// Crash has shut down: the only cost the lifecycle subsystem adds to a
// healthy data path.
func (t *Transport) Poll() int {
	var (
		txArr  [4]txDone
		popArr [2]popDone
		spill  *fired
	)
	f := fired{tx: txArr[:0], pop: popArr[:0]}
	t.mu.Lock()
	if t.crashed.Load() {
		t.mu.Unlock()
		return 0
	}
	n, ready := t.Stack().PollReady(t.ready[:0])
	for i, owner := range ready {
		// A datagram endpoint has nothing to finish but the pops parked on
		// it, and nothing else marks it: it is pumped as it is reported.
		if u, ok := owner.(*udpEndpoint); ok {
			var k int
			f, spill, k = u.pumpLocked(f, spill)
			n += k
		} else {
			t.markLocked(owner.(*endpoint))
		}
		ready[i] = nil
	}
	t.ready = ready
	if len(t.pump) > 0 {
		// A pump that marks an endpoint, its own or another, puts it on the
		// next poll's list.
		batch := t.pump
		t.pump = t.pumpSpare
		for i, ep := range batch {
			ep.marked = false
			var k int
			f, spill, k = ep.pumpLocked(f, spill)
			n += k
			batch[i] = nil
		}
		t.pumpSpare = batch[:0]
	}
	t.mu.Unlock()
	t.fire(f, spill)
	return n
}

// markLocked puts ep on the pump list unless it is there already.
func (t *Transport) markLocked(ep *endpoint) {
	if !ep.marked {
		ep.marked = true
		t.pump = append(t.pump, ep)
	}
}

// WorkQueued reports the sizes of the four work lists a poll serves: the
// stack's timer heap, ready queue and held acknowledgements, and the pump
// list. All are zero on a transport at rest, whatever the number of open
// connections.
func (t *Transport) WorkQueued() (timers, ready, acks, pumps int) {
	timers, ready, acks = t.Stack().WorkQueued()
	t.mu.Lock()
	defer t.mu.Unlock()
	return timers, ready, acks, len(t.pump)
}

func (t *Transport) adoptLocked(ep *endpoint) {
	ep.slot = len(t.eps)
	t.eps = append(t.eps, ep)
}

// dropLocked takes a closed endpoint out of eps, moving the last one into
// its slot. It stays on the pump list, if it is there, until the poll that
// finds it with nothing left to flush.
func (t *Transport) dropLocked(ep *endpoint) {
	if ep.slot < 0 {
		return
	}
	last := len(t.eps) - 1
	t.eps[ep.slot] = t.eps[last]
	t.eps[ep.slot].slot = ep.slot
	t.eps[last] = nil
	t.eps = t.eps[:last]
	ep.slot = -1
}

// endpoint is one catnip socket queue: a TCP connection (or listener)
// carrying framed SGAs. Its state is under the shard lock (t.mu), except
// listener, which an accept loop reads without it.
type endpoint struct {
	t *Transport
	// slot is the endpoint's index in t.eps, -1 once dropped; marked is set
	// while it sits on t.pump.
	slot   int
	marked bool

	bound core.Addr
	// localPort, when nonzero, fixes the source port Connect dials from
	// (set by SocketFrom for shard-targeted flows).
	localPort uint16
	listener  atomic.Pointer[netstack.TCPListener]
	conn      *netstack.TCPConn
	framer    sga.Framer
	// rx is the pop side; its terminal error is the end of the stream or the
	// connection's error, once a pump has seen it.
	rx queue.PopSide
	// txq holds pushed SGAs not yet fully accepted by the TCP send buffer.
	txq fifo.Queue[txFrame]
	// rxStalled is set while the receive drain is parked on a full pop side
	// (RxReadyCap); pop marks the endpoint to resume the drain once the app
	// has harvested the backlog down to half the cap.
	rxStalled bool
	// dead, when non-nil, is the lifecycle-typed terminal error stamped
	// on this endpoint by a stack crash: every later push and connect
	// fails with it. Listener endpoints are exempt — they are re-armed on
	// Restart instead.
	dead error
}

// txFrame is one pushed SGA on its way into the TCP send buffer: the pump
// copies its wire encoding there straight from the segments, sent bytes of
// it so far. Until done fires the segments are the libOS's; a pool buffer
// under them is held against Free for as long (hold).
type txFrame struct {
	s    sga.SGA
	sent int
	cost simclock.Lat
	done queue.DoneFunc
	hold *fabric.FrameBuf
}

// release ends the hold on the memory of a frame that leaves txq unsent,
// before its done fires.
func (f *txFrame) release() {
	if f.hold != nil {
		f.hold.Release()
	}
}

// Bind implements core.Endpoint.
func (e *endpoint) Bind(addr core.Addr) error {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	e.bound = addr
	return nil
}

// LocalAddr implements core.Endpoint.
func (e *endpoint) LocalAddr() core.Addr {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	return e.bound
}

// Listen implements core.Endpoint.
func (e *endpoint) Listen() error {
	e.t.mu.Lock()
	port := e.bound.Port
	e.t.mu.Unlock()
	l, err := e.t.Stack().ListenTCP(port)
	if err != nil {
		return err
	}
	e.listener.Store(l)
	return nil
}

// Accept implements core.Endpoint. An empty backlog costs two loads and
// no lock: an event loop asks on every step.
func (e *endpoint) Accept() (core.Endpoint, bool, error) {
	l := e.listener.Load()
	if l == nil {
		return nil, false, core.ErrNotListening
	}
	if l.Pending() == 0 {
		return nil, false, nil
	}
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	conn, ok := l.AcceptHeld()
	if !ok {
		return nil, false, nil
	}
	child := e.t.newEndpoint()
	child.conn = conn
	e.t.adoptLocked(child)
	conn.Held().SetOwner(child)
	return child, true, nil
}

// Connect implements core.Endpoint.
func (e *endpoint) Connect(addr core.Addr) error {
	e.t.mu.Lock()
	localPort := e.localPort
	dead := e.dead
	e.t.mu.Unlock()
	if dead != nil {
		return dead
	}
	conn, err := e.t.Stack().DialTCPFrom(localPort, addr.IP, addr.Port)
	if err != nil {
		return err
	}
	e.t.mu.Lock()
	e.conn = conn
	conn.Held().SetOwner(e)
	e.t.mu.Unlock()
	return nil
}

// Connected implements core.Endpoint.
func (e *endpoint) Connected() bool {
	e.t.mu.Lock()
	conn := e.conn
	e.t.mu.Unlock()
	return conn != nil && conn.Established()
}

// Err implements core.Endpoint: it surfaces a terminal failure detected
// by the user-level TCP stack (dead peer after the retransmission budget
// is spent, or a connect that never completed). Healthy endpoints return
// nil.
func (e *endpoint) Err() error {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	if e.dead != nil {
		return e.dead
	}
	if e.conn == nil {
		return nil
	}
	return wrapConnErr(e.conn.Held().Err())
}

// Push implements queue.IoQueue: the SGA is queued by reference and its
// wire encoding copied into the TCP send buffer by the pump; the completion
// fires when that buffer has taken the last byte. From Push until then the
// segments belong to the libOS — the application must not write to or reuse
// them (§4.5). On the bypass path no payload copy is charged: the device
// DMAs from the send buffer (§3.2's zero-copy path). On the kernel path
// (SetKernel) each send the pump makes pays a syscall and a copy.
func (e *endpoint) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	e.push(s, cost, done, true)
}

// PushBatched implements queue.BatchIoQueue: Push with the Pump left to
// the caller. LibOS.SubmitBatch stages a whole burst of pushes this way
// and then pumps once, so the burst goes through one coalesced flush —
// MSS-sized segments instead of one small segment per push.
func (e *endpoint) PushBatched(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	e.push(s, cost, done, false)
}

// push queues s for the next flush, which is the rest of this call when
// pump is set. A pool-backed SGA — from AllocSGA, or popped — is held while
// the frame is queued, so that a Free in that window defers instead of
// recycling bytes the pump has yet to read; heap memory the garbage
// collector keeps alive anyway.
func (e *endpoint) push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc, pump bool) {
	e.t.mu.Lock()
	err := e.pushErrLocked()
	if err == nil {
		f := txFrame{s: s, cost: cost, done: done}
		if f.hold, _ = s.Reg.(*fabric.FrameBuf); f.hold != nil {
			f.hold.Retain()
		}
		e.txq.Push(f)
		if pump {
			e.pumpUnlock()
			return
		}
	}
	e.t.mu.Unlock()
	if err != nil {
		done(queue.Completion{Kind: queue.OpPush, Err: err})
	}
}

// pushErrLocked is the error a push fails with right now: the crash
// stamp if there is one, else ErrClosed on a closed or unconnected
// endpoint, else nil.
func (e *endpoint) pushErrLocked() error {
	if e.dead != nil {
		return e.dead
	}
	if e.rx.Closed() || e.conn == nil {
		return queue.ErrClosed
	}
	return nil
}

// Pop implements queue.IoQueue.
func (e *endpoint) Pop(done queue.DoneFunc) { e.pop(done, true) }

// PopBatched implements queue.BatchIoQueue: Pop with the Pump left to the
// caller. A parked pop always needs that pump: data that arrived while
// nobody waited was reported by the stack then, and is not reported
// again.
func (e *endpoint) PopBatched(done queue.DoneFunc) { e.pop(done, false) }

// pop answers done at once, as the pop side does, or parks it and, when
// pump is set, goes on to read the connection for it. A pop that brings a
// parked drain's backlog low enough has the next poll resume the drain.
func (e *endpoint) pop(done queue.DoneFunc, pump bool) {
	e.t.mu.Lock()
	c, ok := e.rx.Pop(done)
	if !ok && pump {
		e.pumpUnlock()
		return
	}
	if ok && e.resumableLocked() {
		e.t.markLocked(e)
	}
	e.t.mu.Unlock()
	if ok {
		done(c)
	}
}

// resumableLocked reports a parked receive drain whose backlog the reader
// has brought down to half the cap (the hysteresis keeps a merely slow
// reader from thrashing stall/resume).
func (e *endpoint) resumableLocked() bool {
	return e.rxStalled && e.rx.Held() <= e.t.cfg.RxReadyCap/2
}

// Pump implements queue.IoQueue: it flushes pending frames into the TCP
// send buffer and drains received bytes through the framer into whole
// SGAs — each half only when it has work: frames queued, or a pop waiting
// or a parked drain the reader has caught up on. A push therefore does not
// read the connection and a pop does not flush it, and a pump that no
// qtoken could come of does nothing: that is the case of a connection the
// stack reported readable while nobody waits on it, whose bytes stay in the
// TCP receive buffer, under the advertised window, until the next pop
// pumps for them.
func (e *endpoint) Pump() int {
	e.t.mu.Lock()
	return e.pumpUnlock()
}

// txDone and popDone are completions recorded under the shard lock and
// fired after it is released: a DoneFunc may come back into the endpoint
// (QConnect's forwarder pops from inside one), and a burst of them costs
// one lock round trip instead of one each.
type txDone struct {
	done queue.DoneFunc
	hold *fabric.FrameBuf // the frame's, let go as it fires
	cost simclock.Lat
	err  error
}

type popDone struct {
	done queue.DoneFunc
	c    queue.Completion
}

// fired is what one hold of the shard lock completed, pushes then pops, to
// fire once the lock is free. Its lists start on arrays in the frame of
// whoever took the lock (an echo fires one completion a pump) and move to a
// spill from Transport.firedPool when a burst outgrows them. They travel by
// value: stored through a pointer, the arrays would move to the heap.
type fired struct {
	tx  []txDone
	pop []popDone
}

// room reports whether f takes nTx more push and nPop more pop completions
// without its appends allocating; reserve makes the room when it does not.
func (f fired) room(nTx, nPop int) bool {
	return len(f.tx)+nTx <= cap(f.tx) && len(f.pop)+nPop <= cap(f.pop)
}

// reserve moves f's lists into sp, taken from the pool if nil.
func (t *Transport) reserve(f fired, sp *fired, nTx, nPop int) (fired, *fired) {
	needTx, needPop := len(f.tx)+nTx, len(f.pop)+nPop
	if sp == nil {
		if sp, _ = t.firedPool.Get().(*fired); sp == nil {
			sp = new(fired)
		}
	}
	if needTx > cap(f.tx) {
		if cap(sp.tx) < needTx {
			sp.tx = make([]txDone, 0, max(needTx, 2*cap(sp.tx)))
		}
		f.tx = append(sp.tx[:0], f.tx...)
	}
	if needPop > cap(f.pop) {
		if cap(sp.pop) < needPop {
			sp.pop = make([]popDone, 0, max(needPop, 2*cap(sp.pop)))
		}
		f.pop = append(sp.pop[:0], f.pop...)
	}
	return f, sp
}

// fire runs what a hold of the shard lock completed, after its release,
// and hands a spill back to the pool.
func (t *Transport) fire(f fired, sp *fired) {
	for i := range f.tx {
		d := &f.tx[i]
		if d.hold != nil {
			d.hold.Release() // the ring has its copy: a deferred Free goes through
		}
		d.done(queue.Completion{Kind: queue.OpPush, Cost: d.cost, Err: d.err})
	}
	for i := range f.pop {
		f.pop[i].done(f.pop[i].c)
	}
	if sp != nil {
		clear(f.tx) // drop the references before pooling
		clear(f.pop)
		t.firedPool.Put(sp)
	}
}

// pumpUnlock is Pump entered with the shard lock held — by Push with its
// frame queued, by Pop with its pop parked, by Pump with neither. It
// returns bytes sent plus SGAs decoded.
func (e *endpoint) pumpUnlock() int {
	var (
		txArr  [4]txDone
		popArr [2]popDone
	)
	f, spill, n := e.pumpLocked(fired{tx: txArr[:0], pop: popArr[:0]}, nil)
	e.t.mu.Unlock()
	e.t.fire(f, spill)
	return n
}

// pumpLocked is the one body of every data-path call, run under the shard
// lock: it flushes, drains through the pop side, and looks at the
// connection's error, recording what completed in f (spilling to sp) for
// its caller to fire. It returns f, sp and bytes sent plus SGAs decoded.
func (e *endpoint) pumpLocked(f fired, sp *fired) (fired, *fired, int) {
	conn := e.conn
	doTx := e.txq.Len() > 0
	doRx := e.rx.Parked() > 0 || e.resumableLocked()
	if conn == nil || !(doTx || doRx) {
		return f, sp, 0
	}
	n := 0
	// failErr is the end of the stream (EOF, or bytes that are no frame) or
	// a dead connection, once this pump has seen one.
	var failErr error
	h := conn.Held()
	kern := e.t.kern
	if doTx {
		// The whole queued burst coalesces into MSS-sized segments at the
		// single FlushSend below, so 32 small pushes cost ~2 segments of
		// per-segment work, not 32.
		if !f.room(e.txq.Len(), 0) {
			f, sp = e.t.reserve(f, sp, e.txq.Len(), 0)
		}
		var pre [12]byte
		for e.txq.Len() > 0 {
			tf := e.txq.Front()
			if kern != nil {
				// send(2): a crossing, and a copy of all the frame has left
				// to send, however much of it the buffer takes.
				tf.cost += kern.Syscall(tf.s.MarshalledSize() - tf.sent)
			}
			var err error
			piece := tf.s.WirePiece(tf.sent, &pre)
			for len(piece) > 0 {
				var sent int
				sent, err = h.SendBuffered(piece, tf.cost)
				tf.sent += sent
				n += sent
				if sent < len(piece) {
					break // an error, or the TCP send buffer is full
				}
				piece = tf.s.WirePiece(tf.sent, &pre)
			}
			if err == nil && len(piece) > 0 {
				break // full: carry on from tf.sent on a later pump
			}
			if err != nil {
				f.tx = append(f.tx, txDone{done: tf.done, hold: tf.hold, err: wrapConnErr(err)})
			} else {
				f.tx = append(f.tx, txDone{done: tf.done, hold: tf.hold, cost: tf.cost})
			}
			e.txq.Pop()
		}
		if n > 0 {
			h.FlushSend()
		}
	}
	if doRx {
		// The framer copies the stream bytes from where they lie in the
		// receive ring to their place in the buffer the application gets;
		// the lock keeps two concurrent pumps from interleaving their bytes
		// into it out of order. Each whole frame goes to the oldest parked
		// pop, or is held. A drain stops at the frame that fills the pop
		// side's cap: the reader is too slow, and the bytes left in the TCP
		// receive buffer shrink the advertised window, which pushes the stall
		// back to the peer's sender — flow control end to end instead of an
		// unbounded backlog.
		readyCap := e.t.cfg.RxReadyCap
		parked := false
		if k := e.rx.Parked(); !f.room(0, k) { // the most this pump completes
			f, sp = e.t.reserve(f, sp, 0, k)
		}
		for failErr = e.framer.Err(); failErr == nil; {
			if parked = readyCap > 0 && e.rx.Held() >= readyCap; parked {
				break
			}
			first, second, cost, err := h.RecvSpans()
			if kern != nil && len(first) == 0 {
				kern.Syscall(0) // a recv(2) that finds nothing crosses too
			}
			if err == io.EOF {
				failErr = queue.ErrClosed
				break
			}
			if err != nil || len(first) == 0 {
				break
			}
			avail, taken := len(first)+len(second), 0
			servedMark, heldMark := len(f.pop), e.rx.Held()
		spans:
			for _, p := range [2][]byte{first, second} {
				for len(p) > 0 {
					k, s, ok, ferr := e.framer.Write(p, avail-taken)
					p = p[k:]
					taken += k
					if failErr = ferr; ferr != nil {
						break spans
					}
					if ok {
						c := queue.Completion{Kind: queue.OpPop, SGA: s, Cost: cost}
						if w, served := e.rx.Deliver(c); served {
							f.pop = append(f.pop, popDone{done: w, c: c})
						}
						n++
						if readyCap > 0 && e.rx.Held() >= readyCap {
							break spans // park with the rest where it lies
						}
					}
				}
			}
			// Once per pass: it can bring stashed segments into the ring and
			// send a window update, after which the spans are stale.
			h.RecvDiscard(taken)
			if kern != nil {
				// recv(2): a crossing and a copy of the bytes taken, on the
				// cost of every frame they completed, served or held.
				kc := kern.Syscall(taken)
				for i := servedMark; i < len(f.pop); i++ {
					f.pop[i].c.Cost += kc
				}
				for i := heldMark; i < e.rx.Held(); i++ {
					e.rx.HeldAt(i).Cost += kc
				}
			}
		}
		if parked && !e.rxStalled {
			e.t.rxStalls.Add(1)
		}
		e.rxStalled = parked
	}
	if connErr := h.Err(); connErr != nil {
		// The stack declared the connection dead (max retransmits, connect
		// timeout, reset). Every outstanding qtoken must complete with the
		// typed error rather than hang until the Wait deadline: the flush
		// above has failed every queued frame with it, the parked pops follow
		// below. (Nothing was read under this hold, so none of them is
		// served ahead of the error.)
		failErr = wrapConnErr(connErr)
	} else if e.txq.Len() > 0 {
		// Send buffer full, and nothing reports when ACKs make room: try
		// again on every poll until the frames are through.
		e.t.markLocked(e)
	}
	if failErr != nil {
		// The pop side's terminal error from now on. It fails the pops parked
		// (none is while a frame is held), so an EOF that lands in the same
		// drain as the final request bytes is not reordered ahead of them.
		d := e.rx.Fail(failErr)
		for _, w := range d.Pops {
			f.pop = append(f.pop, popDone{done: w, c: queue.Completion{Kind: queue.OpPop, Err: d.Err}})
		}
	}
	return f, sp, n
}

// Close implements queue.IoQueue. The frames nobody popped go back to their
// pool, and the pops still parked fail with ErrClosed.
func (e *endpoint) Close() error {
	e.t.mu.Lock()
	if e.rx.Closed() {
		e.t.mu.Unlock()
		return nil
	}
	dropped := e.rx.Close()
	conn, l := e.conn, e.listener.Load()
	// A closed endpoint reads no more: a frame half decoded gives its buffer
	// back, and a parked drain is never resumed.
	e.framer.Reset()
	e.rxStalled = false
	if conn != nil {
		conn.Held().SetOwner(nil) // nobody reads it any more
	}
	e.t.dropLocked(e)
	e.t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if l != nil {
		l.Close()
	}
	dropped.Settle()
	return nil
}
