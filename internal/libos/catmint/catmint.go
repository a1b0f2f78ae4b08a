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
	"sync"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
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

// Failure-path errors (all surfaced through qtoken completions, never by
// hanging a Wait):
var (
	// ErrQPBroken is carried by completions whose work requests were
	// flushed when the queue pair errored. The endpoint may still
	// recover: the dialing side tears the QP down and redials with
	// exponential backoff.
	ErrQPBroken = errors.New("catmint: queue pair errored")
	// ErrOpTimeout is the dead-peer detector: an operation stayed
	// inflight past OpTimeout, so the peer (or the path to it) is gone.
	ErrOpTimeout = errors.New("catmint: operation timed out (dead peer)")
	// ErrPeerDead is terminal: the reconnect budget is exhausted and the
	// endpoint will not recover.
	ErrPeerDead = errors.New("catmint: peer unreachable (reconnect budget exhausted)")
	// ErrReconnecting rejects pushes while a redial is in progress;
	// callers retry after the endpoint reports Connected again.
	ErrReconnecting = errors.New("catmint: reconnect in progress")
)

// Reconnect policy defaults.
const (
	// DefaultOpTimeout bounds how long a send-side work request may stay
	// inflight before the libOS declares the peer dead. Healthy
	// completions take microseconds of polling; two seconds only ever
	// expires when the peer stopped answering.
	DefaultOpTimeout = 2 * time.Second
	// DefaultMaxReconnects bounds redial attempts per outage.
	DefaultMaxReconnects = 6
	// DefaultReconnectBackoff is the first redial delay; it doubles on
	// every failed attempt.
	DefaultReconnectBackoff = 2 * time.Millisecond
)

// Config tunes the transport.
type Config struct {
	MAC fabric.MAC
	// OpTimeout overrides DefaultOpTimeout (chaos tests shorten it so
	// dead peers are detected quickly). Negative disables the detector.
	OpTimeout time.Duration
	// MaxReconnects overrides DefaultMaxReconnects.
	MaxReconnects int
	// ReconnectBackoff overrides DefaultReconnectBackoff.
	ReconnectBackoff time.Duration
}

// Transport is the catmint libOS transport.
type Transport struct {
	model *simclock.CostModel
	dev   *rdma.Device
	pd    *rdma.PD
	scq   *rdma.CQ
	rcq   *rdma.CQ
	cfg   Config

	mu       sync.Mutex
	pool     []*slot // free slots
	arenas   int
	byQPN    map[uint32]*endpoint
	pending  map[uint64]*pendingOp // wrID -> op
	nextWRID uint64
	eps      []*endpoint
	// epsSnap caches the endpoint list for Poll; rebuilt (as a fresh
	// slice, safe against a concurrent Poll still iterating the old
	// one) only when an endpoint is added.
	epsSnap  []*endpoint
	epsDirty bool
	// stats
	stagedCopies int64
	zeroCopyTx   int64
	reconnects   int64
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
	onWC   func(rdma.WC)
	isRead bool
	// deadline, when non-zero, is the dead-peer detector: Transport.Poll
	// expires the op with ErrOpTimeout once the deadline passes. Only
	// send-side ops carry deadlines; posted receives legitimately sit
	// idle forever.
	deadline time.Time
}

// New attaches a catmint instance to the fabric switch.
func New(model *simclock.CostModel, sw *fabric.Switch, cfg Config) *Transport {
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	if cfg.MaxReconnects <= 0 {
		cfg.MaxReconnects = DefaultMaxReconnects
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = DefaultReconnectBackoff
	}
	dev := rdma.New(model, sw, cfg.MAC)
	t := &Transport{
		model:   model,
		dev:     dev,
		pd:      dev.AllocPD(),
		cfg:     cfg,
		byQPN:   make(map[uint32]*endpoint),
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

// Reconnects reports how many QP redials the transport has performed.
func (t *Transport) Reconnects() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reconnects
}

// OpTimeouts reports operations expired by the dead-peer detector.
func (t *Transport) OpTimeouts() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opTimeouts
}

// RegisterTelemetry lifts the transport's counters — its own libOS-layer
// stats plus the RDMA device's — into a telemetry registry under prefix.
func (t *Transport) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	t.dev.RegisterTelemetry(r, prefix+".rnic")
	r.RegisterFunc(prefix+".staged_copies", t.StagedCopies)
	r.RegisterFunc(prefix+".zero_copy_tx", t.ZeroCopyTx)
	r.RegisterFunc(prefix+".reconnects", t.Reconnects)
	r.RegisterFunc(prefix+".op_timeouts", t.OpTimeouts)
	r.RegisterFunc(prefix+".arenas", func() int64 { return int64(t.Arenas()) })
}

// allocSlot pops a free slot, registering a new arena when the pool is
// dry (one registration per arena: the §4.5 amortisation).
func (t *Transport) allocSlot() *slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.allocSlotLocked()
}

func (t *Transport) allocSlotLocked() *slot {
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
	ep := &endpoint{t: t}
	t.mu.Lock()
	t.eps = append(t.eps, ep)
	t.epsDirty = true
	t.mu.Unlock()
	return ep, nil
}

// pollSnapshot returns the cached endpoint list, rebuilding it only
// when the set changed, so steady-state polling does not allocate.
func (t *Transport) pollSnapshot() []*endpoint {
	t.mu.Lock()
	if t.epsDirty {
		t.epsSnap = append(make([]*endpoint, 0, len(t.eps)), t.eps...)
		t.epsDirty = false
	}
	eps := t.epsSnap
	t.mu.Unlock()
	return eps
}

// Poll implements core.Transport: pump the device, stage inbound
// connections, and route completions.
func (t *Transport) Poll() int {
	n := t.dev.Poll()

	// Stage inbound connections eagerly: the libOS (not the
	// application) posts the receive window and signals readiness, so a
	// peer that connects and immediately pushes never hits RNR — the
	// buffer-management burden §2 describes, carried by the libOS.
	eps := t.pollSnapshot()
	for _, ep := range eps {
		n += ep.stageAccepts()
	}

	for _, wc := range t.rcq.Poll(0) {
		n++
		t.handleRecv(wc)
	}
	for _, wc := range t.scq.Poll(0) {
		n++
		t.handleSendComp(wc)
	}

	// Failure handling: expire dead-peer ops, then drive per-endpoint
	// recovery (teardown + redial with backoff).
	n += t.checkDeadlines()
	eps = t.pollSnapshot() // accepts above may have adopted endpoints
	for _, ep := range eps {
		n += ep.checkQP()
	}

	for _, ep := range eps {
		ep.serveWaiters()
	}
	return n
}

// checkDeadlines is the dead-peer detector: any send-side work request
// inflight past its deadline completes with ErrOpTimeout and breaks its
// queue pair, which starts the reconnect machinery. A peer behind a
// downed link never NAKs, so without this the op would hang forever.
func (t *Transport) checkDeadlines() int {
	now := time.Now()
	t.mu.Lock()
	var expired []*pendingOp
	for id, op := range t.pending {
		if !op.deadline.IsZero() && now.After(op.deadline) {
			delete(t.pending, id)
			expired = append(expired, op)
		}
	}
	t.opTimeouts += int64(len(expired))
	t.mu.Unlock()
	for _, op := range expired {
		if op.slot != nil {
			t.freeSlot(op.slot)
		}
		if op.onWC != nil {
			op.onWC(rdma.WC{Status: rdma.StatusQPError})
		} else if op.done != nil {
			op.done(queue.Completion{Kind: op.kind, Err: ErrOpTimeout})
		}
		if op.ep != nil {
			op.ep.breakQP()
		}
	}
	return len(expired)
}

func (t *Transport) handleRecv(wc rdma.WC) {
	t.mu.Lock()
	op, ok := t.pending[wc.WRID]
	if ok {
		delete(t.pending, wc.WRID)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	ep := op.ep
	if wc.Status != rdma.StatusSuccess {
		// Flushed or failed receive: recycle the slot and record one
		// typed error for the endpoint instead of queueing an error
		// completion per posted buffer (a QP error flushes the whole
		// receive window at once).
		t.freeSlot(op.slot)
		err := error(ErrQPBroken)
		if wc.Status != rdma.StatusQPError {
			err = fmt.Errorf("catmint: recv failed: %v", wc.Status)
		}
		ep.recvError(err)
		return
	}
	// Keep the configured number of receives posted.
	ep.postRecv()
	data := op.slot.bytes()[:wc.Len]
	if wc.Len == 1 && data[0] == readyByte {
		t.freeSlot(op.slot)
		ep.markReady()
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
	t.mu.Lock()
	op, ok := t.pending[wc.WRID]
	if ok {
		delete(t.pending, wc.WRID)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	if op.onWC != nil {
		// One-sided operation: the callback may need the slot's bytes
		// (reads), so it runs before the slot recycles.
		op.onWC(wc)
		if op.slot != nil {
			t.freeSlot(op.slot)
		}
		return
	}
	if op.slot != nil {
		t.freeSlot(op.slot)
	}
	if op.done == nil {
		return // fire-and-forget (the ready marker)
	}
	c := queue.Completion{Kind: queue.OpPush, Cost: op.cost + wc.Cost}
	switch wc.Status {
	case rdma.StatusSuccess:
	case rdma.StatusQPError:
		c.Err = ErrQPBroken // typed: caller may retry after reconnect
	default:
		c.Err = fmt.Errorf("catmint: send failed: %v", wc.Status)
	}
	op.done(c)
}

func (t *Transport) newWRID(op *pendingOp) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Send-side work requests get a dead-peer deadline; posted receives
	// (kind OpPop without a one-sided callback) wait indefinitely.
	if t.cfg.OpTimeout > 0 && (op.kind == queue.OpPush || op.onWC != nil) {
		op.deadline = time.Now().Add(t.cfg.OpTimeout)
	}
	t.nextWRID++
	t.pending[t.nextWRID] = op
	return t.nextWRID
}

func (t *Transport) adopt(ep *endpoint, qpn uint32) {
	t.mu.Lock()
	t.eps = append(t.eps, ep)
	t.epsDirty = true
	t.byQPN[qpn] = ep
	t.mu.Unlock()
}

// endpoint is one catmint socket queue over an RDMA queue pair.
type endpoint struct {
	t *Transport

	mu       sync.Mutex
	bound    core.Addr
	listener *rdma.Listener
	qp       *rdma.QP
	ready    []queue.Completion
	waiters  []queue.DoneFunc
	acceptQ  []*endpoint // staged inbound connections (listeners only)
	isReady  bool        // connection fully usable (ready marker seen / sent)
	accepted bool
	closed   bool

	// Failure / recovery state.
	remote       core.Addr // peer address (dialing side only)
	dialer       bool      // this side called Connect and may redial
	reconnecting bool      // old QP torn down, redial pending or inflight
	redialAt     time.Time // earliest time the next redial may fire
	attempts     int       // redials since the last healthy connection
	epErr        error     // terminal failure; nil while healthy/recovering
	popErr       error     // one-shot error for the next pop (QP flush)
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
	e.mu.Lock()
	defer e.mu.Unlock()
	l, err := e.t.dev.Listen(e.bound.Port, e.t.pd, e.t.scq, e.t.rcq)
	if err != nil {
		return err
	}
	e.listener = l
	return nil
}

// stageAccepts drains the device-level backlog into fully initialised
// endpoints (receive window posted, ready marker sent). Called from
// Transport.Poll so staging never waits for the application.
func (e *endpoint) stageAccepts() int {
	e.mu.Lock()
	l := e.listener
	e.mu.Unlock()
	if l == nil {
		return 0
	}
	n := 0
	for {
		qp, ok := l.Accept()
		if !ok {
			return n
		}
		child := &endpoint{t: e.t, qp: qp, isReady: true, accepted: true}
		e.t.adopt(child, qp.Num())
		for i := 0; i < DefaultPostedRecvs; i++ {
			child.postRecv()
		}
		child.sendReadyMarker()
		e.mu.Lock()
		e.acceptQ = append(e.acceptQ, child)
		e.mu.Unlock()
		n++
	}
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
	e.remote = addr
	e.dialer = true
	e.mu.Unlock()
	e.t.adopt(e, qp.Num())
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

// Err implements core.Endpoint: non-nil once the endpoint has failed for
// good (reconnect budget exhausted, or a server-side QP died — only the
// dialing side knows the address to redial).
func (e *endpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epErr
}

func (e *endpoint) markReady() {
	e.mu.Lock()
	e.isReady = true
	e.attempts = 0 // healthy again: reset the reconnect budget
	e.reconnecting = false
	e.popErr = nil // errors of the dead incarnation die with it
	e.mu.Unlock()
}

// breakQP tears the endpoint's queue pair down after a failure and arms
// the redial timer (dialing side) or records the terminal error (server
// side). Safe to call repeatedly.
func (e *endpoint) breakQP() {
	e.mu.Lock()
	qp := e.qp
	if qp == nil || e.closed || e.reconnecting || e.epErr != nil {
		e.mu.Unlock()
		return
	}
	e.qp = nil
	e.isReady = false
	// The broken incarnation's undelivered data dies with it: a response
	// whose request already failed must not be served to a later pop
	// (classic off-by-one desync). Slots recycle; the stream restarts
	// clean after the redial.
	stale := e.ready
	e.ready = nil
	e.popErr = nil
	if e.dialer {
		e.reconnecting = true
		backoff := e.t.cfg.ReconnectBackoff << e.attempts
		e.redialAt = time.Now().Add(backoff)
	} else {
		// The accepting side cannot redial (the dialer owns the
		// address); the connection is gone for good. The application's
		// accept loop will pick up the replacement connection.
		e.epErr = ErrQPBroken
	}
	e.mu.Unlock()
	for _, c := range stale {
		c.SGA.Free()
	}
	qp.Destroy() // flushes remaining WRs; completions surface via CQs
	if err := e.Err(); err != nil {
		e.failWaiters(err)
	} else {
		e.failWaiters(ErrReconnecting)
	}
}

// checkQP drives failure detection and recovery for one endpoint from
// Transport.Poll: notice errored QPs, and fire pending redials once
// their backoff expires.
func (e *endpoint) checkQP() int {
	e.mu.Lock()
	qp := e.qp
	closed := e.closed
	reconnecting := e.reconnecting
	redialAt := e.redialAt
	e.mu.Unlock()
	if closed {
		return 0
	}
	if !reconnecting && qp != nil && qp.Errored() {
		e.breakQP()
		return 1
	}
	if !reconnecting || time.Now().Before(redialAt) {
		return 0
	}
	return e.redial()
}

// redial dials a replacement QP, or gives up with ErrPeerDead once the
// attempt budget is spent. The endpoint counts attempts from the moment
// the redial fires; success is only declared when the peer's ready
// marker arrives (markReady), which also resets the budget.
func (e *endpoint) redial() int {
	e.mu.Lock()
	if e.closed || e.epErr != nil || !e.reconnecting {
		e.mu.Unlock()
		return 0
	}
	if e.attempts >= e.t.cfg.MaxReconnects {
		e.epErr = ErrPeerDead
		e.reconnecting = false
		e.mu.Unlock()
		e.failWaiters(ErrPeerDead)
		return 0
	}
	e.attempts++
	attempt := e.attempts
	remote := e.remote
	old := e.qp
	e.qp = nil
	e.mu.Unlock()
	if old != nil {
		old.Destroy() // previous redial attempt died too
	}

	qp := e.t.dev.NewQP(e.t.pd, e.t.scq, e.t.rcq)
	e.mu.Lock()
	e.qp = qp
	// Arm the next backoff now: if this attempt dies too, checkQP
	// redials after the (doubled) delay without extra bookkeeping.
	e.redialAt = time.Now().Add(e.t.cfg.ReconnectBackoff << attempt)
	e.mu.Unlock()
	e.t.mu.Lock()
	e.t.reconnects++
	e.t.byQPN[qp.Num()] = e
	e.t.mu.Unlock()
	for i := 0; i < DefaultPostedRecvs; i++ {
		e.postRecv()
	}
	qp.Connect(remote.MAC, remote.Port) // after the window is posted, as in Connect
	return 1
}

// recvError records a flushed/failed receive: waiting pops fail now;
// otherwise one error completion is held for the next pop so a single QP
// flush does not flood the ready queue.
func (e *endpoint) recvError(err error) {
	e.mu.Lock()
	ws := e.waiters
	e.waiters = nil
	if len(ws) == 0 {
		e.popErr = err
	}
	e.mu.Unlock()
	for _, w := range ws {
		w(queue.Completion{Kind: queue.OpPop, Err: err})
	}
}

func (e *endpoint) failWaiters(err error) {
	e.mu.Lock()
	ws := e.waiters
	e.waiters = nil
	e.mu.Unlock()
	for _, w := range ws {
		w(queue.Completion{Kind: queue.OpPop, Err: err})
	}
}

func (e *endpoint) sendReadyMarker() {
	sl := e.t.allocSlot()
	sl.bytes()[0] = readyByte
	wrID := e.t.newWRID(&pendingOp{kind: queue.OpPush, ep: e, slot: sl})
	e.qp.PostSend(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: 1})
}

// postRecv posts one pool slot as a receive buffer.
func (e *endpoint) postRecv() {
	e.mu.Lock()
	qp := e.qp
	closed := e.closed
	e.mu.Unlock()
	if qp == nil || closed || qp.Errored() {
		return
	}
	sl := e.t.allocSlot()
	wrID := e.t.newWRID(&pendingOp{kind: queue.OpPop, ep: e, slot: sl})
	if err := qp.PostRecv(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: SlotSize}); err != nil {
		e.t.freeSlot(sl)
	}
}

// Push implements queue.IoQueue.
func (e *endpoint) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	e.mu.Lock()
	qp := e.qp
	closed := e.closed
	epErr := e.epErr
	reconnecting := e.reconnecting
	e.mu.Unlock()
	switch {
	case closed:
		done(queue.Completion{Kind: queue.OpPush, Err: queue.ErrClosed})
		return
	case epErr != nil:
		done(queue.Completion{Kind: queue.OpPush, Err: epErr})
		return
	case reconnecting:
		done(queue.Completion{Kind: queue.OpPush, Err: ErrReconnecting})
		return
	case qp == nil:
		done(queue.Completion{Kind: queue.OpPush, Err: queue.ErrClosed})
		return
	}
	size := s.MarshalledSize()
	if size > SlotSize {
		done(queue.Completion{Kind: queue.OpPush, Err: ErrMessageTooBig})
		return
	}
	sl := e.t.allocSlot()
	buf := s.AppendMarshal(sl.bytes()[:0])

	// Zero-copy accounting: if every segment came from the registered
	// pool the device gathers in place; otherwise the staging into the
	// slot is a real copy and is charged.
	if registered(s) {
		e.t.mu.Lock()
		e.t.zeroCopyTx++
		e.t.mu.Unlock()
	} else {
		e.t.mu.Lock()
		e.t.stagedCopies++
		e.t.mu.Unlock()
		cost += e.t.model.CopyCost(s.Len())
	}

	wrID := e.t.newWRID(&pendingOp{kind: queue.OpPush, ep: e, slot: sl, done: done, cost: cost})
	if err := qp.PostSend(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: len(buf)}); err != nil {
		e.t.mu.Lock()
		delete(e.t.pending, wrID)
		e.t.mu.Unlock()
		e.t.freeSlot(sl)
		if errors.Is(err, rdma.ErrQPState) {
			// The queue pair errored after the check above, before the
			// next poll saw it: what a send it flushed would report.
			err = ErrQPBroken
		}
		done(queue.Completion{Kind: queue.OpPush, Err: err})
	}
}

// registered reports whether every segment of s lives in pool memory.
func registered(s sga.SGA) bool {
	if s.Reg == nil {
		return false
	}
	_, ok := s.Reg.(*slot)
	return ok
}

// Pop implements queue.IoQueue.
func (e *endpoint) Pop(done queue.DoneFunc) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
		return
	}
	if len(e.ready) > 0 {
		c := e.ready[0]
		e.ready = e.ready[1:]
		e.mu.Unlock()
		done(c)
		return
	}
	if e.popErr != nil {
		err := e.popErr
		e.popErr = nil
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: err})
		return
	}
	if e.epErr != nil {
		err := e.epErr
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: err})
		return
	}
	if e.reconnecting {
		// No QP exists while the redial is in flight, so nothing can
		// arrive: fail fast rather than queue a waiter that would
		// outlive the outage and steal the first post-heal delivery.
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: ErrReconnecting})
		return
	}
	e.waiters = append(e.waiters, done)
	e.mu.Unlock()
}

func (e *endpoint) deliver(c queue.Completion) {
	e.mu.Lock()
	e.ready = append(e.ready, c)
	e.mu.Unlock()
	e.serveWaiters()
}

func (e *endpoint) serveWaiters() {
	for {
		e.mu.Lock()
		if len(e.waiters) == 0 || len(e.ready) == 0 {
			e.mu.Unlock()
			return
		}
		w := e.waiters[0]
		e.waiters = e.waiters[1:]
		c := e.ready[0]
		e.ready = e.ready[1:]
		e.mu.Unlock()
		w(c)
	}
}

// Pump implements queue.IoQueue; completion routing happens centrally in
// Transport.Poll.
func (e *endpoint) Pump() int { return 0 }

// Close implements queue.IoQueue.
func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	ws := e.waiters
	e.waiters = nil
	l := e.listener
	e.mu.Unlock()
	if l != nil {
		l.Close() // or the port stays bound to a listener nobody accepts from
	}
	for _, w := range ws {
		w(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
	}
	return nil
}
