// Package core implements the Demikernel system-call interface of
// Figure 3 in the paper: control-path calls (Socket, Bind, Listen,
// Accept, Connect, Close, Open, Create, Queue, Merge, Filter, Sort, Map,
// QConnect) and data-path calls (Push, Pop, Wait, WaitAny, WaitAll,
// BlockingPush, BlockingPop) over queue descriptors.
//
// The package is device-independent. Device specifics live in library
// OSes (internal/libos/...), each of which implements the Transport
// interface for one class of kernel-bypass accelerator, exactly as each
// Demikernel libOS targets one accelerator type (§4.1). The public facade
// for applications is the root package demikernel, which re-exports this
// API.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/netstack"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
	"demikernel/internal/uring"
)

// QD is a queue descriptor: what a file descriptor becomes when I/O is
// queues (§4.3: calls "which would previously return a file descriptor,
// now return a queue descriptor").
type QD int

// InvalidQD is returned by failing control-path calls.
const InvalidQD QD = -1

// Errors returned by the syscall layer.
var (
	ErrBadQD        = errors.New("demikernel: bad queue descriptor")
	ErrNotSupported = errors.New("demikernel: operation not supported by this libOS")
	ErrNotListening = errors.New("demikernel: not a listening queue")

	// ErrWaitTimeout is the sentinel for every Wait/WaitAny/WaitAll/
	// Accept/Connect deadline expiry. It is always wrapped with the
	// operation that timed out, so applications (and the chaos soak
	// tests) can distinguish "the peer is slow or gone" from a
	// transport-reported failure with errors.Is.
	ErrWaitTimeout = errors.New("demikernel: wait deadline exceeded")

	// ErrPeerDead reports that the remote endpoint of a connection is
	// gone: its libOS crashed, its retransmit budget ran out, or it reset
	// the connection. The paper's §3 warning made concrete — when a
	// kernel-bypass application dies, its TCP state dies with it, and the
	// *peer* libOS is the only OS left to diagnose the death. Transports
	// wrap their own diagnosis (netstack.ErrMaxRetransmits, a TCP RST,
	// catmint's QP loss) with this sentinel so applications can drive
	// failover with a single errors.Is check.
	ErrPeerDead = errors.New("demikernel: peer is dead")

	// ErrLocalReset reports that the *local* libOS stack was torn down
	// underneath the operation (Node.Crash, controller reset). Every
	// qtoken pending at crash time completes with this error — nothing
	// hangs, nothing leaks; the OS role of cleaning up after a dead
	// process (§3, Figure 2) reproduced in userspace.
	ErrLocalReset = errors.New("demikernel: local stack reset")
)

// timeoutErr wraps ErrWaitTimeout with the operation that expired.
func timeoutErr(op string, d time.Duration) error {
	return fmt.Errorf("demikernel: %s exceeded %v: %w", op, d, ErrWaitTimeout)
}

// Addr names a network endpoint. TCP-style transports use IP:Port;
// RDMA-style transports address by MAC:Port. Both fields are carried so
// one application Addr works across libOSes (§4.1 portability).
type Addr struct {
	IP   netstack.IPv4Addr
	MAC  fabric.MAC
	Port uint16
}

// String formats the address.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// Features describes which OS functionality a device class provides in
// hardware versus what the libOS must supply in software — the Table 1
// taxonomy, made machine-readable for the E2 experiment.
type Features struct {
	// KernelBypass is true for every kernel-bypass accelerator.
	KernelBypass bool
	// HWTransport: the device implements a reliable transport (RDMA).
	HWTransport bool
	// HWBufferMgmt: the device manages receive buffers itself.
	HWBufferMgmt bool
	// HWOffloads: the device can run filters/maps (FPGA/SoC class).
	HWOffloads bool
	// SoftwareSupplied lists the OS components this libOS had to
	// implement on the CPU to close the gap (§2).
	SoftwareSupplied []string
}

// Endpoint is a network queue endpoint provided by a Transport. It is a
// Demikernel I/O queue plus the POSIX-shaped control-path operations.
type Endpoint interface {
	queue.IoQueue
	Bind(addr Addr) error
	Listen() error
	// Accept returns a new endpoint for one pending connection, or
	// ok=false when none is pending.
	Accept() (Endpoint, bool, error)
	// Connect starts connecting; completion is observed via Connected.
	Connect(addr Addr) error
	Connected() bool
	// Err reports the endpoint's terminal transport failure, if any
	// (peer dead, retransmit budget exhausted, queue pair unrecoverable).
	// Nil while the endpoint is healthy. The syscall layer checks it so
	// control-path waits fail fast with the transport's own error
	// instead of spinning to the deadline.
	Err() error
	// LocalAddr reports the bound address.
	LocalAddr() Addr
}

// Transport is what each library OS implements for its accelerator.
type Transport interface {
	// Name identifies the libOS (catnap, catnip, catmint, catfish).
	Name() string
	// Features describes the hardware/software split (Table 1).
	Features() Features
	// Socket creates an unbound, stream-style network endpoint.
	Socket() (Endpoint, error)
	// SocketUDP creates an unbound datagram endpoint on transports with
	// a datagram path; others return ErrNotSupported.
	SocketUDP() (Endpoint, error)
	// Open opens a named file queue on storage transports.
	Open(path string) (queue.IoQueue, error)
	// AllocSGA allocates an n-byte single-segment SGA from
	// device-registered memory (§4.5: the libOS memory manager). The
	// fallback is plain heap memory.
	AllocSGA(n int) sga.SGA
	// Poll pumps the transport's data path once.
	Poll() int
}

// qdKind discriminates descriptor types.
type qdKind int

const (
	qdEndpoint qdKind = iota
	qdQueue           // plain or composed IoQueue (memory, file, filter...)
)

type qdesc struct {
	kind qdKind
	ep   Endpoint
	q    queue.IoQueue
	// composed marks a queue this libOS built over other queues: Poll
	// pumps q (see LibOS.composed).
	composed bool
}

func (d *qdesc) ioq() queue.IoQueue {
	if d.kind == qdEndpoint {
		return d.ep
	}
	return d.q
}

// LibOS is one Demikernel library-OS instance: a Transport plus the
// queue-descriptor table, the ring its qtokens are slots of, and the wait
// machinery. It is safe for concurrent use.
type LibOS struct {
	// tp is the active transport behind an atomic pointer: Poll reads
	// it lock-free on every tick, and SwapTransport (live libOS
	// switching) replaces it while operations are in flight. The cell
	// boxes the interface value because the concrete transport type
	// changes across a switch (catnap <-> catnip).
	tp    atomic.Pointer[transportCell]
	model *simclock.CostModel
	// tokens is the ring Push and Pop arm their operations on: a qtoken is
	// a slot of it. It is not among the attached rings (Rings), so neither
	// the uring.* sums nor a crash flush ever see a token operation.
	tokens *uring.Pair
	// spans is the qtoken span table, shared by tokens and every attached
	// ring.
	spans *telemetry.SpanTable

	// qds is the descriptor table, indexed by QD (nil: closed). get reads
	// it with two loads and no lock; writes are under mu, and a full table
	// is replaced by a copy twice its size. QDs are not reused, so it keeps
	// a slot for every descriptor ever opened.
	mu   sync.Mutex
	qds  atomic.Pointer[[]atomic.Pointer[qdesc]]
	next QD

	// composed is what Poll pumps besides the transport: the queues this
	// libOS built itself (Merge, Filter, Sort, Map), whose prefetch and
	// waiter machinery nothing else drives. Endpoints are the transport's
	// to service inside its own Poll, a file queue is pumped by the pushes
	// on its path, and a memory queue has no machinery, so the descriptor
	// table is never walked. Copy on write under mu, loaded lock-free on
	// every tick.
	composed atomic.Pointer[[]queue.IoQueue]

	// rings holds the attached completion rings (see uring.go), under mu:
	// nothing on the data path reads it.
	rings []*uring.Pair

	// WaitTimeout bounds every wait — Accept, Connect, Wait, WaitAny,
	// WaitAll and WaitAnyRing — on the node's clock. The default (5s)
	// exists so a lost completion fails loudly in tests instead of
	// hanging.
	WaitTimeout time.Duration
	clock       *simclock.Clock
}

// transportCell boxes the Transport interface for atomic publication.
type transportCell struct{ t Transport }

// New creates a libOS over the given transport, charging composed-queue
// costs against model and timing its waits by clock, the node's clock.
func New(t Transport, model *simclock.CostModel, clock *simclock.Clock) *LibOS {
	l := &LibOS{
		model:  model,
		clock:  clock,
		tokens: uring.NewPair(16), // grows with the tokens in flight
		// Named after the transport, so that traces from several libOSes
		// in one process are attributable.
		spans:       telemetry.NewSpanTable(t.Name()),
		next:        1,
		WaitTimeout: 5 * time.Second,
	}
	qds := make([]atomic.Pointer[qdesc], 16)
	l.qds.Store(&qds)
	l.tokens.SetSpans(l.spans)
	l.tp.Store(&transportCell{t: t})
	return l
}

// Clock returns the node's clock, which the libOS's waits read.
func (l *LibOS) Clock() *simclock.Clock { return l.clock }

// deadline is when a wait that starts now times out.
func (l *LibOS) deadline() int64 { return l.clock.UnixNano() + int64(l.WaitTimeout) }

// pollUntil polls the data path until ready reports true, yielding the
// processor between polls, and reports whether it did: false means the
// node's clock reached deadline first. It is the one loop every wait of
// the libOS runs.
func (l *LibOS) pollUntil(deadline int64, ready func() bool) bool {
	for !ready() {
		if l.clock.UnixNano() >= deadline {
			return false
		}
		l.Poll()
		runtime.Gosched()
	}
	return true
}

// PollFor polls the data path until the node's clock has moved d on: a
// pause that keeps the libOS running, and that a test stepping the
// clock ends.
func (l *LibOS) PollFor(d time.Duration) {
	l.pollUntil(l.clock.UnixNano()+int64(d), func() bool { return false })
}

// Transport returns the currently active transport.
func (l *LibOS) Transport() Transport { return l.tp.Load().t }

// SwapTransport makes t the active transport (live libOS switching). The
// descriptor table stays as it is, so every endpoint in it must be one of
// t's: Node.SwitchKind swaps between two transports over one set of
// endpoints.
func (l *LibOS) SwapTransport(t Transport) {
	l.tp.Store(&transportCell{t: t})
	l.spans.SetName(t.Name())
}

// Name returns the underlying libOS name.
func (l *LibOS) Name() string { return l.Transport().Name() }

// Features returns the transport's Table 1 feature description.
func (l *LibOS) Features() Features { return l.Transport().Features() }

// AllocSGA allocates from the libOS memory manager (§4.5).
func (l *LibOS) AllocSGA(n int) sga.SGA { return l.Transport().AllocSGA(n) }

// Spans exposes the per-queue qtoken span table (disabled by default;
// enable it to collect issue→complete→consume latency series).
func (l *LibOS) Spans() *telemetry.SpanTable { return l.spans }

// RegisterTelemetry lifts the libOS's observable state into a telemetry
// registry: its own queue machinery — the qtokens under prefix.completer
// (blocking waiters woken, tokens outstanding), the attached rings under
// prefix.uring — and, when the transport itself knows how to register
// (all in-tree transports do), the transport's device/stack counters
// under prefix.
func (l *LibOS) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	r.RegisterFunc(prefix+".completer.wakeups", func() int64 { return l.tokens.CountersSnapshot().Wakeups })
	r.RegisterFunc(prefix+".completer.outstanding", func() int64 { return l.tokens.CountersSnapshot().Tokens })
	l.registerRingTelemetry(r, prefix+".uring")
	if tr, ok := l.Transport().(interface {
		RegisterTelemetry(*telemetry.Registry, string)
	}); ok {
		tr.RegisterTelemetry(r, prefix)
	}
}

func (l *LibOS) insert(d *qdesc) QD {
	l.mu.Lock()
	defer l.mu.Unlock()
	qd := l.next
	l.next++
	qds := *l.qds.Load()
	if int(qd) == len(qds) {
		grown := make([]atomic.Pointer[qdesc], 2*len(qds))
		for i := range qds {
			grown[i].Store(qds[i].Load())
		}
		l.qds.Store(&grown)
		qds = grown
	}
	qds[qd].Store(d)
	if d.composed {
		qs := append(append([]queue.IoQueue(nil), l.composedQueues()...), d.q)
		l.composed.Store(&qs)
	}
	return qd
}

// insertComposed is insert for a queue built over other queues.
func (l *LibOS) insertComposed(q queue.IoQueue) QD {
	return l.insert(&qdesc{kind: qdQueue, q: q, composed: true})
}

func (l *LibOS) composedQueues() []queue.IoQueue {
	if qs := l.composed.Load(); qs != nil {
		return *qs
	}
	return nil
}

// slot returns qd's place in the descriptor table, nil if never issued.
func (l *LibOS) slot(qd QD) *atomic.Pointer[qdesc] {
	qds := *l.qds.Load()
	if qd <= 0 || int(qd) >= len(qds) {
		return nil
	}
	return &qds[qd]
}

func (l *LibOS) get(qd QD) (*qdesc, error) {
	if s := l.slot(qd); s != nil {
		if d := s.Load(); d != nil {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: %d", ErrBadQD, qd)
}

// --- control path: network (Figure 3, top-left) ---

// Socket creates a network queue endpoint and returns its descriptor.
func (l *LibOS) Socket() (QD, error) {
	ep, err := l.Transport().Socket()
	if err != nil {
		return InvalidQD, err
	}
	return l.insert(&qdesc{kind: qdEndpoint, ep: ep}), nil
}

// AdoptEndpoint registers a transport endpoint constructed outside the
// ordinary Socket path (e.g. a sharded libOS dialing from a chosen
// source port so RSS lands the flow on a specific peer shard) and
// returns its queue descriptor.
func (l *LibOS) AdoptEndpoint(ep Endpoint) QD {
	return l.insert(&qdesc{kind: qdEndpoint, ep: ep})
}

// EndpointOf returns the transport endpoint behind a socket queue
// descriptor, for transport-specific extensions (e.g. catmint's
// one-sided remote-memory operations).
func (l *LibOS) EndpointOf(qd QD) (Endpoint, error) {
	d, err := l.get(qd)
	if err != nil {
		return nil, err
	}
	if d.kind != qdEndpoint {
		return nil, ErrBadQD
	}
	return d.ep, nil
}

// SocketUDP creates a datagram queue endpoint. Datagrams are natural
// atomic units, so no stream framing is involved; each pushed SGA
// travels as one datagram.
func (l *LibOS) SocketUDP() (QD, error) {
	ep, err := l.Transport().SocketUDP()
	if err != nil {
		return InvalidQD, err
	}
	return l.insert(&qdesc{kind: qdEndpoint, ep: ep}), nil
}

// Bind binds a socket queue to a local address.
func (l *LibOS) Bind(qd QD, addr Addr) error {
	d, err := l.get(qd)
	if err != nil {
		return err
	}
	if d.kind != qdEndpoint {
		return ErrBadQD
	}
	return d.ep.Bind(addr)
}

// Listen marks a bound socket queue as accepting connections.
func (l *LibOS) Listen(qd QD) error {
	d, err := l.get(qd)
	if err != nil {
		return err
	}
	if d.kind != qdEndpoint {
		return ErrBadQD
	}
	return d.ep.Listen()
}

// Accept waits (control path, so blocking is acceptable) for one inbound
// connection and returns its queue descriptor.
func (l *LibOS) Accept(qd QD) (QD, error) {
	d, err := l.get(qd)
	if err != nil {
		return InvalidQD, err
	}
	if d.kind != qdEndpoint {
		return InvalidQD, ErrBadQD
	}
	var ep Endpoint
	if !l.pollUntil(l.deadline(), func() bool {
		var ok bool
		if ep, ok, err = d.ep.Accept(); err == nil && !ok {
			err = d.ep.Err()
		}
		return ok || err != nil
	}) {
		return InvalidQD, timeoutErr("accept", l.WaitTimeout)
	}
	if err != nil {
		return InvalidQD, err
	}
	return l.insert(&qdesc{kind: qdEndpoint, ep: ep}), nil
}

// TryAccept is the non-blocking accept used by event loops.
func (l *LibOS) TryAccept(qd QD) (QD, bool, error) {
	d, err := l.get(qd)
	if err != nil {
		return InvalidQD, false, err
	}
	if d.kind != qdEndpoint {
		return InvalidQD, false, ErrBadQD
	}
	ep, ok, err := d.ep.Accept()
	if err != nil || !ok {
		return InvalidQD, false, err
	}
	return l.insert(&qdesc{kind: qdEndpoint, ep: ep}), true, nil
}

// Connect connects a socket queue to a remote address, polling the data
// path until the connection establishes (control path; may block).
func (l *LibOS) Connect(qd QD, addr Addr) error {
	d, err := l.get(qd)
	if err != nil {
		return err
	}
	if d.kind != qdEndpoint {
		return ErrBadQD
	}
	if err := d.ep.Connect(addr); err != nil {
		return err
	}
	if !l.pollUntil(l.deadline(), func() bool {
		if d.ep.Connected() {
			return true
		}
		// The transport may diagnose the failure (SYN timeout, QP
		// error): report it instead of spinning to the deadline.
		err = d.ep.Err()
		return err != nil
	}) {
		return timeoutErr("connect", l.WaitTimeout)
	}
	return err
}

// Close tears down a queue descriptor.
func (l *LibOS) Close(qd QD) error {
	var d *qdesc
	l.mu.Lock()
	if s := l.slot(qd); s != nil {
		if d = s.Swap(nil); d != nil && d.composed {
			l.dropComposedLocked(d.q)
		}
	}
	l.mu.Unlock()
	if d == nil {
		return fmt.Errorf("%w: %d", ErrBadQD, qd)
	}
	return d.ioq().Close()
}

// dropComposedLocked takes q off the list Poll pumps.
func (l *LibOS) dropComposedLocked(q queue.IoQueue) {
	old := l.composedQueues()
	for i := range old {
		if old[i] == q {
			qs := append(append([]queue.IoQueue(nil), old[:i]...), old[i+1:]...)
			l.composed.Store(&qs)
			return
		}
	}
}

// --- control path: files (Figure 3, bottom-left) ---

// Open opens a named file queue (storage transports only).
func (l *LibOS) Open(path string) (QD, error) {
	q, err := l.Transport().Open(path)
	if err != nil {
		return InvalidQD, err
	}
	return l.insert(&qdesc{kind: qdQueue, q: q}), nil
}

// Create creates (or opens) a named file queue; with the log-structured
// store underneath, creation and open are the same operation.
func (l *LibOS) Create(path string) (QD, error) { return l.Open(path) }

// --- control path: queue composition (Figure 3, top-right) ---

// Queue creates a plain memory queue.
func (l *LibOS) Queue() QD {
	return l.insert(&qdesc{kind: qdQueue, q: queue.NewMemQueue(0)})
}

// Merge returns a queue combining qd1 and qd2: pops drain either, pushes
// land in both.
func (l *LibOS) Merge(qd1, qd2 QD) (QD, error) {
	d1, err := l.get(qd1)
	if err != nil {
		return InvalidQD, err
	}
	d2, err := l.get(qd2)
	if err != nil {
		return InvalidQD, err
	}
	return l.insertComposed(queue.NewMergeQueue(d1.ioq(), d2.ioq(), 0)), nil
}

// Filter returns a queue exposing only elements of qd that match fn.
// The libOS lowers the filter onto the device when the transport supports
// it and otherwise runs it on the CPU (§4.3); lowering is the business of
// transport-specific helpers (see internal/offload).
func (l *LibOS) Filter(qd QD, fn queue.FilterFunc) (QD, error) {
	d, err := l.get(qd)
	if err != nil {
		return InvalidQD, err
	}
	return l.insertComposed(queue.NewFilterQueue(d.ioq(), fn, l.model)), nil
}

// Sort returns a queue that pops elements of qd in priority order.
func (l *LibOS) Sort(qd QD, less queue.LessFunc) (QD, error) {
	d, err := l.get(qd)
	if err != nil {
		return InvalidQD, err
	}
	return l.insertComposed(queue.NewSortQueue(d.ioq(), less, 0)), nil
}

// Map returns a queue applying fn to every element crossing qd.
func (l *LibOS) Map(qd QD, fn queue.MapFunc) (QD, error) {
	d, err := l.get(qd)
	if err != nil {
		return InvalidQD, err
	}
	return l.insertComposed(queue.NewMapQueue(d.ioq(), fn, l.model)), nil
}

// QConnect plumbs qdin's pops into pushes on qdout; the forwarding runs
// inside Poll. It is how pipelines of queues are stitched together.
func (l *LibOS) QConnect(qdin, qdout QD) error {
	din, err := l.get(qdin)
	if err != nil {
		return err
	}
	dout, err := l.get(qdout)
	if err != nil {
		return err
	}
	forward(din.ioq(), dout.ioq())
	return nil
}

// forward pops in and pushes what it gets onto out, until a pop fails.
func forward(in, out queue.IoQueue) {
	in.Pop(func(c queue.Completion) {
		if c.Err != nil {
			return
		}
		out.Push(c.SGA, c.Cost, func(queue.Completion) {})
		forward(in, out)
	})
}

// --- data path (Figure 3, bottom) ---

// Push submits an SGA into a queue as one atomic element and returns a
// qtoken for its completion: a slot of the libOS's token ring, which the
// completion stays in until a wait reads it.
func (l *LibOS) Push(qd QD, s sga.SGA) (queue.QToken, error) {
	return l.PushCost(qd, s, 0)
}

// PushCost is Push carrying virtual application-compute cost already
// spent on the element (experiments use it to model the §3.2 2µs Redis
// request).
func (l *LibOS) PushCost(qd QD, s sga.SGA, cost simclock.Lat) (queue.QToken, error) {
	d, err := l.get(qd)
	if err != nil {
		return 0, err
	}
	qt, done := l.tokens.ArmToken(int32(qd))
	d.ioq().Push(s, cost, done)
	return qt, nil
}

// Pop requests the next element of a queue and returns a qtoken.
func (l *LibOS) Pop(qd QD) (queue.QToken, error) {
	d, err := l.get(qd)
	if err != nil {
		return 0, err
	}
	qt, done := l.tokens.ArmToken(int32(qd))
	d.ioq().Pop(done)
	return qt, nil
}

// Poll pumps the whole libOS data path once: transport, composed
// queues, and qconnect forwarding. The transport
// services every socket it handed out from work lists of its own, and a
// file queue is pumped by the pushes on its path, so the cost of a poll
// follows the work there is, not the number of descriptors open.
func (l *LibOS) Poll() int {
	n := l.Transport().Poll()
	for _, q := range l.composedQueues() {
		n += q.Pump()
	}
	return n
}

// Background starts a goroutine that pumps Poll continuously, yielding
// the processor when idle, and returns a function that stops it. A real
// Demikernel deployment dedicates a polling thread per libOS in exactly
// this shape; tests, examples, and experiments use it so that both ends
// of a connection make progress.
func (l *LibOS) Background() (stop func()) {
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			default:
			}
			if l.Poll() == 0 {
				time.Sleep(20 * time.Microsecond)
			} else {
				// On small GOMAXPROCS, yield so peer pollers and the
				// application goroutines interleave at poll granularity
				// instead of the scheduler's preemption interval.
				runtime.Gosched()
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}

// TryWait returns qt's completion if it has arrived (consuming the
// token), without polling.
func (l *LibOS) TryWait(qt queue.QToken) (queue.Completion, bool, error) {
	return l.tokens.TryWait(qt)
}

// Wait polls the data path until qt completes and returns its completion.
// Because "wait directly returns the data from the operation", a pop's
// SGA arrives here with no further call (§4.4). The wait is bounded by
// WaitTimeout.
func (l *LibOS) Wait(qt queue.QToken) (queue.Completion, error) {
	return l.waitUntil(qt, l.deadline())
}

func (l *LibOS) waitUntil(qt queue.QToken, deadline int64) (c queue.Completion, err error) {
	if !l.pollUntil(deadline, func() bool {
		var ok bool
		c, ok, err = l.tokens.TryWait(qt)
		return ok || err != nil
	}) {
		return queue.Completion{}, timeoutErr("wait", l.WaitTimeout)
	}
	return c, err
}

// WaitAny polls until any of the tokens completes; it returns the index
// of the winner and its completion. It is the queue-native replacement
// for an epoll loop (§4.4). Bounded by WaitTimeout.
//
// The token slice is scanned exactly once, to subscribe each token's slot;
// after that each completion notes its index, and each poll iteration
// takes a noted index in O(1) instead of re-probing all n tokens — with
// 1024 outstanding pops the rescan dominated the wait loop
// (BenchmarkWaitAnyFanIn).
func (l *LibOS) WaitAny(qts []queue.QToken) (int, queue.Completion, error) {
	deadline := l.deadline()
	var w uring.AnyWaiter
	i, err := l.tokens.SubscribeAny(&w, qts)
	defer l.tokens.UnsubscribeAny(&w, qts[:i])
	if err != nil {
		return i, queue.Completion{}, err
	}
	// i < len(qts): qts[i] had completed already, and the first in scan
	// order wins.
	if i == len(qts) && !l.pollUntil(deadline, func() bool {
		var ok bool
		i, ok = l.tokens.TakeAny(&w)
		return ok
	}) {
		return -1, queue.Completion{}, timeoutErr("wait-any", l.WaitTimeout)
	}
	c, ok, err := l.tokens.TryWait(qts[i])
	if err == nil && !ok {
		err = queue.ErrUnknownToken
	}
	return i, c, err
}

// WaitAll polls until every token completes, returning completions in
// token order: a wait for each token in turn, all under one WaitTimeout.
func (l *LibOS) WaitAll(qts []queue.QToken) ([]queue.Completion, error) {
	deadline := l.deadline()
	out := make([]queue.Completion, len(qts))
	for i, qt := range qts {
		c, err := l.waitUntil(qt, deadline)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// WaitChan subscribes a blocking waiter to qt: the channel delivers the
// completion and wakes exactly this one waiter (§4.4). The caller must
// keep another thread pumping Poll, as a scheduler-integrated Demikernel
// deployment would.
func (l *LibOS) WaitChan(qt queue.QToken) (<-chan queue.Completion, error) {
	return l.tokens.WaitChan(qt)
}

// BlockingPush is "identical to a push, followed by a wait on the
// returned qtoken" (Figure 3).
func (l *LibOS) BlockingPush(qd QD, s sga.SGA) (queue.Completion, error) {
	qt, err := l.Push(qd, s)
	if err != nil {
		return queue.Completion{}, err
	}
	return l.Wait(qt)
}

// BlockingPop is "identical to a pop, followed by a wait on the returned
// qtoken" (Figure 3).
func (l *LibOS) BlockingPop(qd QD) (queue.Completion, error) {
	qt, err := l.Pop(qd)
	if err != nil {
		return queue.Completion{}, err
	}
	return l.Wait(qt)
}
