// Package queue implements the Demikernel I/O queue abstraction (§4.2,
// §4.3, §4.4 of the paper): queues whose atomic element is a
// scatter-gather array, non-blocking push/pop operations that return
// qtokens, completion delivery that wakes exactly one waiter per
// operation, and the queue composition operators merge, filter, sort and
// map.
//
// The package is transport-agnostic: a queue backed by application memory
// (MemQueue) lives here; queues backed by simulated kernel-bypass devices
// are provided by the libOS packages (internal/libos/...), all satisfying
// IoQueue. The composition operators wrap any IoQueue.
package queue

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// QToken identifies one outstanding queue operation. "Each qtoken is
// unique to a single queue operation", which is what lets different
// threads wait on different tokens instead of sharing a descriptor.
type QToken uint64

// OpKind says whether a completion belongs to a push or a pop.
type OpKind int

// Operation kinds.
const (
	OpPush OpKind = iota
	OpPop
)

// Errors used across queue implementations.
var (
	ErrClosed       = errors.New("queue: closed")
	ErrFiltered     = errors.New("queue: element rejected by filter")
	ErrUnknownToken = errors.New("queue: unknown or already-consumed qtoken")
	ErrTokenClaimed = errors.New("queue: token already has a waiter")
)

// Completion is the result of one queue operation.
type Completion struct {
	Token QToken
	Kind  OpKind
	// SGA carries the popped element (pops only).
	SGA sga.SGA
	// Err is non-nil when the operation failed.
	Err error
	// Cost is the accumulated virtual latency of the operation's path.
	Cost simclock.Lat
}

// DoneFunc receives a queue operation's completion. Implementations of
// IoQueue must invoke it exactly once per operation, either inline or
// from a later Pump.
type DoneFunc func(Completion)

// IoQueue is the interface every Demikernel queue implements.
//
// Push and Pop are asynchronous: they accept the operation and invoke
// done when it completes. Pump advances any internal machinery (device
// polling, composition plumbing); leaf queues with no machinery return 0.
type IoQueue interface {
	// Push submits one scatter-gather array as an atomic element. cost
	// is the virtual latency the caller has already accumulated
	// (application compute, upstream queue stages).
	Push(s sga.SGA, cost simclock.Lat, done DoneFunc)
	// Pop requests the next atomic element.
	Pop(done DoneFunc)
	// Pump makes progress on internal machinery and reports how much
	// work it performed.
	Pump() int
	// Close shuts the queue down; outstanding and future operations
	// complete with ErrClosed.
	Close() error
}

// BatchIoQueue is the optional batched face of an IoQueue: PushBatched
// and PopBatched stage the operation without advancing the queue's
// machinery, so a caller issuing a burst (LibOS.SubmitBatch) can stage
// every operation first and pay the pump — TX segmentation, RX sweep —
// once for the whole burst instead of once per op. The caller owes the
// queue one Pump after the last operation it staged; nothing else will
// make that progress for it.
type BatchIoQueue interface {
	PushBatched(s sga.SGA, cost simclock.Lat, done DoneFunc)
	PopBatched(done DoneFunc)
}

// completerShards is the number of token-table shards. Sixteen keeps the
// modulo a mask-friendly power of two while making same-lock collisions
// between concurrent completions rare at any realistic thread count.
const completerShards = 16

// maxFreeStates bounds each shard's tokenState freelist so a burst of
// outstanding tokens does not pin memory forever; overflow goes to GC.
const maxFreeStates = 1024

// Completer is the token table: it allocates qtokens, records
// completions, and wakes exactly one waiter per completion (§4.4).
// It is safe for concurrent use.
//
// The table is sharded by token so parallel queues completing on
// different shards never contend, and completions can optionally be
// published to a ready list (EnableReadyList) so an event loop dispatches
// in O(ready) instead of probing every pending token.
//
// The publish path is allocation-free in steady state: token states are
// recycled through per-shard freelists, and each state carries its own
// pre-bound DoneFunc, so NewToken → done → TryWait costs 0 allocs/op
// once the freelists are warm (the BenchmarkHotPath_Completer fence).
// Hot atomics and the shard array entries are padded to cache-line size
// so shards running on different cores never write-share a line.
type Completer struct {
	next atomic.Uint64
	_    [56]byte //nolint:unused // pad: next is written on every NewToken
	// wakeups feeds the E5 experiment.
	wakeups atomic.Int64
	_       [56]byte //nolint:unused // pad
	spans   *telemetry.SpanTable
	shards  [completerShards]completerShard

	// Ready list, opt-in: without a consumer it would grow without
	// bound, so nothing is recorded until EnableReadyList.
	trackReady atomic.Bool
	readyMu    sync.Mutex
	ready      []QToken
}

type completerShard struct {
	mu      sync.Mutex
	pending map[QToken]*tokenState
	free    []*tokenState // recycled token states (LIFO for cache warmth)
	// pad the 40 bytes above out to a 64-byte cache line so adjacent
	// shards in the array never write-share a line.
	_ [24]byte //nolint:unused
}

// tokenState is the per-token table entry. States are recycled through
// the owning shard's freelist: the back-pointers (c, home) and the
// doneFn closure are bound once at first allocation and reused across
// every token the state subsequently represents, which is what makes the
// completion publish path allocation-free. While a state sits on the
// freelist its qt is zero, so a DoneFunc invoked twice for the same
// operation (a contract violation — IoQueue implementations must call
// done exactly once) is dropped rather than corrupting a live token.
type tokenState struct {
	c    *Completer      // immutable after first allocation
	home *completerShard // immutable: states never migrate shards
	// doneFn is the reusable completion closure handed out by
	// NewTokenFor; it resolves the current qt under the shard lock.
	doneFn DoneFunc

	qt   QToken // current token, 0 while on the freelist
	done bool
	// published marks that the token has already been appended to the
	// ready list, so the EnableReadyList sweep and a racing complete()
	// never double-publish it.
	published bool
	qd        int32 // owning queue descriptor (-1 when unattributed)
	comp      Completion
	ch        chan Completion // non-nil once a blocking waiter subscribed
	// notify, when non-nil, is an any-of waiter to ping on completion
	// (WaitAny's O(1)-per-completion dispatch; see anywaiter.go).
	notify *AnyWaiter
	// span carries the wall-clock stage stamps while qtoken spans are
	// enabled; nil (no allocation) otherwise.
	span *spanStamps
}

type spanStamps struct {
	issueNS  int64
	submitNS int64
	doneNS   int64
}

// NewCompleter returns an empty token table.
func NewCompleter() *Completer {
	c := &Completer{spans: telemetry.NewSpanTable("completer")}
	for i := range c.shards {
		c.shards[i].pending = make(map[QToken]*tokenState)
	}
	return c
}

func (c *Completer) shard(qt QToken) *completerShard {
	return &c.shards[uint64(qt)%completerShards]
}

// Spans exposes the completer's qtoken span table. Spans are disabled by
// default; observability surfaces call Spans().Enable() to start
// stamping operations (see internal/telemetry).
func (c *Completer) Spans() *telemetry.SpanTable { return c.spans }

// NewToken allocates a fresh token in the pending state and returns it
// along with the DoneFunc that completes it.
func (c *Completer) NewToken() (QToken, DoneFunc) {
	return c.NewTokenFor(-1)
}

// NewTokenFor is NewToken with queue-descriptor attribution: qd labels
// the operation's latency series when qtoken spans are enabled (the
// syscall layer passes the QD; transports that allocate tokens
// internally use NewToken).
//
// Steady state performs no allocation: the token state (including its
// DoneFunc closure) comes from the shard's freelist.
func (c *Completer) NewTokenFor(qd int32) (QToken, DoneFunc) {
	qt := QToken(c.next.Add(1)) // starts at 1: qt 0 means "on freelist"
	sh := c.shard(qt)
	sh.mu.Lock()
	var st *tokenState
	if n := len(sh.free); n > 0 {
		st = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		st = &tokenState{c: c, home: sh}
		st.doneFn = func(comp Completion) { st.c.completeState(st, comp) }
	}
	st.qt = qt
	st.qd = qd
	if c.spans.Enabled() {
		st.span = &spanStamps{issueNS: time.Now().UnixNano()}
	}
	sh.pending[qt] = st
	sh.mu.Unlock()
	return qt, st.doneFn
}

// recycle scrubs a consumed token state and returns it to its home
// shard's freelist. Callers must have copied everything they need out of
// st first (comp, span) — after this call the state may immediately be
// reissued as a new token.
func (c *Completer) recycle(st *tokenState) {
	sh := st.home
	sh.mu.Lock()
	sh.recycleLocked(st)
	sh.mu.Unlock()
}

func (sh *completerShard) recycleLocked(st *tokenState) {
	st.qt = 0
	st.done = false
	st.published = false
	st.qd = 0
	st.comp = Completion{}
	st.ch = nil
	st.notify = nil
	st.span = nil
	if len(sh.free) < maxFreeStates {
		sh.free = append(sh.free, st)
	}
}

// MarkSubmit stamps the device-submit stage of qt's span: the libOS
// calls it once the operation has been handed to the device-side queue
// machinery. A no-op (one atomic load) while spans are disabled, and on
// tokens that completed inline and were already consumed.
func (c *Completer) MarkSubmit(qt QToken) {
	if !c.spans.Enabled() {
		return
	}
	now := time.Now().UnixNano()
	sh := c.shard(qt)
	sh.mu.Lock()
	if st, ok := sh.pending[qt]; ok && st.span != nil && st.span.submitNS == 0 {
		st.span.submitNS = now
	}
	sh.mu.Unlock()
}

// recordSpan folds a consumed token's stage stamps into the span table.
// Called after the token has left the pending table (or will never be
// observed again), so st is owned by the caller — no lock is needed.
func (c *Completer) recordSpan(st *tokenState, consumeNS int64) {
	if st.span == nil || !c.spans.Enabled() {
		return
	}
	c.spans.Record(telemetry.SpanRecord{
		QD:        st.qd,
		Kind:      int(st.comp.Kind),
		Err:       st.comp.Err != nil,
		IssueNS:   st.span.issueNS,
		SubmitNS:  st.span.submitNS,
		DoneNS:    st.span.doneNS,
		ConsumeNS: consumeNS,
		VirtCost:  st.comp.Cost,
	})
}

// completeState records a completion directly against its token state —
// no map lookup; the DoneFunc closure owns the pointer. A stale call
// (state already consumed and back on the freelist, qt == 0) or a double
// completion (st.done) is a contract violation by the invoking IoQueue
// and is dropped.
func (c *Completer) completeState(st *tokenState, comp Completion) {
	sh := st.home
	sh.mu.Lock()
	qt := st.qt
	if qt == 0 || st.done {
		sh.mu.Unlock()
		return // stale/double completion is an implementation bug; tolerate
	}
	comp.Token = qt
	st.done = true
	st.comp = comp
	if st.span != nil {
		st.span.doneNS = time.Now().UnixNano()
	}
	ch := st.ch
	notify := st.notify
	publish := false
	if ch != nil {
		// A blocking waiter subscribed: hand off and consume the
		// token. Exactly this one waiter wakes.
		delete(sh.pending, qt)
		c.wakeups.Add(1)
	} else if c.trackReady.Load() {
		// Publication is decided (and the token marked) under the shard
		// lock, so the EnableReadyList sweep — which scans under the
		// same lock — can never double-publish a token this completion
		// already claimed, and vice versa.
		st.published = true
		publish = true
	}
	sh.mu.Unlock()
	if ch != nil {
		// The channel handoff deliberately happens outside the shard
		// lock: the channel has capacity 1 and exactly one completion is
		// ever delivered per token (the st.done guard above), so the
		// send cannot block and needs no lock. Delivery through the
		// channel is also the waiter's consume moment. The state is
		// recycled before the send — comp is a local copy.
		if st.span != nil {
			c.recordSpan(st, st.span.doneNS)
		}
		c.recycle(st)
		ch <- comp
		return
	}
	if publish {
		c.readyMu.Lock()
		c.ready = append(c.ready, qt)
		c.readyMu.Unlock()
	}
	if notify != nil {
		// Outside the shard lock (the waiter has its own mutex and no
		// lock ordering with shards). The token stays pending: the
		// waiter consumes it with TryWait.
		notify.push(qt)
	}
}

// EnableReadyList turns on ready-token tracking. Event loops call it
// once; completions that arrive without a blocking waiter are then
// recorded for TakeReady.
//
// Enabling also sweeps tokens that completed *before* the call (or while
// a waiter subscription raced) into the ready list, so an event loop
// attached to an already-running libOS cannot permanently miss
// done-but-unconsumed tokens. Idempotent: the per-token published flag
// makes the sweep and racing completions publish each token exactly
// once.
func (c *Completer) EnableReadyList() {
	c.trackReady.Store(true)
	var swept []QToken
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for qt, st := range sh.pending {
			if st.done && st.ch == nil && !st.published {
				st.published = true
				swept = append(swept, qt)
			}
		}
		sh.mu.Unlock()
	}
	if len(swept) > 0 {
		c.readyMu.Lock()
		c.ready = append(c.ready, swept...)
		c.readyMu.Unlock()
	}
}

// TakeReady appends all currently ready (completed, unconsumed, no
// blocking waiter) tokens to dst and clears the internal list, keeping
// its backing storage. Tokens may have been consumed by a direct waiter
// since being recorded; consumers must tolerate ErrUnknownToken.
func (c *Completer) TakeReady(dst []QToken) []QToken {
	c.readyMu.Lock()
	dst = append(dst, c.ready...)
	c.ready = c.ready[:0]
	c.readyMu.Unlock()
	return dst
}

// Done peeks at a token without consuming it: done reports whether its
// completion has arrived, exists whether the token is still in the table
// at all.
func (c *Completer) Done(qt QToken) (done, exists bool) {
	sh := c.shard(qt)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.pending[qt]
	if !ok {
		return false, false
	}
	return st.done, true
}

// TryWait returns the completion for qt if it has arrived, consuming the
// token. ok is false while the operation is still outstanding.
// Unknown or already-consumed tokens return ErrUnknownToken.
func (c *Completer) TryWait(qt QToken) (Completion, bool, error) {
	sh := c.shard(qt)
	sh.mu.Lock()
	st, ok := sh.pending[qt]
	if !ok {
		sh.mu.Unlock()
		return Completion{}, false, ErrUnknownToken
	}
	if !st.done {
		sh.mu.Unlock()
		return Completion{}, false, nil
	}
	delete(sh.pending, qt)
	comp := st.comp
	if st.span != nil {
		// Recording reads the clock and takes the span table's lock: not
		// under the shard's.
		sh.mu.Unlock()
		c.recordSpan(st, time.Now().UnixNano())
		c.recycle(st)
		return comp, true, nil
	}
	sh.recycleLocked(st) // a token lives on its state's home shard
	sh.mu.Unlock()
	return comp, true, nil
}

// WaitChan subscribes the calling thread to qt's completion. The channel
// receives exactly one Completion; the token is consumed at delivery.
// Only one waiter may subscribe per token — the abstraction that removes
// epoll's thundering herd. If the completion already arrived, it is
// delivered immediately through the channel.
func (c *Completer) WaitChan(qt QToken) (<-chan Completion, error) {
	sh := c.shard(qt)
	sh.mu.Lock()
	st, ok := sh.pending[qt]
	if !ok {
		sh.mu.Unlock()
		return nil, ErrUnknownToken
	}
	if st.ch != nil {
		sh.mu.Unlock()
		return nil, ErrTokenClaimed
	}
	ch := make(chan Completion, 1)
	st.ch = ch
	if st.done {
		delete(sh.pending, qt)
		c.wakeups.Add(1)
		sh.mu.Unlock()
		comp := st.comp
		if st.span != nil {
			c.recordSpan(st, time.Now().UnixNano())
		}
		c.recycle(st)
		ch <- comp
		return ch, nil
	}
	sh.mu.Unlock()
	return ch, nil
}

// Outstanding returns the number of pending, unconsumed tokens.
func (c *Completer) Outstanding() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.pending)
		sh.mu.Unlock()
	}
	return n
}

// Wakeups returns the number of blocking-waiter wakeups delivered. Every
// one of them had a completion attached: by construction there are no
// wasted wakeups to count.
func (c *Completer) Wakeups() int64 { return c.wakeups.Load() }

// ReadyLen reports how many tokens currently sit in the ready list (for
// observability; may include tokens a direct waiter has since consumed).
func (c *Completer) ReadyLen() int {
	c.readyMu.Lock()
	defer c.readyMu.Unlock()
	return len(c.ready)
}

// RegisterTelemetry lifts the completer's counters into a telemetry
// registry under prefix: wakeups delivered, tokens outstanding, and the
// ready-list depth.
func (c *Completer) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	r.RegisterFunc(prefix+".wakeups", c.Wakeups)
	r.RegisterFunc(prefix+".outstanding", func() int64 { return int64(c.Outstanding()) })
	r.RegisterFunc(prefix+".ready", func() int64 { return int64(c.ReadyLen()) })
}

// MemQueue is an in-memory Demikernel queue: the object behind the plain
// queue() syscall. Elements pass by reference — pushing and popping never
// copies payload bytes. It is safe for concurrent use.
type MemQueue struct {
	mu       sync.Mutex
	elems    []elem
	waiters  []DoneFunc // pending pops, FIFO
	pushWait []pushReq  // pushes stalled on capacity, FIFO
	capacity int
	closed   bool
}

type elem struct {
	s    sga.SGA
	cost simclock.Lat
}

type pushReq struct {
	e    elem
	done DoneFunc
}

// DefaultMemQueueCap bounds a memory queue when no capacity is given.
const DefaultMemQueueCap = 1024

// NewMemQueue creates a memory queue holding up to capacity elements
// (0 means DefaultMemQueueCap).
func NewMemQueue(capacity int) *MemQueue {
	if capacity <= 0 {
		capacity = DefaultMemQueueCap
	}
	return &MemQueue{capacity: capacity}
}

// Push implements IoQueue. If a pop is already waiting, the element is
// handed over directly (rendezvous); otherwise it is buffered. When the
// queue is at capacity the push completion is deferred until space frees,
// which is the queue-level backpressure devices give via ring occupancy.
func (q *MemQueue) Push(s sga.SGA, cost simclock.Lat, done DoneFunc) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		done(Completion{Kind: OpPush, Err: ErrClosed})
		return
	}
	e := elem{s: s, cost: cost}
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.mu.Unlock()
		done(Completion{Kind: OpPush, Cost: cost})
		w(Completion{Kind: OpPop, SGA: s, Cost: cost})
		return
	}
	if len(q.elems) >= q.capacity {
		q.pushWait = append(q.pushWait, pushReq{e: e, done: done})
		q.mu.Unlock()
		return
	}
	q.elems = append(q.elems, e)
	q.mu.Unlock()
	done(Completion{Kind: OpPush, Cost: cost})
}

// Pop implements IoQueue.
func (q *MemQueue) Pop(done DoneFunc) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		done(Completion{Kind: OpPop, Err: ErrClosed})
		return
	}
	if len(q.elems) > 0 {
		e := q.elems[0]
		q.elems = q.elems[1:]
		// Space freed: admit a stalled push, if any.
		var admitted *pushReq
		if len(q.pushWait) > 0 {
			p := q.pushWait[0]
			q.pushWait = q.pushWait[1:]
			q.elems = append(q.elems, p.e)
			admitted = &p
		}
		q.mu.Unlock()
		if admitted != nil {
			admitted.done(Completion{Kind: OpPush, Cost: admitted.e.cost})
		}
		done(Completion{Kind: OpPop, SGA: e.s, Cost: e.cost})
		return
	}
	q.waiters = append(q.waiters, done)
	q.mu.Unlock()
}

// Pump implements IoQueue; a memory queue has no internal machinery.
func (q *MemQueue) Pump() int { return 0 }

// Len returns the number of buffered elements.
func (q *MemQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.elems)
}

// Close implements IoQueue, failing all outstanding operations.
func (q *MemQueue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	waiters := q.waiters
	pushes := q.pushWait
	q.waiters = nil
	q.pushWait = nil
	q.mu.Unlock()
	for _, w := range waiters {
		w(Completion{Kind: OpPop, Err: ErrClosed})
	}
	for _, p := range pushes {
		p.done(Completion{Kind: OpPush, Err: ErrClosed})
	}
	return nil
}
