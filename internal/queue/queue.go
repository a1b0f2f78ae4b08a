// Package queue implements the Demikernel I/O queue abstraction (§4.2,
// §4.3, §4.4 of the paper): queues whose atomic element is a
// scatter-gather array, non-blocking push/pop operations whose
// completions carry the data, and the queue composition operators merge,
// filter, sort and map. The qtokens those operations return, and the
// waiting on them, are slots of a completion ring (internal/uring).
//
// The package is transport-agnostic: a queue backed by application memory
// (MemQueue) lives here, and so does the file queue (FileQueue), over a
// record log each storage libOS provides; the other queues backed by
// simulated kernel-bypass devices are provided by the libOS packages
// (internal/libos/...), all satisfying IoQueue. The composition operators
// wrap any IoQueue.
package queue

import (
	"errors"
	"sync"

	"demikernel/internal/fifo"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// QToken identifies one outstanding queue operation. "Each qtoken is
// unique to a single queue operation", which is what lets different
// threads wait on different tokens instead of sharing a descriptor.
// Tokens are issued by uring.Pair.ArmToken; 0 is never one.
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

// MemQueue is an in-memory Demikernel queue: the object behind the plain
// queue() syscall. Elements pass by reference — pushing and popping never
// copies payload bytes. It is safe for concurrent use.
type MemQueue struct {
	mu       sync.Mutex
	pops     PopSide             // buffered elements and pending pops
	pushWait fifo.Queue[pushReq] // pushes stalled on capacity
	capacity int
}

// pushReq is a stalled push: the pop completion it becomes once admitted.
type pushReq struct {
	c    Completion
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
	c := Completion{Kind: OpPop, SGA: s, Cost: cost}
	q.mu.Lock()
	switch {
	case q.pops.Closed():
		q.mu.Unlock()
		done(Completion{Kind: OpPush, Err: ErrClosed})
		return
	case q.pops.Held() >= q.capacity: // full, so no pop is parked
		q.pushWait.Push(pushReq{c: c, done: done})
		q.mu.Unlock()
		return
	}
	w, ok := q.pops.Deliver(c)
	q.mu.Unlock()
	done(Completion{Kind: OpPush, Cost: cost})
	if ok {
		w(c)
	}
}

// Pop implements IoQueue.
func (q *MemQueue) Pop(done DoneFunc) {
	q.mu.Lock()
	c, ok := q.pops.Pop(done)
	// A push stalls only while the queue is full, so this pop took an
	// element and freed space: admit the oldest stalled push. Its element
	// is held, as no pop parks while one is.
	var admitted pushReq
	if q.pushWait.Len() > 0 {
		admitted = q.pushWait.Pop()
		q.pops.Deliver(admitted.c)
	}
	q.mu.Unlock()
	if admitted.done != nil {
		admitted.done(Completion{Kind: OpPush, Cost: admitted.c.Cost})
	}
	if ok {
		done(c)
	}
}

// Pump implements IoQueue; a memory queue has no internal machinery.
func (q *MemQueue) Pump() int { return 0 }

// Len returns the number of buffered elements.
func (q *MemQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pops.Held()
}

// Close implements IoQueue, failing all outstanding operations and freeing
// the elements nobody popped. A stalled push fails with its SGA still the
// pusher's.
func (q *MemQueue) Close() error {
	q.mu.Lock()
	if q.pops.Closed() {
		q.mu.Unlock()
		return nil
	}
	dropped := q.pops.Close()
	pushes := q.pushWait.Take()
	q.mu.Unlock()
	dropped.Settle()
	for _, p := range pushes {
		p.done(Completion{Kind: OpPush, Err: ErrClosed})
	}
	return nil
}
