// Package queue implements the Demikernel I/O queue abstraction (§4.2,
// §4.3, §4.4 of the paper): queues whose atomic element is a
// scatter-gather array, non-blocking push/pop operations whose
// completions carry the data, and the queue composition operators merge,
// filter, sort and map. The qtokens those operations return, and the
// waiting on them, are slots of a completion ring (internal/uring).
//
// The package is transport-agnostic: a queue backed by application memory
// (MemQueue) lives here; queues backed by simulated kernel-bypass devices
// are provided by the libOS packages (internal/libos/...), all satisfying
// IoQueue. The composition operators wrap any IoQueue.
package queue

import (
	"errors"
	"sync"

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
