package queue

import (
	"container/heap"
	"sync"

	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// This file implements the queue composition operators of §4.3: filter,
// map, sort, and merge. Each returns a new queue derived from existing
// ones; applications combine them "to create complex I/O processing
// pipelines, which can then be offloaded to a kernel-bypass accelerator".
//
// The implementations here are the CPU fallback the paper requires
// ("library OSes always implement filters directly on supported devices
// but default to using the CPU if necessary"); the DPDK libOS lowers
// eligible filters onto the simulated NIC's hardware filter table instead
// (see internal/libos/catnip and internal/offload).

// FilterFunc decides whether an element passes a filter queue.
type FilterFunc func(s sga.SGA) bool

// MapFunc transforms an element in place as it crosses a map queue.
type MapFunc func(s sga.SGA) sga.SGA

// LessFunc orders elements in a sort queue; the element for which Less is
// true against all others pops first.
type LessFunc func(a, b sga.SGA) bool

// FilterQueue presents only the elements of an inner queue that match a
// predicate. Pops transparently discard non-matching elements; pushes of
// non-matching elements complete with ErrFiltered and never reach the
// inner queue.
type FilterQueue struct {
	inner IoQueue
	fn    FilterFunc
	model *simclock.CostModel
}

// NewFilterQueue wraps inner with fn, charging per-element CPU filter
// cost from model.
func NewFilterQueue(inner IoQueue, fn FilterFunc, model *simclock.CostModel) *FilterQueue {
	return &FilterQueue{inner: inner, fn: fn, model: model}
}

// Push implements IoQueue.
func (q *FilterQueue) Push(s sga.SGA, cost simclock.Lat, done DoneFunc) {
	cost += q.model.FilterNS
	if !q.fn(s) {
		done(Completion{Kind: OpPush, Err: ErrFiltered, Cost: cost})
		return
	}
	q.inner.Push(s, cost, done)
}

// Pop implements IoQueue: it keeps popping the inner queue until an
// element passes the filter.
func (q *FilterQueue) Pop(done DoneFunc) {
	q.inner.Pop(func(c Completion) {
		if c.Err != nil {
			done(c)
			return
		}
		c.Cost += q.model.FilterNS
		if q.fn(c.SGA) {
			done(c)
			return
		}
		c.SGA.Free() // discarded element returns its buffers
		q.Pop(done)
	})
}

// Pump implements IoQueue.
func (q *FilterQueue) Pump() int { return q.inner.Pump() }

// Close implements IoQueue.
func (q *FilterQueue) Close() error { return q.inner.Close() }

// MapQueue applies a transformation to every element crossing it.
type MapQueue struct {
	inner IoQueue
	fn    MapFunc
	model *simclock.CostModel
}

// NewMapQueue wraps inner with fn.
func NewMapQueue(inner IoQueue, fn MapFunc, model *simclock.CostModel) *MapQueue {
	return &MapQueue{inner: inner, fn: fn, model: model}
}

// Push implements IoQueue.
func (q *MapQueue) Push(s sga.SGA, cost simclock.Lat, done DoneFunc) {
	q.inner.Push(q.fn(s), cost+q.model.MapNS, done)
}

// Pop implements IoQueue.
func (q *MapQueue) Pop(done DoneFunc) {
	q.inner.Pop(func(c Completion) {
		if c.Err == nil {
			c.SGA = q.fn(c.SGA)
			c.Cost += q.model.MapNS
		}
		done(c)
	})
}

// Pump implements IoQueue.
func (q *MapQueue) Pump() int { return q.inner.Pump() }

// Close implements IoQueue.
func (q *MapQueue) Close() error { return q.inner.Close() }

// SortQueue reorders an inner queue: pops return the highest-priority
// buffered element rather than the oldest. It keeps a small window of
// outstanding pops on the inner queue and heapifies their results. Its
// buffered elements are a heap, not a FIFO, so only its parked pops and
// closed flag are a PopSide's; nothing is ever held there.
type SortQueue struct {
	inner IoQueue
	less  LessFunc

	mu          sync.Mutex
	h           sgaHeap
	pops        PopSide
	outstanding int
	window      int
}

// NewSortQueue wraps inner, ordering pops by less. window bounds how many
// inner pops may be in flight pre-fetching elements (0 means 8).
func NewSortQueue(inner IoQueue, less LessFunc, window int) *SortQueue {
	if window <= 0 {
		window = 8
	}
	return &SortQueue{inner: inner, less: less, window: window, h: sgaHeap{less: less}}
}

// Push implements IoQueue: pushes pass through to the inner queue.
func (q *SortQueue) Push(s sga.SGA, cost simclock.Lat, done DoneFunc) {
	q.inner.Push(s, cost, done)
}

// Pop implements IoQueue. A closed queue's heap is empty.
func (q *SortQueue) Pop(done DoneFunc) {
	q.mu.Lock()
	var c Completion
	ok := q.h.Len() > 0
	if ok {
		c = heap.Pop(&q.h).(Completion)
	} else {
		c, ok = q.pops.Pop(done)
	}
	q.mu.Unlock()
	if ok {
		done(c)
	}
}

// Pump implements IoQueue: it refills the prefetch window.
func (q *SortQueue) Pump() int {
	n := q.inner.Pump()
	q.mu.Lock()
	if q.pops.Closed() {
		q.mu.Unlock()
		return n
	}
	want := q.window - q.outstanding
	q.outstanding += want
	q.mu.Unlock()
	for i := 0; i < want; i++ {
		q.inner.Pop(q.onInnerPop)
		n++
	}
	return n
}

// onInnerPop heaps an element nobody waits for. A parked pop (none parks
// while the heap holds one) takes the element itself, or a terminal error
// other than ErrClosed; a closed queue frees the element.
func (q *SortQueue) onInnerPop(c Completion) {
	q.mu.Lock()
	q.outstanding--
	var w DoneFunc
	switch {
	case q.pops.Closed() || q.pops.Parked() > 0 && c.Err != ErrClosed:
		w, _ = q.pops.Deliver(c)
	case c.Err == nil:
		heap.Push(&q.h, c)
	}
	q.mu.Unlock()
	if w != nil {
		w(c)
	}
}

// Close implements IoQueue: parked pops fail and the heap's elements are
// freed.
func (q *SortQueue) Close() error {
	q.mu.Lock()
	dropped := q.pops.Close()
	dropped.Held, q.h.items = q.h.items, nil
	q.mu.Unlock()
	dropped.Settle()
	return q.inner.Close()
}

// sgaHeap is a container/heap of completions, ordered by their SGAs under
// the owning SortQueue's LessFunc.
type sgaHeap struct {
	items []Completion
	less  LessFunc
}

func (h sgaHeap) Len() int           { return len(h.items) }
func (h sgaHeap) Less(i, j int) bool { return h.less(h.items[i].SGA, h.items[j].SGA) }
func (h sgaHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *sgaHeap) Push(x any) { h.items = append(h.items, x.(Completion)) }

func (h *sgaHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// MergeQueue combines two queues (§4.3): "a pop from either queue results
// in a pop from the merged queue and a push to the merged queue results
// in a push to both queues."
type MergeQueue struct {
	a, b IoQueue

	mu          sync.Mutex
	pops        PopSide
	outstanding int
	window      int
}

// NewMergeQueue merges a and b. window bounds outstanding prefetch pops
// per inner queue (0 means 4).
func NewMergeQueue(a, b IoQueue, window int) *MergeQueue {
	if window <= 0 {
		window = 4
	}
	return &MergeQueue{a: a, b: b, window: window}
}

// Push implements IoQueue: the element goes to both inner queues; the
// push completes when both accept it.
func (q *MergeQueue) Push(s sga.SGA, cost simclock.Lat, done DoneFunc) {
	var mu sync.Mutex
	remaining := 2
	var firstErr error
	var maxCost simclock.Lat
	child := func(c Completion) {
		mu.Lock()
		defer mu.Unlock()
		if c.Err != nil && firstErr == nil {
			firstErr = c.Err
		}
		if c.Cost > maxCost {
			maxCost = c.Cost
		}
		remaining--
		if remaining == 0 {
			done(Completion{Kind: OpPush, Err: firstErr, Cost: maxCost})
		}
	}
	q.a.Push(s, cost, child)
	q.b.Push(s, cost, child)
}

// Pop implements IoQueue.
func (q *MergeQueue) Pop(done DoneFunc) {
	q.mu.Lock()
	c, ok := q.pops.Pop(done)
	q.mu.Unlock()
	if ok {
		done(c)
	}
}

// Pump implements IoQueue: it refills both prefetch windows.
func (q *MergeQueue) Pump() int {
	n := q.a.Pump() + q.b.Pump()
	q.mu.Lock()
	if q.pops.Closed() {
		q.mu.Unlock()
		return n
	}
	want := 2*q.window - q.outstanding
	perInner := want / 2
	q.outstanding += perInner * 2
	q.mu.Unlock()
	for i := 0; i < perInner; i++ {
		q.a.Pop(q.onInnerPop)
		q.b.Pop(q.onInnerPop)
		n += 2
	}
	return n
}

// onInnerPop delivers an inner element in arrival order; inner errors are
// dropped.
func (q *MergeQueue) onInnerPop(c Completion) {
	q.mu.Lock()
	q.outstanding--
	if c.Err != nil {
		q.mu.Unlock()
		return
	}
	w, ok := q.pops.Deliver(c)
	q.mu.Unlock()
	if ok {
		w(c)
	}
}

// Close implements IoQueue: parked pops fail, the elements nobody popped
// are freed, and both inner queues close.
func (q *MergeQueue) Close() error {
	q.mu.Lock()
	dropped := q.pops.Close()
	q.mu.Unlock()
	dropped.Settle()
	err1 := q.a.Close()
	err2 := q.b.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
