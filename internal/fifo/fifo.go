// Package fifo holds the one queue shape the data path keeps needing: a
// FIFO whose dequeue is O(1) and whose storage is reused forever. The
// slice idioms it replaces each had a cost that grew with the queue —
// `q = q[1:]` pins every popped element in the backing array and makes
// append regrow it under churn; `copy(q, q[1:])` keeps the array but
// moves the whole queue on every pop.
package fifo

// Queue is a FIFO over a circular backing array. Push and Pop are O(1);
// a popped slot is zeroed, so the queue never pins what it no longer
// holds; the array grows by doubling only when it is full and is never
// given back. The zero value is an empty queue that owns no storage.
//
// A Queue is not safe for concurrent use.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // elements queued
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the number of elements the backing array holds.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push enqueues v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.wrap(q.head+q.n)] = v
	q.n++
}

// Front returns a pointer to the oldest element, valid until the next
// Push or Pop. It panics on an empty queue, like indexing an empty slice.
func (q *Queue[T]) Front() *T {
	if q.n == 0 {
		panic("fifo: Front of empty queue")
	}
	return &q.buf[q.head]
}

// At returns a pointer to the element i places behind the oldest (0 is the
// oldest), valid until the next Push or Pop; i must be below Len.
func (q *Queue[T]) At(i int) *T { return &q.buf[q.wrap(q.head+i)] }

// Pop dequeues the oldest element. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	p := q.Front()
	v := *p
	var zero T
	*p = zero
	q.head = q.wrap(q.head + 1)
	q.n--
	return v
}

// Take empties the queue and returns its elements, oldest first. The
// result owns its storage: the queue starts over with none.
func (q *Queue[T]) Take() []T {
	var out []T
	if q.head+q.n <= len(q.buf) {
		out = q.buf[q.head : q.head+q.n : q.head+q.n]
	} else {
		out = make([]T, 0, q.n)
		out = append(out, q.buf[q.head:]...)
		out = append(out, q.buf[:q.n-len(out)]...)
	}
	*q = Queue[T]{}
	return out
}

func (q *Queue[T]) wrap(i int) int {
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

func (q *Queue[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
