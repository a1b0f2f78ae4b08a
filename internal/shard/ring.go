// Package shard provides the cross-shard communication fabric for a
// sharded (share-nothing) libOS: bounded lock-free single-producer/
// single-consumer rings and an any-to-any mesh of them (Group).
//
// The paper's §3.1 argument — and the reason this package exists — is
// that kernel-bypass datapaths scale by *not* sharing: RSS steers each
// flow to one queue, one worker owns that queue's netstack, connections,
// and buffers, and nothing on the per-packet path crosses cores. What
// remains is the rare traffic between workers (control-plane ops, accept
// redistribution, forwarding a request that landed on the wrong shard),
// and that traffic must not reintroduce locks. An SPSC ring needs no
// CAS, no lock, and no shared cache line between its two ends beyond the
// head/tail indices — which are padded apart here.
package shard

import "sync/atomic"

// cacheLine is the assumed coherence granule. The pads below keep the
// producer-owned and consumer-owned index words on distinct lines so the
// two sides of a ring never write-share.
const cacheLine = 64

// Ring is a bounded lock-free SPSC ring. Exactly one goroutine may call
// Push (the producer) and exactly one may call Pop (the consumer); the
// Group mesh enforces this by dedicating one ring per (from, to) pair.
//
// Each side keeps a private snapshot of the peer's index (cachedTail on
// the consumer line, cachedHead on the producer line) and refreshes it
// from the shared atomic only when the snapshot says the ring looks
// full/empty. In steady state a push or pop therefore touches no
// cache line the peer writes — the cross-core coherence traffic is one
// refresh per wraparound's worth of elements, not one per element.
type Ring[T any] struct {
	buf  []T
	mask uint64
	_    [cacheLine]byte //nolint:unused // pad
	head atomic.Uint64   // next slot to pop; written only by the consumer
	// cachedTail is the consumer's private snapshot of tail; it shares
	// the consumer's line, never the producer's.
	cachedTail uint64
	_          [cacheLine - 16]byte //nolint:unused // pad
	tail       atomic.Uint64        // next slot to push; written only by the producer
	// cachedHead is the producer's private snapshot of head.
	cachedHead uint64
	_          [cacheLine - 16]byte //nolint:unused // pad
}

// NewRing returns an SPSC ring holding up to capacity elements
// (rounded up to a power of two, minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Push appends v; it reports false when the ring is full (bounded:
// backpressure is the caller's problem, the ring never blocks or grows).
// Producer-side only.
func (r *Ring[T]) Push(v T) bool {
	tail := r.tail.Load()
	if tail-r.cachedHead > r.mask {
		r.cachedHead = r.head.Load()
		if tail-r.cachedHead > r.mask {
			return false // full
		}
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1) // release: the element write happens-before
	return true
}

// Pop removes and returns the oldest element. Consumer-side only.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if head == r.cachedTail {
			return zero, false // empty
		}
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero // drop the reference for GC
	r.head.Store(head + 1)
	return v, true
}

// Len reports the current occupancy (approximate under concurrency: head is
// read first, so it is never negative).
func (r *Ring[T]) Len() int {
	head := r.head.Load()
	return int(r.tail.Load() - head)
}

// Cap reports the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }
