package catfish

import (
	"fmt"
	"sync"
	"sync/atomic"

	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

// This file wires storage pushdown into the Demikernel queue
// abstraction: a LookupQueue is a PushPop-style IoQueue face over a
// block-resident index. Push submits one GET (the pushed SGA is the
// key); Pop returns the value — so a whole depth-N traversal is exactly
// one app↔libOS round trip. Legacy per-record access (Open's file
// queues) is untouched.
//
// Two modes, one program (spdk.Prog) and one traversal:
//
//   - Pushdown: the program runs in the NVMe completion path;
//     intermediate hops resubmit device-side and only the final value
//     (or one typed error) crosses back. One device crossing per GET,
//     whatever the depth.
//   - Host fallback: the program runs in the libOS over each surfaced
//     block — today's status quo, one device round trip per hop. The
//     device's traversal drives it (spdk.Device.HostLookup) under the
//     same rules, so the results are the same, byte for byte.
//
// Lookups are not retried on transient device errors: unlike a blob
// append, a half-done traversal has no idempotent tail to re-run, so a
// mid-traversal controller reset surfaces as one typed error completion
// (hop budget accounted by the device) and the application re-pushes.

// LookupConfig configures OpenLookup.
type LookupConfig struct {
	// Pushdown runs the program in the device's completion path; false
	// runs it on the host per block.
	Pushdown bool
}

// LookupStats counts one queue's crossings.
type LookupStats struct {
	// Lookups is the number of GETs started.
	Lookups int64
	// Crossings counts device→host completion round trips: 1 per GET
	// with pushdown, one per hop without.
	Crossings int64
}

// BuildIndex bulk-builds a block-resident sorted index over the store's
// raw-block region (spdk.BuildIndex over Store.AllocBlocks), retrying
// transient device failures like any other storage op. A retry rewrites
// the regions the first attempt allocated (its i-th allocation is the
// first attempt's i-th), so a failed attempt leaks no blocks.
func (t *Transport) BuildIndex(kvs []spdk.KV, fanout int) (*spdk.Index, error) {
	var regions []int
	var idx *spdk.Index
	_, err := t.retry(func() (simclock.Lat, error) {
		i := 0
		alloc := func(n int) (int, error) {
			if i == len(regions) {
				lo, err := t.store.AllocBlocks(n)
				if err != nil {
					return 0, err
				}
				regions = append(regions, lo)
			}
			i++
			return regions[i-1], nil
		}
		var e error
		idx, e = spdk.BuildIndex(t.dev, alloc, kvs, fanout)
		if idx != nil {
			return idx.BuildCost, e
		}
		return 0, e
	})
	return idx, err
}

// OpenLookup opens a PushPop lookup face over idx that runs prog. With
// cfg.Pushdown every lookup runs prog in the device's completion path;
// otherwise on the host per surfaced block. A nil prog is refused with
// spdk.ErrBadProg.
func (t *Transport) OpenLookup(idx *spdk.Index, prog spdk.Prog, cfg LookupConfig) (*LookupQueue, error) {
	if prog == nil {
		return nil, fmt.Errorf("%w: nil program", spdk.ErrBadProg)
	}
	q := &LookupQueue{t: t, idx: idx, prog: prog, pushdown: cfg.Pushdown}
	q.onResult = q.deliver
	return q, nil
}

// LookupQueue is the IoQueue face over one index. Push stages a GET
// keyed by the pushed SGA's payload; Pop completes with the value (free
// the popped SGA when done — it is pool-backed), spdk.ErrNotFound on a
// clean miss, or the typed error that ended the traversal.
type LookupQueue struct {
	t        *Transport
	idx      *spdk.Index
	prog     spdk.Prog
	pushdown bool

	onResult func(spdk.LookupResult)

	lookups   atomic.Int64
	crossings atomic.Int64

	mu   sync.Mutex
	pops queue.PopSide
}

// Stats returns the queue's crossing counters.
func (q *LookupQueue) Stats() LookupStats {
	return LookupStats{
		Lookups:   q.lookups.Load(),
		Crossings: q.crossings.Load(),
	}
}

// Push implements queue.IoQueue: it submits one lookup for the key
// carried by s. The key SGA is consumed (freed) once the request is
// staged; the push completion means "request accepted", and the result
// arrives on a Pop.
func (q *LookupQueue) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	q.mu.Lock()
	closed := q.pops.Closed()
	q.mu.Unlock()
	if closed {
		done(queue.Completion{Kind: queue.OpPush, Err: queue.ErrClosed})
		return
	}
	var key []byte
	if len(s.Segments) == 1 {
		key = s.Segments[0].Buf
	} else {
		key = s.Bytes()
	}
	q.lookups.Add(1)
	if q.pushdown {
		// SubmitLookup copies the key before returning, so the SGA can
		// be freed immediately; the single surfaced completion lands in
		// deliver from whichever goroutine pumps the device.
		if err := q.t.dev.SubmitLookup(q.prog, q.idx.Root, key, q.onResult); err != nil {
			q.deliver(spdk.LookupResult{Err: err})
		}
		s.Free()
		done(queue.Completion{Kind: queue.OpPush, Cost: cost})
		return
	}
	r, reads := q.t.dev.HostLookup(q.prog, q.idx.Root, key)
	q.crossings.Add(int64(reads))
	s.Free()
	done(queue.Completion{Kind: queue.OpPush, Cost: cost})
	q.deliver(r)
}

// deliver answers the oldest parked Pop with one finished lookup, or holds
// it for the next Pop. For hits the value is copied into a pooled buffer,
// the host's DMA copy of it; the popping application frees it.
func (q *LookupQueue) deliver(r spdk.LookupResult) {
	c := queue.Completion{Kind: queue.OpPop, Cost: r.Cost}
	switch {
	case r.Err != nil:
		c.Err = r.Err
	case !r.Found:
		c.Err = spdk.ErrNotFound
	default:
		c.SGA = q.t.pool.SGA(len(r.Value))
		copy(c.SGA.Segments[0].Buf, r.Value)
	}
	if q.pushdown {
		// The one device→host crossing of a pushdown GET.
		q.crossings.Add(1)
	}
	q.mu.Lock()
	w, ok := q.pops.Deliver(c)
	q.mu.Unlock()
	if ok {
		w(c)
	}
}

// Pop implements queue.IoQueue.
func (q *LookupQueue) Pop(done queue.DoneFunc) {
	q.mu.Lock()
	c, ok := q.pops.Pop(done)
	q.mu.Unlock()
	if ok {
		done(c)
	}
}

// Pump implements queue.IoQueue: a lookup answers its Pop when it
// finishes, so there is nothing to pump.
func (q *LookupQueue) Pump() int { return 0 }

// Close implements queue.IoQueue: parked pops fail and the values nobody
// popped are freed.
func (q *LookupQueue) Close() error {
	q.mu.Lock()
	if q.pops.Closed() {
		q.mu.Unlock()
		return nil
	}
	dropped := q.pops.Close()
	q.mu.Unlock()
	dropped.Settle()
	return nil
}
