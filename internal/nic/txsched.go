// TX scheduling for multi-tenant NIC sharing: weighted deficit round-
// robin (WDRR) across per-tenant TX queues, with an optional token-
// bucket rate limit per queue. A kernel-bypass NIC's transmit path is
// the other half of the protection problem (§3, §7): with tenants
// racing raw tx_burst calls, one flooder owns the wire. Real NICs
// answer with hardware TX scheduling (e.g. per-VF rate limiters and
// weighted arbitration among queue pairs); this is the simulated
// equivalent, sitting between QueueGroup.TxFrame and Device.TxFrame.
//
// Backpressure shape matters: a full per-tenant staging ring drops the
// *flooding tenant's* frame (counted as a throttle drop, the frame
// released back to its pool) rather than stalling the shared link —
// one tenant's burst must cost that tenant, not its neighbours.
package nic

import (
	"math"
	"sync"
	"sync/atomic"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

const (
	// txQuantum is the DRR quantum: bytes of credit one weight unit
	// earns per scheduling round.
	txQuantum = 2048
	// txPumpBudget bounds the bytes one pump call may push to the
	// device, so WDRR ratios are observable per call instead of one
	// queue draining completely before the next is considered.
	txPumpBudget = 64 * 1024
	// txDefaultDepth is the default per-tenant TX staging ring depth.
	txDefaultDepth = 512
)

// txScheduler multiplexes per-tenant TX queues onto the device.
type txScheduler struct {
	mu     sync.Mutex
	queues []*txQueue
	rr     int // round-robin start position
}

func newTxScheduler() *txScheduler { return &txScheduler{} }

// txQueue is one tenant's TX staging ring plus its WDRR/rate state.
// Ring, deficit, and token state are guarded by the scheduler's mu;
// counters are atomics so stats reads never contend with the pump.
type txQueue struct {
	s     *txScheduler
	name  string
	ring  []fabric.Frame
	depth int

	weight  int64
	deficit int64

	rate    float64 // bytes/second; 0 = unlimited
	burst   float64 // token bucket depth in bytes
	tokens  float64
	last    int64 // clock reading of the last refill, Unix nanoseconds
	started bool
	clock   *simclock.Clock

	drops      atomic.Int64 // throttle drops at a full ring
	sentFrames atomic.Int64
	sentBytes  atomic.Int64
	txFlushed  atomic.Int64
}

// newQueue registers a TX queue with the given WDRR weight (0 = 1),
// rate limit (0 = unlimited), burst (0 = one quantum), and staging
// depth (0 = default).
func (s *txScheduler) newQueue(name string, weight int, rateBps, burstBytes int64, depth int, clock *simclock.Clock) *txQueue {
	if weight <= 0 {
		weight = 1
	}
	if depth <= 0 {
		depth = txDefaultDepth
	}
	if clock == nil {
		clock = simclock.NewClock()
	}
	burst := float64(burstBytes)
	if burst <= 0 {
		burst = txQuantum
	}
	q := &txQueue{
		s:      s,
		name:   name,
		depth:  depth,
		weight: int64(weight),
		rate:   float64(rateBps),
		burst:  burst,
		clock:  clock,
	}
	s.mu.Lock()
	s.queues = append(s.queues, q)
	s.mu.Unlock()
	return q
}

// enqueue stages a frame on q. A full ring drops (and releases) the
// frame and counts a throttle drop — the flooding tenant is throttled,
// the shared link is not.
func (s *txScheduler) enqueue(q *txQueue, f fabric.Frame) {
	s.mu.Lock()
	if len(q.ring) >= q.depth {
		s.mu.Unlock()
		q.drops.Add(1)
		f.Release()
		return
	}
	q.ring = append(q.ring, f)
	s.mu.Unlock()
}

// pump runs WDRR rounds, transmitting through the device until the
// per-call byte budget is spent or no queue can make progress (empty,
// out of deficit, or token-throttled). Device counters and simulated
// per-frame costs are charged at the actual send, inside d.TxFrame.
func (s *txScheduler) pump(d *Device) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queues) == 0 {
		return
	}
	budget := int64(txPumpBudget)
	for budget > 0 {
		progressed := false
		for i := 0; i < len(s.queues) && budget > 0; i++ {
			q := s.queues[(s.rr+i)%len(s.queues)]
			if len(q.ring) == 0 {
				q.deficit = 0
				continue
			}
			q.refillTokens()
			// Earn this round's credit, capped so a token-throttled
			// queue cannot bank unbounded deficit and later burst past
			// its weight share. The cap stretches to the head frame so
			// an oversized frame still eventually sends.
			q.deficit += q.weight * txQuantum
			maxDeficit := q.weight * txQuantum
			if head := int64(len(q.ring[0].Data)); maxDeficit < head {
				maxDeficit = head
			}
			if q.deficit > maxDeficit {
				q.deficit = maxDeficit
			}
			for len(q.ring) > 0 && budget > 0 {
				f := q.ring[0]
				size := int64(len(f.Data))
				if size > q.deficit {
					break
				}
				if q.rate > 0 && q.tokens < float64(size) {
					break
				}
				copy(q.ring, q.ring[1:])
				q.ring[len(q.ring)-1] = fabric.Frame{}
				q.ring = q.ring[:len(q.ring)-1]
				q.deficit -= size
				if q.rate > 0 {
					q.tokens -= float64(size)
				}
				budget -= size
				q.sentFrames.Add(1)
				q.sentBytes.Add(size)
				d.TxFrame(f)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	s.rr = (s.rr + 1) % len(s.queues)
}

// refillTokens advances the token bucket to the clock's now. Caller
// holds s.mu.
func (q *txQueue) refillTokens() {
	if q.rate <= 0 {
		return
	}
	now := q.clock.UnixNano()
	if !q.started {
		q.started = true
		q.last = now
		q.tokens = q.burst
		return
	}
	if el := float64(now-q.last) / 1e9; el > 0 {
		q.tokens = math.Min(q.burst, q.tokens+q.rate*el)
		q.last = now
	}
}

// flushQueue releases every staged frame on q (crash reclaim) and
// returns the count discarded.
func (s *txScheduler) flushQueue(q *txQueue) int {
	s.mu.Lock()
	staged := q.ring
	q.ring = nil
	q.deficit = 0
	s.mu.Unlock()
	for _, f := range staged {
		f.Release()
	}
	if n := len(staged); n > 0 {
		q.txFlushed.Add(int64(n))
		return n
	}
	return 0
}

// stats snapshots the queue's counters.
func (q *txQueue) stats() (sentFrames, sentBytes, queued, flushed, drops int64) {
	q.s.mu.Lock()
	queued = int64(len(q.ring))
	q.s.mu.Unlock()
	return q.sentFrames.Load(), q.sentBytes.Load(), queued, q.txFlushed.Load(), q.drops.Load()
}

// deficitNow reports the queue's current DRR deficit (telemetry gauge).
func (q *txQueue) deficitNow() int64 {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.deficit
}

// tokensNow reports the queue's current token balance (telemetry gauge).
func (q *txQueue) tokensNow() int64 {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return int64(q.tokens)
}
