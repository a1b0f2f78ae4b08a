// Package uring is the completion ring of the batched submission path: a
// slab of in-flight operation states and a completion queue the libOS
// posts into and the application harvests, after io_uring's CQ. There is
// no submission queue. The paper's libOS is linked into the application
// (§3.2, §4.4), so submitting is a function call (core.LibOS.SubmitBatch)
// that arms one slab slot per SQE and stages the operation on its queue
// at once; a ring of SQEs between the two would avoid no crossing and
// only defer the work to the next poll. What the ring buys is on the way
// back: completions arrive tagged, in one harvest per batch, without a
// qtoken per operation or a token table to probe, and without
// allocating — a slot's completion closure is bound once, when the slab
// grows.
//
// Concurrency contract. One mutex guards the slab and the CQ: whichever
// goroutine pumps the stack completes operations, the application arms
// and harvests, and a crash flush (Reset) rewrites what is pending, each
// under it; Harvest takes it once per call. A pair belongs to one
// application thread all the same, because whoever harvests gets every
// completion: give each thread its own.
//
// No bound. The slab and the CQ grow by doubling, so a pair holds as
// many operations as its application submitted, which is the guarantee
// the qtoken table gives; capacity is where the slab starts. Neither
// shrinks, and both stop growing at the application's own high-water
// mark.
package uring

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"demikernel/internal/fifo"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// SQE describes one queue operation to submit. The app fills Op, QD, Tag
// and (for pushes) SGA/Cost; Tag is an opaque user cookie returned
// verbatim on the matching CQE so the app can dispatch completions
// without any shared map.
type SQE struct {
	Op   queue.OpKind
	QD   int32
	Tag  uint64
	SGA  sga.SGA      // push payload; app-owned until successful completion
	Cost simclock.Lat // virtual latency the app accumulated before submitting
}

// CQE is one completion-queue entry. For pops SGA carries the received
// element and ownership transfers to the app (which must Free it); for
// failed or flushed pushes the submitted payload remains app-owned.
type CQE struct {
	Tag  uint64
	Kind queue.OpKind
	Err  error
	SGA  sga.SGA
	Cost simclock.Lat

	// Span attribution, carried through the ring so issue→consume spans
	// survive without the completer's token sidecar.
	qd              int32
	issueNS, doneNS int64
}

// opState is one slab slot: the wait state of one in-flight operation.
// Its DoneFunc is bound when the slab grows, so arming an op allocates
// nothing, and a slot is reached only through pointers, so growth moves
// none.
type opState struct {
	armed   bool
	tag     uint64
	qd      int32
	issueNS int64
	done    queue.DoneFunc
}

// batchBuckets are the upper bounds of the submit-size histogram; the
// last bucket is unbounded.
var batchBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64, 128}

// Pair is one application thread's ring on one libOS (the name is from
// the SQ/CQ pair it once was).
type Pair struct {
	mu   sync.Mutex
	free []*opState // released slots, LIFO for cache warmth
	slab int        // slots allocated
	// armed is ArmBatch's result, reused from call to call.
	armed []queue.DoneFunc
	cq    fifo.Queue[CQE]

	spans *telemetry.SpanTable

	// Counters (names mirror the uring.* registry entries).
	submitted   atomic.Int64
	cqPosted    atomic.Int64
	cqHarvested atomic.Int64
	cqFlushed   atomic.Int64
	submitBatch [len(batchBuckets) + 1]atomic.Int64
}

// NewPair returns a ring whose slab starts at capacity slots.
func NewPair(capacity int) *Pair {
	p := &Pair{}
	p.Reserve(capacity)
	return p
}

// Reserve grows the slab to at least n slots, so that n operations in
// flight arm without allocating.
func (p *Pair) Reserve(n int) {
	p.mu.Lock()
	p.reserveLocked(n)
	p.mu.Unlock()
}

func (p *Pair) reserveLocked(n int) {
	if n <= p.slab {
		return
	}
	chunk := make([]opState, n-p.slab)
	for i := range chunk {
		st := &chunk[i]
		st.done = func(c queue.Completion) { p.complete(st, c) }
		p.free = append(p.free, st)
	}
	p.slab = n
}

// SetSpans attaches a span table; while it is enabled, operations are
// stamped at issue/done/consume and recorded at harvest.
func (p *Pair) SetSpans(t *telemetry.SpanTable) { p.spans = t }

// Arm acquires a slot for one SQE and returns the DoneFunc to hand to
// its IoQueue: ArmBatch of one.
func (p *Pair) Arm(e *SQE) queue.DoneFunc {
	return p.ArmBatch([]SQE{*e})[0]
}

// ArmBatch acquires a slot for each SQE of a submission under one hold of
// the pair's lock, and returns their DoneFuncs in order. The slice is the
// pair's scratch, good until the next call: the pair's one application
// thread is the only submitter. The submit call counts its batch once,
// with Submitted.
func (p *Pair) ArmBatch(es []SQE) []queue.DoneFunc {
	var now int64
	if p.spans != nil && p.spans.Enabled() {
		now = time.Now().UnixNano()
	}
	p.mu.Lock()
	if short := len(es) - len(p.free); short > 0 {
		p.reserveLocked(max(2*p.slab, p.slab+short))
	}
	dones := p.armed[:0]
	for i := range es {
		st := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		st.armed = true
		st.tag = es[i].Tag
		st.qd = es[i].QD
		st.issueNS = now
		dones = append(dones, st.done)
	}
	p.armed = dones
	p.mu.Unlock()
	return dones
}

// Submitted counts one submit call that armed n operations.
func (p *Pair) Submitted(n int) {
	p.submitted.Add(int64(n))
	i := 0
	for i < len(batchBuckets) && int64(n) > batchBuckets[i] {
		i++
	}
	p.submitBatch[i].Add(1)
}

// complete is the target of every slab DoneFunc: it converts the
// operation's completion into a CQE, releases the slab slot, and posts
// to the CQ. A slot that is no longer armed (stale double-completion)
// is dropped and its payload freed.
func (p *Pair) complete(st *opState, c queue.Completion) {
	p.mu.Lock()
	if !st.armed {
		p.mu.Unlock()
		c.SGA.Free()
		return
	}
	st.armed = false
	cqe := CQE{
		Tag:     st.tag,
		Kind:    c.Kind,
		Err:     c.Err,
		SGA:     c.SGA,
		Cost:    c.Cost,
		qd:      st.qd,
		issueNS: st.issueNS,
	}
	if st.issueNS != 0 {
		cqe.doneNS = time.Now().UnixNano()
	}
	p.free = append(p.free, st)
	p.cq.Push(cqe)
	p.mu.Unlock()
	p.cqPosted.Add(1)
}

// Harvest pops up to len(dst) completions, oldest first.
func (p *Pair) Harvest(dst []CQE) int {
	p.mu.Lock()
	n := 0
	for n < len(dst) && p.cq.Len() > 0 {
		dst[n] = p.cq.Pop()
		n++
	}
	p.mu.Unlock()
	if n == 0 {
		return 0
	}
	p.cqHarvested.Add(int64(n))
	if p.spans != nil && p.spans.Enabled() {
		now := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			c := &dst[i]
			if c.issueNS == 0 {
				continue // spans were enabled mid-flight
			}
			p.spans.Record(telemetry.SpanRecord{
				QD:        c.qd,
				Kind:      int(c.Kind),
				Err:       c.Err != nil,
				IssueNS:   c.issueNS,
				SubmitNS:  c.issueNS,
				DoneNS:    c.doneNS,
				ConsumeNS: now,
				VirtCost:  c.Cost,
			})
		}
	}
	return n
}

// Reset is the crash flush. It runs after the transport has failed every
// operation still in flight with err, so what it finds on the CQ is
// those failures and the completions the application had not harvested
// when the stack died. It rewrites the latter in place — err, payload
// freed — so that every operation pending at the crash resolves to one
// CQE carrying err, and returns how many it rewrote: the operations this
// crash failed that the transport's own count does not hold. Nothing is
// left poisoned; the pair serves the next incarnation.
func (p *Pair) Reset(err error) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := p.cq.Len(); i > 0; i-- {
		c := p.cq.Pop()
		if !errors.Is(c.Err, err) {
			c.SGA.Free()
			c.SGA = sga.SGA{}
			c.Err = err
			n++
		}
		p.cq.Push(c)
	}
	p.cqFlushed.Add(int64(n))
	return n
}

// Counters is a point-in-time snapshot of one pair: the counters core
// sums across attached pairs at registry read time (so rings attached
// after telemetry registration are still counted), and the pair's sizes.
type Counters struct {
	Submitted, CQPosted, CQHarvested, CQFlushed int64
	// Outstanding is operations submitted and not yet harvested;
	// CQOccupancy is the completed part of them.
	Outstanding, CQOccupancy int64
	// Slab and CQCap are the storage the pair has grown to.
	Slab, CQCap int64
	// SubmitBatch is the submit-size histogram (BatchBucketNames).
	SubmitBatch [len(batchBuckets) + 1]int64
}

// CountersSnapshot returns the pair's counter values.
func (p *Pair) CountersSnapshot() (c Counters) {
	p.mu.Lock()
	c.CQOccupancy = int64(p.cq.Len())
	c.CQCap = int64(p.cq.Cap())
	c.Slab = int64(p.slab)
	p.mu.Unlock()
	c.Submitted = p.submitted.Load()
	c.CQPosted = p.cqPosted.Load()
	c.CQHarvested = p.cqHarvested.Load()
	c.CQFlushed = p.cqFlushed.Load()
	c.Outstanding = c.Submitted - c.CQHarvested
	for i := range p.submitBatch {
		c.SubmitBatch[i] = p.submitBatch[i].Load()
	}
	return c
}

// BatchBucketNames returns the histogram bucket labels in index order
// ("le_1" ... "le_128", "over"), matching Counters.SubmitBatch.
func BatchBucketNames() []string {
	out := make([]string, 0, len(batchBuckets)+1)
	for _, b := range batchBuckets {
		out = append(out, "le_"+strconv.FormatInt(b, 10))
	}
	return append(out, "over")
}
