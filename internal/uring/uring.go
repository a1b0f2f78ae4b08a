// Package uring is the libOS's one completion mechanism: a slab of
// in-flight operation states, and a completion queue the libOS posts into
// and the application harvests, after io_uring's CQ. Every operation
// arms one slab slot, and how its completion comes back depends on how
// the slot was armed:
//
//   - tagged (ArmBatch, the batched submission path): the completion stays
//     in the slot, the slot goes on the CQ, and Harvest writes it out
//     under the operation's tag, in bulk, releasing the slot as it goes;
//   - by token (ArmToken, the paper's Push/Pop/Wait): the completion stays
//     in the slot, and the qtoken — generation<<32 | slot — reads it there
//     (TryWait, WaitChan, an any-of subscription).
//
// Either way a completion is written once, into its slot, and copied once
// more only to the application: the CQ is a FIFO of slots, not of entries.
//
// There is no submission queue. The paper's libOS is linked into the
// application (§3.2, §4.4), so submitting is a function call
// (core.LibOS.SubmitBatch) that arms one slot per SQE and stages the
// operation on its queue at once; a ring of SQEs between the two would
// avoid no crossing and only defer the work to the next poll. Nor is there
// a token table: a qtoken names its slot, and the slot's generation,
// bumped on every release, is what makes a consumed or stale token read
// queue.ErrUnknownToken. Neither face allocates: a slot's completion
// closure is bound once, when the slab grows.
//
// Concurrency contract. One mutex guards the slab, the CQ and its
// counters, and the waiter state: whichever goroutine pumps the stack
// completes operations, the application arms, waits and harvests, and a
// crash flush (Reset) rewrites what is pending, each under it. Whoever harvests gets every
// tagged completion, so a pair's CQ belongs to one application thread;
// tokens are consumed one by one, so any number of threads may wait on
// tokens of one pair.
//
// No bound. The slab and the CQ grow by doubling, so a pair holds as
// many operations as its application submitted and has not harvested;
// capacity is where the slab starts. Neither shrinks, and both stop
// growing at the application's own high-water mark.
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
	// survive the trip.
	qd              int32
	issueNS, doneNS int64
}

// opState is one slab slot: the wait state of one in-flight operation.
// Its DoneFunc is bound when the slab grows, so arming an op allocates
// nothing, and a slot is reached only through pointers, so growth moves
// none.
type opState struct {
	slot uint32 // index in Pair.slots, fixed
	gen  uint32 // bumped on every release; never 0
	// armed is set from arming to completion. The slot stays taken after
	// that, holding comp, until its token is consumed or its CQ entry is
	// harvested.
	armed bool
	token bool

	tag             uint64
	qd              int32
	issueNS, doneNS int64
	done            queue.DoneFunc
	comp            queue.Completion

	// Token face: the one blocking waiter (WaitChan) and the one any-of
	// subscription (SubscribeAny) with the index it notes.
	ch     chan queue.Completion
	any    *AnyWaiter
	anyIdx int
}

// qtoken is the token naming the slot's current use.
func (st *opState) qtoken() queue.QToken {
	return queue.QToken(uint64(st.gen)<<32 | uint64(st.slot))
}

// AnyWaiter is one any-of subscription over token slots: each subscribed
// slot notes its index here when it completes, so a waiter does O(1) work
// per completion instead of rescanning its tokens. The pair's lock guards
// it.
type AnyWaiter struct{ ready []int }

// batchBuckets are the upper bounds of the submit-size histogram; the
// last bucket is unbounded.
var batchBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64, 128}

// Pair is one ring on one libOS (the name is from the SQ/CQ pair it once
// was).
type Pair struct {
	mu    sync.Mutex
	slots []*opState // by slot number
	free  []*opState // released slots, LIFO for cache warmth
	// armed is ArmBatch's result, reused from call to call.
	armed []queue.DoneFunc
	// cq holds the completed tagged slots, oldest first.
	cq fifo.Queue[*opState]
	// tokens counts token slots taken; wakeups the WaitChan deliveries.
	tokens  int64
	wakeups int64
	// The CQ counters (names mirror the uring.* registry entries).
	cqPosted, cqHarvested, cqFlushed int64

	spans *telemetry.SpanTable

	submitted   atomic.Int64
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
	if n <= len(p.slots) {
		return
	}
	chunk := make([]opState, n-len(p.slots))
	for i := range chunk {
		st := &chunk[i]
		st.slot = uint32(len(p.slots))
		st.gen = 1
		st.done = func(c queue.Completion) { p.complete(st, c) }
		p.slots = append(p.slots, st)
		p.free = append(p.free, st)
	}
}

// takeLocked arms a free slot, growing the slab when none is left.
func (p *Pair) takeLocked() *opState {
	if len(p.free) == 0 {
		p.reserveLocked(max(2*len(p.slots), 1))
	}
	st := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	st.armed = true
	return st
}

// releaseLocked returns a slot to the free list under a new generation,
// which retires every token that named its last use.
func (p *Pair) releaseLocked(st *opState) {
	if st.token {
		p.tokens--
		st.token = false
		st.ch, st.any = nil, nil
	}
	st.comp = queue.Completion{}
	if st.gen++; st.gen == 0 {
		st.gen = 1
	}
	st.armed = false
	p.free = append(p.free, st)
}

// SetSpans attaches a span table; while it is enabled, operations are
// stamped at issue/done/consume and recorded when they are consumed.
func (p *Pair) SetSpans(t *telemetry.SpanTable) { p.spans = t }

// stamp is the issue time of an operation armed now: zero while spans are
// off, which is what marks it as not traced.
func (p *Pair) stamp() int64 {
	if p.spans != nil && p.spans.Enabled() {
		return time.Now().UnixNano()
	}
	return 0
}

// ArmBatch acquires a slot for each SQE of a submission under one hold of
// the pair's lock, and returns their DoneFuncs in order. The slice is the
// pair's scratch, good until the next call: the pair's one application
// thread is the only submitter. The submit call counts its batch once,
// with Submitted.
func (p *Pair) ArmBatch(es []SQE) []queue.DoneFunc {
	now := p.stamp()
	p.mu.Lock()
	dones := p.armed[:0]
	for i := range es {
		st := p.takeLocked()
		st.tag = es[i].Tag
		st.qd = es[i].QD
		st.issueNS = now
		dones = append(dones, st.done)
	}
	p.armed = dones
	p.mu.Unlock()
	return dones
}

// ArmToken acquires a slot for one operation on queue descriptor qd whose
// completion stays in the slot, and returns the qtoken that reads it and
// the DoneFunc to hand to its IoQueue.
func (p *Pair) ArmToken(qd int32) (queue.QToken, queue.DoneFunc) {
	now := p.stamp()
	p.mu.Lock()
	st := p.takeLocked()
	st.token = true
	st.qd = qd
	st.issueNS = now
	p.tokens++
	qt := st.qtoken()
	p.mu.Unlock()
	return qt, st.done
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

// complete is the target of every slab DoneFunc. The completion is stored
// in the slot: a tagged operation's slot goes on the CQ, a token
// operation's waits for its token, or its completion goes straight to the
// waiter blocked on it. A slot that is no longer armed (a stale double
// completion) drops the completion and frees its payload.
func (p *Pair) complete(st *opState, c queue.Completion) {
	p.mu.Lock()
	if !st.armed {
		p.mu.Unlock()
		c.SGA.Free()
		return
	}
	st.armed = false
	if st.issueNS != 0 {
		st.doneNS = time.Now().UnixNano()
	}
	st.comp = c
	if st.token {
		st.comp.Token = st.qtoken()
		if ch := st.ch; ch != nil {
			// Exactly this one waiter wakes, and delivery is its consume.
			// The channel has room for the one completion a token gets,
			// so the send, outside the lock, cannot block.
			comp, rec := p.consumeLocked(st)
			p.wakeups++
			p.mu.Unlock()
			p.record(rec)
			ch <- comp
			return
		}
		if w := st.any; w != nil {
			w.ready = append(w.ready, st.anyIdx)
		}
		p.mu.Unlock()
		return
	}
	p.cq.Push(st)
	p.cqPosted++
	p.mu.Unlock()
}

// lookupLocked resolves a qtoken to its slot: nil unless the slot's
// current use is the token operation qt names.
func (p *Pair) lookupLocked(qt queue.QToken) *opState {
	i := uint64(qt) & 0xffffffff
	if i >= uint64(len(p.slots)) {
		return nil
	}
	if st := p.slots[i]; st.token && st.qtoken() == qt {
		return st
	}
	return nil
}

// consumeLocked takes a completed token operation's completion out of its
// slot and releases the slot, returning the span to record, if any.
func (p *Pair) consumeLocked(st *opState) (queue.Completion, telemetry.SpanRecord) {
	c := st.comp
	var rec telemetry.SpanRecord
	if st.issueNS != 0 {
		rec = telemetry.SpanRecord{
			QD:       st.qd,
			Kind:     int(c.Kind),
			Err:      c.Err != nil,
			IssueNS:  st.issueNS,
			SubmitNS: st.issueNS,
			DoneNS:   st.doneNS,
			VirtCost: c.Cost,
		}
	}
	p.releaseLocked(st)
	return c, rec
}

// record files a consumed token operation's span; outside the pair's lock,
// because it reads the clock and takes the span table's.
func (p *Pair) record(rec telemetry.SpanRecord) {
	if rec.IssueNS == 0 || !p.spans.Enabled() {
		return
	}
	rec.ConsumeNS = time.Now().UnixNano()
	p.spans.Record(rec)
}

// TryWait returns qt's completion if it has arrived, consuming the token;
// ok is false while the operation is outstanding. A token that was never
// issued, or was already consumed, is queue.ErrUnknownToken.
func (p *Pair) TryWait(qt queue.QToken) (queue.Completion, bool, error) {
	p.mu.Lock()
	st := p.lookupLocked(qt)
	switch {
	case st == nil:
		p.mu.Unlock()
		return queue.Completion{}, false, queue.ErrUnknownToken
	case st.armed:
		p.mu.Unlock()
		return queue.Completion{}, false, nil
	}
	c, rec := p.consumeLocked(st)
	p.mu.Unlock()
	p.record(rec)
	return c, true, nil
}

// WaitChan subscribes the calling thread to qt's completion. The channel
// receives exactly one Completion, and the token is consumed at delivery.
// Only one waiter may subscribe per token (queue.ErrTokenClaimed) — the
// abstraction that removes epoll's thundering herd. If the completion has
// already arrived, it is delivered through the channel at once.
func (p *Pair) WaitChan(qt queue.QToken) (<-chan queue.Completion, error) {
	p.mu.Lock()
	st := p.lookupLocked(qt)
	switch {
	case st == nil:
		p.mu.Unlock()
		return nil, queue.ErrUnknownToken
	case st.ch != nil:
		p.mu.Unlock()
		return nil, queue.ErrTokenClaimed
	}
	ch := make(chan queue.Completion, 1)
	if st.armed {
		st.ch = ch
		p.mu.Unlock()
		return ch, nil
	}
	c, rec := p.consumeLocked(st)
	p.wakeups++
	p.mu.Unlock()
	p.record(rec)
	ch <- c
	return ch, nil
}

// SubscribeAny attaches w to qts in order, each under its index: a
// token's completion notes its index on w for TakeAny, without consuming
// the token. It stops at the first token that is unknown (the error) or
// has already completed, for which no note will come, and returns how
// many it attached: len(qts) when it attached them all. A token carries
// one subscription at a time.
func (p *Pair) SubscribeAny(w *AnyWaiter, qts []queue.QToken) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, qt := range qts {
		st := p.lookupLocked(qt)
		if st == nil {
			return i, queue.ErrUnknownToken
		}
		if !st.armed {
			return i, nil
		}
		st.any, st.anyIdx = w, i
	}
	return len(qts), nil
}

// UnsubscribeAny detaches w from each of qts that is still live and still
// subscribed to it.
func (p *Pair) UnsubscribeAny(w *AnyWaiter, qts []queue.QToken) {
	p.mu.Lock()
	for _, qt := range qts {
		if st := p.lookupLocked(qt); st != nil && st.any == w {
			st.any = nil
		}
	}
	p.mu.Unlock()
}

// TakeAny returns the index of one subscription that has completed since
// the last call, oldest first; ok is false when none has. The token it
// names may have been consumed by another waiter since.
func (p *Pair) TakeAny(w *AnyWaiter) (i int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(w.ready) == 0 {
		return 0, false
	}
	i = w.ready[0]
	w.ready = w.ready[1:]
	return i, true
}

// Harvest pops up to len(dst) completions, oldest first, each written
// into dst straight from its slot, which it releases.
func (p *Pair) Harvest(dst []CQE) int {
	p.mu.Lock()
	n := min(len(dst), p.cq.Len())
	for i := 0; i < n; i++ {
		st, d := p.cq.Pop(), &dst[i]
		d.Tag, d.Kind, d.Err, d.SGA, d.Cost = st.tag, st.comp.Kind, st.comp.Err, st.comp.SGA, st.comp.Cost
		d.qd, d.issueNS, d.doneNS = st.qd, st.issueNS, st.doneNS
		p.releaseLocked(st)
	}
	p.cqHarvested += int64(n)
	p.mu.Unlock()
	if n == 0 {
		return 0
	}
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
// when the stack died. It rewrites the latter in their slots — err,
// payload freed — so that every operation pending at the crash resolves
// to one CQE carrying err, and returns how many it rewrote: the
// operations this crash failed that the transport's own count does not
// hold. Nothing is left poisoned; the pair serves the next incarnation.
func (p *Pair) Reset(err error) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := 0; i < p.cq.Len(); i++ {
		c := &(*p.cq.At(i)).comp
		if !errors.Is(c.Err, err) {
			c.SGA.Free()
			c.SGA = sga.SGA{}
			c.Err = err
			n++
		}
	}
	p.cqFlushed += int64(n)
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
	// Tokens is token operations armed and not yet consumed; Wakeups is
	// blocking waiters woken, each with its completion.
	Tokens, Wakeups int64
	// SubmitBatch is the submit-size histogram (BatchBucketNames).
	SubmitBatch [len(batchBuckets) + 1]int64
}

// CountersSnapshot returns the pair's counter values.
func (p *Pair) CountersSnapshot() (c Counters) {
	p.mu.Lock()
	c.CQOccupancy = int64(p.cq.Len())
	c.CQCap = int64(p.cq.Cap())
	c.Slab = int64(len(p.slots))
	c.Tokens = p.tokens
	c.Wakeups = p.wakeups
	c.CQPosted, c.CQHarvested, c.CQFlushed = p.cqPosted, p.cqHarvested, p.cqFlushed
	p.mu.Unlock()
	c.Submitted = p.submitted.Load()
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
