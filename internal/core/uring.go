package core

// Batched submission with a completion ring. The libOS is linked into
// the application, so there is no crossing for a submission queue to
// avoid: SubmitBatch is a call that arms one ring slot per SQE and
// stages the operation on its queue at once — a ring of SQEs drained by
// the next Poll would only defer that work, and cost the poll a walk
// over every attached ring. What a batch saves is pumps and tokens: its
// operations are staged first and each queue is pumped once, so 32
// pushes leave as MSS-sized segments, and their completions come back
// tagged on the ring's CQ (internal/uring), harvested in bulk with no
// allocation. Push/Pop/Wait is the same path one operation at a time: a
// slot of the libOS's own token ring, read through its qtoken. Poll does
// not touch a ring.

import (
	"demikernel/internal/queue"
	"demikernel/internal/telemetry"
	"demikernel/internal/uring"
)

// AttachRing creates a completion ring whose slab starts at capacity
// slots and returns it. The libOS keeps it for three things only: the
// uring.* telemetry sums, Rings, and the crash flush. The ring inherits
// the libOS's span table, so issue→complete attribution keeps working
// when operations carry tags instead of tokens. One application thread
// owns the returned pair; it outlives Crash and Restart.
func (l *LibOS) AttachRing(capacity int) *uring.Pair {
	p := uring.NewPair(capacity)
	p.SetSpans(l.spans)
	l.mu.Lock()
	l.rings = append(l.rings, p)
	l.mu.Unlock()
	return p
}

// Rings returns the attached ring pairs (telemetry and stat tools).
func (l *LibOS) Rings() []*uring.Pair {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*uring.Pair(nil), l.rings...)
}

// SubmitBatch issues es against the descriptor table, completions to
// arrive on p's CQ under each SQE's tag, and returns len(es): a ring
// holds what its application submits. An operation on a queue with the
// batched face (queue.BatchIoQueue) is staged without a pump, and the
// queue is pumped once when the batch moves on to another queue or ends
// — so a batch that keeps each queue's SQEs together pays one pump per
// queue (the clients' batches are on one connection; a server's follows
// completion order, which runs connection by connection within a poll),
// and a batch of one pays what Push or Pop pays. Other queues take Push
// and Pop as they are. A bad descriptor or operation kind completes its
// SQE with the error.
func (l *LibOS) SubmitBatch(p *uring.Pair, es []uring.SQE) (int, error) {
	// Memoize the last QD resolved: batches overwhelmingly target one
	// descriptor, so the common case takes the table lock once per
	// batch, not once per op.
	var (
		lastQD QD
		iq     queue.IoQueue
		bq     queue.BatchIoQueue
	)
	dones := p.ArmBatch(es)
	for i := range es {
		sqe, done := &es[i], dones[i]
		if iq == nil || QD(sqe.QD) != lastQD {
			if bq != nil {
				iq.Pump()
			}
			iq, bq = nil, nil
			d, err := l.get(QD(sqe.QD))
			if err != nil {
				done(queue.Completion{Kind: sqe.Op, Err: err})
				continue
			}
			lastQD, iq = QD(sqe.QD), d.ioq()
			bq, _ = iq.(queue.BatchIoQueue)
		}
		switch {
		case sqe.Op == queue.OpPush && bq != nil:
			bq.PushBatched(sqe.SGA, sqe.Cost, done)
		case sqe.Op == queue.OpPush:
			iq.Push(sqe.SGA, sqe.Cost, done)
		case sqe.Op == queue.OpPop && bq != nil:
			bq.PopBatched(done)
		case sqe.Op == queue.OpPop:
			iq.Pop(done)
		default:
			done(queue.Completion{Kind: sqe.Op, Err: ErrNotSupported})
		}
	}
	if bq != nil {
		iq.Pump()
	}
	p.Submitted(len(es))
	return len(es), nil
}

// HarvestCQ pops up to len(dst) completions from an attached ring
// without polling, for dispatch by user tag.
func (l *LibOS) HarvestCQ(p *uring.Pair, dst []uring.CQE) int {
	return p.Harvest(dst)
}

// WaitAnyRing polls the data path until at least one completion can be
// harvested from p, fills dst, and returns the count. It replaces
// WaitAny for ring-path applications: completions arrive tagged, so
// there is no token slice to rescan. Operations pending at a crash
// surface here as CQEs carrying the typed reset error. Bounded by
// WaitTimeout.
func (l *LibOS) WaitAnyRing(p *uring.Pair, dst []uring.CQE) (n int, err error) {
	if !l.pollUntil(l.deadline(), func() bool {
		n = p.Harvest(dst)
		return n > 0
	}) {
		return 0, timeoutErr("wait-any-ring", l.WaitTimeout)
	}
	return n, nil
}

// registerRingTelemetry publishes the uring.* counter family as
// read-time closures that sum across every attached pair, so rings
// attached *after* telemetry registration are still counted (pairs
// attach lazily, on an application's first batch). sq_posted is
// operations submitted: the name, like sq_full_spins (nothing refuses a
// submission any more, so it reads 0), is one benchmark/ sums by.
func (l *LibOS) registerRingTelemetry(r *telemetry.Registry, prefix string) {
	sum := func(pick func(uring.Counters) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, p := range l.Rings() {
				total += pick(p.CountersSnapshot())
			}
			return total
		}
	}
	r.RegisterFunc(prefix+".pairs", func() int64 { return int64(len(l.Rings())) })
	r.RegisterFunc(prefix+".sq_posted", sum(func(c uring.Counters) int64 { return c.Submitted }))
	r.RegisterFunc(prefix+".sq_full_spins", func() int64 { return 0 })
	r.RegisterFunc(prefix+".cq_posted", sum(func(c uring.Counters) int64 { return c.CQPosted }))
	r.RegisterFunc(prefix+".cq_harvested", sum(func(c uring.Counters) int64 { return c.CQHarvested }))
	r.RegisterFunc(prefix+".cq_flushed", sum(func(c uring.Counters) int64 { return c.CQFlushed }))
	r.RegisterFunc(prefix+".cq_occupancy", sum(func(c uring.Counters) int64 { return c.CQOccupancy }))
	r.RegisterFunc(prefix+".outstanding", sum(func(c uring.Counters) int64 { return c.Outstanding }))
	r.RegisterFunc(prefix+".slab", sum(func(c uring.Counters) int64 { return c.Slab }))
	for i, name := range uring.BatchBucketNames() {
		i := i
		r.RegisterFunc(prefix+".submit_batch."+name, sum(func(c uring.Counters) int64 { return c.SubmitBatch[i] }))
	}
}

// FlushRings is the ring half of Node.Crash, run after the transport has
// failed every operation in flight: completions no one had harvested are
// rewritten to err (uring.Pair.Reset), so every ring operation pending
// at the crash resolves to exactly one typed-error CQE. It returns how
// many it rewrote.
func (l *LibOS) FlushRings(err error) int {
	n := 0
	for _, p := range l.Rings() {
		n += p.Reset(err)
	}
	return n
}
