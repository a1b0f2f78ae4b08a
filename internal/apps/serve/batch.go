package serve

import (
	"demikernel/internal/core"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

// Batch is a client's ring: a round of requests pipelined on one
// connection as one submission, each request's push beside the pop of its
// response, completions harvested as they land. Steady state allocates
// nothing. One goroutine uses it; the ring attaches on the first Round.
type Batch struct {
	ring *uring.Pair
	sqes []uring.SQE
	cqes []uring.CQE
	gen  uint64
}

// Ring returns the batch's ring (nil before the first Round).
func (b *Batch) Ring() *uring.Pair { return b.ring }

// Round issues n requests on qd, request i the push of req(i) charged
// cost, and waits for all 2n completions. Each response goes to check,
// which says whether to count it, and is then freed. It returns how many
// responses were counted, their mean virtual cost, and the first error, of
// an operation or of check. Operations are tagged with the round's
// generation, so the completions of a round abandoned on an error are
// freed when a later one harvests them.
func (b *Batch) Round(lib *core.LibOS, qd core.QD, n int, cost simclock.Lat, req func(i int) sga.SGA, check func(resp sga.SGA) (bool, error)) (counted int, mean simclock.Lat, err error) {
	if b.ring == nil {
		b.ring = lib.AttachRing(2 * n)
	}
	if len(b.cqes) < 2*n {
		b.cqes = make([]uring.CQE, 2*n)
	}
	b.gen++
	gen := b.gen << 32
	sq := b.sqes[:0]
	for i := 0; i < n; i++ {
		sq = append(sq,
			uring.SQE{Op: queue.OpPush, QD: int32(qd), Tag: gen | tag(uint64(i), true), SGA: req(i), Cost: cost},
			uring.SQE{Op: queue.OpPop, QD: int32(qd), Tag: gen | tag(uint64(i), false)})
	}
	b.sqes = sq[:0]
	lib.SubmitBatch(b.ring, sq) //nolint:errcheck // a failed op is a CQE
	var total simclock.Lat
	for got := 0; got < len(sq); {
		k, werr := lib.WaitAnyRing(b.ring, b.cqes)
		if werr != nil {
			return 0, 0, werr
		}
		for i := range b.cqes[:k] {
			cq := &b.cqes[i]
			if cq.Tag&^uint64(0xffffffff) == gen {
				got++
				switch {
				case cq.Err != nil:
					err = firstErr(err, cq.Err)
				case cq.Kind == queue.OpPop:
					ok, cerr := check(cq.SGA)
					if ok {
						total += cq.Cost
						counted++
					}
					err = firstErr(err, cerr)
				}
			}
			cq.SGA.Free() // a response, or a straggler of an abandoned round
			*cq = uring.CQE{}
		}
	}
	if err != nil || counted == 0 {
		return counted, 0, err
	}
	return counted, total / simclock.Lat(counted), nil
}

// firstErr keeps the first of two errors.
func firstErr(first, next error) error {
	if first != nil {
		return first
	}
	return next
}
