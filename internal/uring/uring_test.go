package uring

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/telemetry"
)

// submit plays the libOS role for a pair against one MemQueue: arm a
// slot per SQE, all under one hold, and issue each op with its DoneFunc.
// MemQueue completes inline, so after submit returns the CQ holds the
// results.
func submit(t *testing.T, p *Pair, mq *queue.MemQueue, es ...SQE) {
	t.Helper()
	dones := p.ArmBatch(es)
	for i := range es {
		e, done := &es[i], dones[i]
		switch e.Op {
		case queue.OpPush:
			mq.Push(e.SGA, e.Cost, done)
		case queue.OpPop:
			mq.Pop(done)
		default:
			t.Fatalf("unknown op %v", e.Op)
		}
	}
	p.Submitted(len(es))
}

func payload(s string) sga.SGA {
	return sga.SGA{Segments: []sga.Segment{{Buf: []byte(s)}}}
}

func TestPairSubmitHarvestRoundTrip(t *testing.T) {
	p := NewPair(8)
	mq := queue.NewMemQueue(16)

	// Two pushes and two pops, batch-submitted with distinct tags.
	submit(t, p, mq,
		SQE{Op: queue.OpPush, QD: 3, Tag: 100, SGA: payload("alpha")},
		SQE{Op: queue.OpPush, QD: 3, Tag: 101, SGA: payload("beta")},
		SQE{Op: queue.OpPop, QD: 3, Tag: 200},
		SQE{Op: queue.OpPop, QD: 3, Tag: 201})
	if got := p.CountersSnapshot().Outstanding; got != 4 {
		t.Fatalf("Outstanding = %d, want 4", got)
	}

	var cqes [8]CQE
	n := p.Harvest(cqes[:])
	if n != 4 {
		t.Fatalf("Harvest = %d, want 4", n)
	}
	byTag := map[uint64]CQE{}
	for _, c := range cqes[:n] {
		byTag[c.Tag] = c
	}
	for _, tag := range []uint64{100, 101, 200, 201} {
		c, ok := byTag[tag]
		if !ok {
			t.Fatalf("no CQE for tag %d", tag)
		}
		if c.Err != nil {
			t.Fatalf("tag %d: err = %v", tag, c.Err)
		}
	}
	if got := string(byTag[200].SGA.Segments[0].Buf); got != "alpha" {
		t.Fatalf("pop tag 200 = %q, want alpha", got)
	}
	if got := string(byTag[201].SGA.Segments[0].Buf); got != "beta" {
		t.Fatalf("pop tag 201 = %q, want beta", got)
	}
	if got := p.CountersSnapshot().Outstanding; got != 0 {
		t.Fatalf("Outstanding after harvest = %d, want 0", got)
	}
}

// TestPairReservationBackpressure keeps its name from the capacity bound
// it used to test; what it holds now is the opposite: a pair takes every
// operation its application submits, growing slab and CQ past where they
// started, a slot armed before a growth completes after it, and storage
// stops growing at the application's high-water mark.
func TestPairReservationBackpressure(t *testing.T) {
	p := NewPair(4)
	mq := queue.NewMemQueue(0)

	// 100 pops that will not complete (queue empty, pops park as waiters).
	const ops = 100
	for i := 0; i < ops; i++ {
		submit(t, p, mq, SQE{Op: queue.OpPop, QD: 1, Tag: uint64(i)})
	}
	grown := p.CountersSnapshot()
	if grown.Outstanding != ops || grown.Slab < ops {
		t.Fatalf("outstanding %d, slab %d after %d parked pops", grown.Outstanding, grown.Slab, ops)
	}
	// Complete them all, first-armed first: the earliest slots are from
	// before every growth.
	for i := 0; i < ops; i++ {
		mq.Push(payload("x"), 0, func(queue.Completion) {})
	}
	var cqes [ops + 1]CQE
	if n := p.Harvest(cqes[:]); n != ops {
		t.Fatalf("Harvest = %d, want %d", n, ops)
	}
	for i, c := range cqes[:ops] {
		if c.Tag != uint64(i) || c.Err != nil {
			t.Fatalf("CQE %d: tag %d err %v", i, c.Tag, c.Err)
		}
	}
	// The same load again, many times: nothing grows further.
	high := p.CountersSnapshot()
	for round := 0; round < 50; round++ {
		for i := 0; i < ops; i++ {
			submit(t, p, mq, SQE{Op: queue.OpPop, QD: 1, Tag: uint64(i)})
		}
		for i := 0; i < ops; i++ {
			mq.Push(payload("x"), 0, func(queue.Completion) {})
		}
		if n := p.Harvest(cqes[:]); n != ops {
			t.Fatalf("round %d: Harvest = %d, want %d", round, n, ops)
		}
	}
	if now := p.CountersSnapshot(); now.Slab != high.Slab || now.CQCap != high.CQCap {
		t.Fatalf("storage crept: slab %d -> %d, cq %d -> %d", high.Slab, now.Slab, high.CQCap, now.CQCap)
	}
}

// TestPairResetFlushesBothRings keeps its name from the SQ/CQ pair; the
// one ring left is flushed in place and stays usable.
func TestPairResetFlushesBothRings(t *testing.T) {
	p := NewPair(8)
	mq := queue.NewMemQueue(16)
	boom := errors.New("local reset")

	// One completed-but-unharvested CQE...
	mq.Push(payload("pre"), 0, func(queue.Completion) {})
	submit(t, p, mq, SQE{Op: queue.OpPop, QD: 1, Tag: 1})
	// ...and two ops in flight, which the transport fails with the crash
	// error before the flush.
	for _, tag := range []uint64{2, 3} {
		done := p.ArmBatch([]SQE{{Op: queue.OpPop, QD: 1, Tag: tag}})[0]
		done(queue.Completion{Kind: queue.OpPop, Err: boom})
	}
	p.Submitted(2)

	if n := p.Reset(boom); n != 1 {
		t.Fatalf("Reset rewrote %d CQEs, want 1 (the unharvested completion)", n)
	}
	if n := p.Reset(boom); n != 0 {
		t.Fatalf("second Reset rewrote %d CQEs, want 0", n)
	}

	var cqes [8]CQE
	n := p.Harvest(cqes[:])
	if n != 3 {
		t.Fatalf("Harvest after reset = %d, want 3 (tags 1-3)", n)
	}
	for i, c := range cqes[:n] {
		if c.Tag != uint64(i+1) {
			t.Fatalf("CQE %d carries tag %d: the flush reordered the queue", i, c.Tag)
		}
		if !errors.Is(c.Err, boom) {
			t.Fatalf("tag %d: err = %v, want reset error", c.Tag, c.Err)
		}
		if len(c.SGA.Segments) != 0 {
			t.Fatalf("tag %d: payload survived the flush", c.Tag)
		}
	}
	if cnt := p.CountersSnapshot(); cnt.Outstanding != 0 || cnt.CQFlushed != 1 {
		t.Fatalf("outstanding %d, cq_flushed %d; want 0, 1", cnt.Outstanding, cnt.CQFlushed)
	}

	// Nothing is poisoned: the pair serves the next incarnation.
	fresh := queue.NewMemQueue(16)
	submit(t, p, fresh,
		SQE{Op: queue.OpPush, QD: 1, Tag: 9, SGA: payload("again")},
		SQE{Op: queue.OpPop, QD: 1, Tag: 10})
	if n := p.Harvest(cqes[:]); n != 2 || cqes[0].Err != nil || cqes[1].Err != nil ||
		string(cqes[1].SGA.Segments[0].Buf) != "again" {
		t.Fatalf("after reset: %d CQEs, %+v", n, cqes[:n])
	}
}

// TestPairDoubleCompletionDropped: a second completion of one tagged
// operation that arrives after the first, while the first waits in its
// slot for Harvest, is dropped and its payload freed; Harvest returns the
// first exactly once, payload intact.
func TestPairDoubleCompletionDropped(t *testing.T) {
	p := NewPair(4)
	done := p.ArmBatch([]SQE{{Op: queue.OpPop, QD: 1, Tag: 7}})[0]
	freed := map[string]int{}
	tracked := func(s string) sga.SGA {
		return payload(s).WithFree(func() { freed[s]++ })
	}
	done(queue.Completion{Kind: queue.OpPop, SGA: tracked("a")})
	done(queue.Completion{Kind: queue.OpPop, SGA: tracked("stale")})
	if got := p.CountersSnapshot().CQPosted; got != 1 {
		t.Fatalf("cq_posted = %d, want 1 (stale completion must drop)", got)
	}
	if freed["stale"] != 1 || freed["a"] != 0 {
		t.Fatalf("frees %v before harvest, want the stale payload's alone", freed)
	}
	var cqes [4]CQE
	if n := p.Harvest(cqes[:]); n != 1 || cqes[0].Tag != 7 || string(cqes[0].SGA.Bytes()) != "a" {
		t.Fatalf("Harvest = %d tag %d %q, want 1 tag 7 \"a\"", n, cqes[0].Tag, cqes[0].SGA.Bytes())
	}
	if n := p.Harvest(cqes[:]); n != 0 {
		t.Fatalf("second Harvest = %d, want 0", n)
	}
	cqes[0].SGA.Free()
	if freed["a"] != 1 || freed["stale"] != 1 {
		t.Fatalf("frees %v, want one each", freed)
	}
}

func TestPairTelemetryAndSpans(t *testing.T) {
	p := NewPair(8)
	mq := queue.NewMemQueue(16)
	spans := telemetry.NewSpanTable("test")
	spans.Enable()
	p.SetSpans(spans)

	mq.Push(payload("s"), 0, func(queue.Completion) {})
	submit(t, p, mq, SQE{Op: queue.OpPop, QD: 5, Tag: 1})
	var cqes [4]CQE
	if n := p.Harvest(cqes[:]); n != 1 {
		t.Fatalf("Harvest = %d, want 1", n)
	}
	cqes[0].SGA.Free()

	got := p.CountersSnapshot()
	want := Counters{Submitted: 1, CQPosted: 1, CQHarvested: 1, Slab: 8, CQCap: got.CQCap}
	want.SubmitBatch[0] = 1
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}

	sums := spans.Summaries()
	if len(sums) != 1 || sums[0].QD != 5 || sums[0].Ops != 1 {
		t.Fatalf("span summaries = %+v, want one op on qd 5", sums)
	}
}

// TestPairTokenStaleConsumedReissued: a token reads its slot only while
// the slot's current use is the operation it named. A token never issued,
// one already consumed, and one whose slot has since been reissued — to
// another token or to a tagged operation — are all ErrUnknownToken, on
// every face that takes a token.
func TestPairTokenStaleConsumedReissued(t *testing.T) {
	p := NewPair(1)
	unknown := func(what string, qt queue.QToken) {
		t.Helper()
		if _, _, err := p.TryWait(qt); !errors.Is(err, queue.ErrUnknownToken) {
			t.Fatalf("%s: TryWait err = %v", what, err)
		}
		if _, err := p.WaitChan(qt); !errors.Is(err, queue.ErrUnknownToken) {
			t.Fatalf("%s: WaitChan err = %v", what, err)
		}
		if _, err := p.SubscribeAny(&AnyWaiter{}, []queue.QToken{qt}); !errors.Is(err, queue.ErrUnknownToken) {
			t.Fatalf("%s: SubscribeAny err = %v", what, err)
		}
	}
	unknown("zero", 0)
	unknown("slot past the slab", 1<<32|7)

	first, done := p.ArmToken(1)
	unknown("right slot, wrong generation", first+1<<32)
	done(queue.Completion{Kind: queue.OpPop})
	if _, ok, err := p.TryWait(first); !ok || err != nil {
		t.Fatalf("TryWait: ok=%v err=%v", ok, err)
	}
	unknown("consumed", first)

	second, done := p.ArmToken(1)
	if second&0xffffffff != first&0xffffffff || second == first {
		t.Fatalf("one-slot pair issued %#x after %#x: want the same slot, a new generation", second, first)
	}
	unknown("slot reissued to a token", first)
	done(queue.Completion{Kind: queue.OpPop})
	unknown("slot reissued to a token, completed", first)
	if _, ok, err := p.TryWait(second); !ok || err != nil {
		t.Fatalf("TryWait(second): ok=%v err=%v", ok, err)
	}

	tagged := p.ArmBatch([]SQE{{Op: queue.OpPop, QD: 1, Tag: 5}})[0]
	unknown("slot reissued to a tag", second)
	tagged(queue.Completion{Kind: queue.OpPop})
	var cqes [2]CQE
	if n := p.Harvest(cqes[:]); n != 1 || cqes[0].Tag != 5 {
		t.Fatalf("Harvest = %d tag %d, want 1 tag 5", n, cqes[0].Tag)
	}
	unknown("slot reissued to a tag, harvested", second)
	if c := p.CountersSnapshot(); c.Tokens != 0 || c.Slab != 1 {
		t.Fatalf("tokens %d, slab %d; want 0, 1", c.Tokens, c.Slab)
	}
}

// TestPairTokensAndTagsShareSlab interleaves token and tagged operations on
// one slab: a token's completion stays in its slot and never reaches the
// CQ, a tag's reaches only the CQ, the CQ counters count tagged operations
// alone, and both kinds reuse the same slots.
func TestPairTokensAndTagsShareSlab(t *testing.T) {
	p := NewPair(2)
	mq := queue.NewMemQueue(0)
	var cqes [8]CQE
	for round := 0; round < 100; round++ {
		popQT, popDone := p.ArmToken(1)
		mq.Pop(popDone)
		submit(t, p, mq, SQE{Op: queue.OpPush, QD: 1, Tag: uint64(round), SGA: payload("tagged")})
		submit(t, p, mq, SQE{Op: queue.OpPop, QD: 1, Tag: 1 << 40})
		pushQT, pushDone := p.ArmToken(1)
		mq.Push(payload("token"), 0, pushDone)

		if n := p.Harvest(cqes[:]); n != 2 || cqes[0].Tag != uint64(round) || cqes[1].Tag != 1<<40 {
			t.Fatalf("round %d: harvested %d CQEs %+v, want the two tagged ones", round, n, cqes[:n])
		}
		if got := string(cqes[1].SGA.Segments[0].Buf); got != "token" {
			t.Fatalf("round %d: tagged pop got %q, want the token push's element", round, got)
		}
		c, ok, err := p.TryWait(popQT)
		if !ok || err != nil || string(c.SGA.Segments[0].Buf) != "tagged" {
			t.Fatalf("round %d: token pop ok=%v err=%v comp=%+v", round, ok, err, c)
		}
		if _, ok, err := p.TryWait(pushQT); !ok || err != nil {
			t.Fatalf("round %d: token push ok=%v err=%v", round, ok, err)
		}
	}
	c := p.CountersSnapshot()
	if c.Tokens != 0 || c.Outstanding != 0 || c.CQPosted != 200 || c.Submitted != 200 {
		t.Fatalf("counters = %+v; want no token or tag outstanding and 200 tagged CQEs", c)
	}
	if c.Slab != 4 {
		t.Fatalf("slab grew to %d for at most 3 operations in flight at once", c.Slab)
	}
}

// TestPairCompleterRaceStress: a completer goroutine fires tagged and
// token DoneFuncs while the application goroutine arms, harvests and
// waits, across one crash flush and the slab's growth. Every operation
// comes back exactly once — each tag harvested once, each token consumed
// once — and every payload is freed once, by the application or by the
// flush.
func TestPairCompleterRaceStress(t *testing.T) {
	const (
		rounds = 400
		batch  = 6
		burst  = 64 // one round arms this many more, growing the slab
	)
	p := NewPair(4)
	boom := errors.New("local reset")
	// Room for more than the largest round, so that arming seldom waits
	// on the completer; it never has to.
	fire := make(chan queue.DoneFunc, 2*burst)
	var frees atomic.Int64
	go func() {
		for done := range fire {
			done(queue.Completion{Kind: queue.OpPop, SGA: payload("x").WithFree(func() { frees.Add(1) })})
		}
	}()

	seen := map[uint64]int{}
	var live []queue.QToken // tokens armed and not yet consumed
	var cqes [16]CQE
	flushed, failed := 0, 0
	harvest := func() {
		for {
			n := p.Harvest(cqes[:])
			for _, c := range cqes[:n] {
				seen[c.Tag]++
				if errors.Is(c.Err, boom) {
					failed++
				}
				c.SGA.Free()
			}
			if n < len(cqes) {
				return
			}
		}
	}
	wait := func() {
		kept := live[:0]
		for _, qt := range live {
			c, ok, err := p.TryWait(qt)
			switch {
			case err != nil:
				t.Fatalf("TryWait(%#x): %v", qt, err)
			case ok:
				c.SGA.Free()
				if _, _, err := p.TryWait(qt); !errors.Is(err, queue.ErrUnknownToken) {
					t.Fatalf("token %#x consumed twice: %v", qt, err)
				}
			default:
				kept = append(kept, qt)
			}
		}
		live = kept
	}
	var tag uint64
	ops := 0
	for r := 0; r < rounds; r++ {
		n := batch
		if r == rounds/2 {
			n += burst
		}
		es := make([]SQE, n)
		for i := range es {
			tag++
			es[i] = SQE{Op: queue.OpPop, QD: 1, Tag: tag}
		}
		for _, done := range p.ArmBatch(es) {
			fire <- done
		}
		p.Submitted(n)
		qt, done := p.ArmToken(1)
		live = append(live, qt)
		fire <- done
		ops += n + 1
		if r == rounds/3 {
			for p.CountersSnapshot().CQOccupancy == 0 {
				runtime.Gosched()
			}
			flushed = p.Reset(boom)
		}
		harvest()
		wait()
	}
	for len(seen) < int(tag) || len(live) > 0 {
		harvest()
		wait()
		runtime.Gosched()
	}
	close(fire)

	for tg := uint64(1); tg <= tag; tg++ {
		if seen[tg] != 1 {
			t.Fatalf("tag %d harvested %d times", tg, seen[tg])
		}
	}
	c := p.CountersSnapshot()
	if c.Outstanding != 0 || c.Tokens != 0 || c.CQOccupancy != 0 || c.Slab < burst {
		t.Fatalf("counters %+v: want nothing outstanding and a slab grown past %d", c, burst)
	}
	if got := frees.Load(); got != int64(ops) {
		t.Fatalf("%d payloads freed for %d operations", got, ops)
	}
	if flushed == 0 || failed != flushed || c.CQFlushed != int64(flushed) {
		t.Fatalf("the flush rewrote %d completions (counted %d); %d came back failed", flushed, c.CQFlushed, failed)
	}
}
