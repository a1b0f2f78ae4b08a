package queue

import (
	"errors"
	"math/rand"
	"testing"

	"demikernel/internal/sga"
)

// popRecorder is a pop whose answer is kept: answered counts how often it
// was, which must end at exactly once.
type popRecorder struct {
	c        Completion
	answered int
}

func (r *popRecorder) done(c Completion) { r.c = c; r.answered++ }

// numbered is a completion whose SGA counts its frees in *freed.
func numbered(i int, freed *int) Completion {
	return Completion{Kind: OpPop, SGA: sga.New([]byte{byte(i)}).WithFree(func() { *freed++ }), Cost: 1}
}

// answer fires what Pop returned, as an owner does once its lock is free.
func answer(p *PopSide, r *popRecorder) {
	if c, ok := p.Pop(r.done); ok {
		r.done(c)
	}
}

func deliver(p *PopSide, c Completion) {
	if w, ok := p.Deliver(c); ok {
		w(c)
	}
}

func TestPopSideHeldThenParked(t *testing.T) {
	var p PopSide
	freed := 0
	deliver(&p, numbered(0, &freed))
	deliver(&p, numbered(1, &freed))
	if p.Held() != 2 || p.Parked() != 0 {
		t.Fatalf("held %d, parked %d; want 2, 0", p.Held(), p.Parked())
	}
	var r [4]popRecorder
	for i := range r {
		answer(&p, &r[i])
	}
	for i := 0; i < 2; i++ {
		if r[i].answered != 1 || r[i].c.SGA.Bytes()[0] != byte(i) {
			t.Fatalf("pop %d answered %d times with %v", i, r[i].answered, r[i].c.SGA.Bytes())
		}
	}
	if r[2].answered+r[3].answered != 0 || p.Parked() != 2 {
		t.Fatalf("pops on an empty side answered (%d, %d), %d parked", r[2].answered, r[3].answered, p.Parked())
	}
	// The oldest parked pop gets the next completion.
	deliver(&p, numbered(2, &freed))
	if r[2].answered != 1 || r[2].c.SGA.Bytes()[0] != 2 || r[3].answered != 0 || p.Held() != 0 {
		t.Fatalf("delivery went to (%d, %d), %d held", r[2].answered, r[3].answered, p.Held())
	}
	if freed != 0 {
		t.Fatalf("an open side freed %d completions", freed)
	}
}

func TestPopSideFail(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	var p PopSide
	var parked [2]popRecorder
	answer(&p, &parked[0])
	answer(&p, &parked[1])
	d := p.Fail(first)
	if len(d.Pops) != 2 || d.Err != first || p.Parked() != 0 {
		t.Fatalf("Fail took %d pops with %v, left %d parked", len(d.Pops), d.Err, p.Parked())
	}
	if n := d.Settle(); n != 2 || parked[0].c.Err != first || parked[1].c.Err != first {
		t.Fatalf("Settle failed %d pops with %v, %v", n, parked[0].c.Err, parked[1].c.Err)
	}
	// The first error wins, and nothing parks behind it.
	if d := p.Fail(second); len(d.Pops) != 0 || p.Err() != first {
		t.Fatalf("second Fail: %d pops, error %v", len(d.Pops), p.Err())
	}
	var r popRecorder
	answer(&p, &r)
	if r.answered != 1 || r.c.Err != first {
		t.Fatalf("pop after Fail: answered %d with %v", r.answered, r.c.Err)
	}
	// What is held is popped before the error.
	freed := 0
	deliver(&p, numbered(7, &freed))
	var h, e popRecorder
	answer(&p, &h)
	answer(&p, &e)
	if h.c.Err != nil || h.c.SGA.Bytes()[0] != 7 || e.c.Err != first {
		t.Fatalf("held then error: got %v / %v", h.c.Err, e.c.Err)
	}
	// Revive clears it: pops park again.
	p.Revive()
	var again popRecorder
	answer(&p, &again)
	if again.answered != 0 || p.Parked() != 1 || p.Err() != nil {
		t.Fatalf("pop after Revive answered %d times (%v), %d parked", again.answered, again.c.Err, p.Parked())
	}
}

func TestPopSideCrashFreesHeld(t *testing.T) {
	crash := errors.New("crash")
	var p PopSide
	freed := 0
	deliver(&p, numbered(0, &freed))
	deliver(&p, numbered(1, &freed))
	d := p.Crash(crash)
	if len(d.Held) != 2 || d.Err != crash || p.Held() != 0 {
		t.Fatalf("Crash took %d held with %v, left %d", len(d.Held), d.Err, p.Held())
	}
	if freed != 0 {
		t.Fatal("Crash freed under the owner's lock")
	}
	d.Settle()
	if freed != 2 {
		t.Fatalf("Settle freed %d of 2", freed)
	}
	var r popRecorder
	answer(&p, &r)
	if r.c.Err != crash {
		t.Fatalf("pop after Crash: %v", r.c.Err)
	}
	// Parked pops fail with the crash error too.
	var q PopSide
	var parked popRecorder
	answer(&q, &parked)
	if n := q.Crash(crash).Settle(); n != 1 || parked.c.Err != crash {
		t.Fatalf("Crash failed %d parked pops with %v", n, parked.c.Err)
	}
}

func TestPopSideClose(t *testing.T) {
	freed := 0
	// Close frees what is held ...
	var p PopSide
	deliver(&p, numbered(0, &freed))
	p.Fail(errors.New("dead"))
	if n := p.Close().Settle(); n != 0 || freed != 1 {
		t.Fatalf("Close failed %d pops, freed %d of 1 held", n, freed)
	}
	// ... and closed comes before everything, the error included ...
	var r popRecorder
	answer(&p, &r)
	if r.c.Err != ErrClosed {
		t.Fatalf("pop on a closed side: %v", r.c.Err)
	}
	// ... and a completion delivered after it is freed, not held.
	deliver(&p, numbered(1, &freed))
	if freed != 2 || p.Held() != 0 {
		t.Fatalf("a delivery to a closed side: freed %d of 2, %d held", freed, p.Held())
	}
	// Parked pops fail with ErrClosed.
	var q PopSide
	var parked popRecorder
	answer(&q, &parked)
	if n := q.Close().Settle(); n != 1 || parked.c.Err != ErrClosed || !q.Closed() {
		t.Fatalf("Close failed %d parked pops with %v", n, parked.c.Err)
	}
}

// TestPopSideInvariant drives a side with random pops, deliveries, fails,
// revivals and finally a close or a crash, and checks after every step that
// a pop parks only while nothing is held, and at the end that every pop
// was answered exactly once and every completion was popped or freed
// exactly once, in delivery order.
func TestPopSideInvariant(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p PopSide
		var pops []*popRecorder
		freed := make([]int, 0, 64)
		delivered, popped := 0, 0
		for step := 0; step < 64; step++ {
			switch k := rng.Intn(10); {
			case k < 4:
				r := new(popRecorder)
				pops = append(pops, r)
				answer(&p, r)
			case k < 8:
				freed = append(freed, 0)
				deliver(&p, numbered(delivered, &freed[len(freed)-1]))
				delivered++
			case k == 8:
				p.Fail(errors.New("fail")).Settle()
			default:
				p.Revive()
			}
			if p.Parked() > 0 && p.Held() > 0 {
				t.Fatalf("seed %d step %d: %d pops parked beside %d held", seed, step, p.Parked(), p.Held())
			}
		}
		if rng.Intn(2) == 0 {
			p.Close().Settle()
		} else {
			p.Crash(errors.New("crash")).Settle()
		}
		next := 0
		for i, r := range pops {
			if r.answered != 1 {
				t.Fatalf("seed %d: pop %d answered %d times", seed, i, r.answered)
			}
			if r.c.Err == nil {
				if got := int(r.c.SGA.Bytes()[0]); got != next {
					t.Fatalf("seed %d: pop %d got completion %d, want %d", seed, i, got, next)
				}
				next++
				popped++
			}
		}
		for i := 0; i < delivered; i++ {
			want := 0
			if i >= popped {
				want = 1
			}
			if freed[i] != want {
				t.Fatalf("seed %d: completion %d (of %d, %d popped) freed %d times", seed, i, delivered, popped, freed[i])
			}
		}
	}
}
