package chaos

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"demikernel/internal/simclock"
)

// stoppedClock is a clock that moves only when the test steps it.
func stoppedClock() *simclock.Clock {
	c := simclock.NewClock()
	c.SetSkew(-1e6)
	return c
}

// stepThrough is Run on a stopped clock: it steps the engine, then the
// clock by tick, until total has passed and every event has fired.
func stepThrough(e *Engine, clock *simclock.Clock, total, tick time.Duration) {
	end := clock.UnixNano() + int64(total)
	for e.Step(); clock.UnixNano() < end || !e.Done(); e.Step() {
		clock.Step(tick)
	}
}

func TestEventsFireInOffsetOrder(t *testing.T) {
	clock := stoppedClock()
	e := New(1, clock)
	var got []string
	record := func(name string) func() {
		return func() { got = append(got, name) }
	}
	// Scheduled out of order on purpose.
	e.At(2*time.Millisecond, "second", record("second"))
	e.At(0, "first", record("first"))
	e.At(5*time.Millisecond, "third", record("third"))

	stepThrough(e, clock, 6*time.Millisecond, time.Millisecond)
	if !e.Done() {
		t.Fatal("the schedule did not complete")
	}
	want := []string{"first", "second", "third"}
	fired := e.Fired()
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] || got[i] != want[i] {
			t.Fatalf("order: fired=%v injected=%v, want %v", fired, got, want)
		}
	}
}

func TestEachEventFiresExactlyOnce(t *testing.T) {
	e := New(2, stoppedClock())
	count := 0
	e.At(0, "once", func() { count++ })
	e.Start()
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if count != 1 {
		t.Fatalf("event fired %d times, want 1", count)
	}
}

func TestStepReportsDueEvents(t *testing.T) {
	e := New(3, stoppedClock())
	e.At(0, "a", func() {})
	e.At(0, "b", func() {})
	e.At(time.Hour, "never", func() {})
	e.Start()
	if n := e.Step(); n != 2 {
		t.Fatalf("Step fired %d, want 2", n)
	}
	if e.Done() {
		t.Fatal("Done with a future event still scheduled")
	}
}

func TestEqualOffsetsFireInSchedulingOrder(t *testing.T) {
	e := New(4, stoppedClock())
	var got []string
	for _, name := range []string{"x", "y", "z"} {
		n := name
		e.At(0, n, func() { got = append(got, n) })
	}
	e.Start()
	e.Step()
	if len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Fatalf("equal-offset order: %v", got)
	}
}

func TestSeededRandDeterministic(t *testing.T) {
	a, b := New(7, stoppedClock()), New(7, stoppedClock())
	for i := 0; i < 32; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("two engines with the same seed diverged")
		}
	}
}

func TestSchedulingAfterStart(t *testing.T) {
	e := New(5, stoppedClock())
	e.At(0, "early", func() {})
	e.Start()
	e.Step()
	fired := false
	e.At(0, "late", func() { fired = true }) // offset already elapsed
	e.Step()
	if !fired {
		t.Fatal("event scheduled after Start never fired")
	}
	if f := e.Fired(); len(f) != 2 || f[1] != "late" {
		t.Fatalf("fired = %v", f)
	}
}

// TestScheduleReplaysFromSeed: a schedule drawn from the engine's seed and
// stepped on a stopped clock through the same offsets fires the same
// events at the same offsets every time, each at the first step past its
// own.
func TestScheduleReplaysFromSeed(t *testing.T) {
	const tick = 700 * time.Microsecond
	run := func() []FiredEvent {
		clock := stoppedClock()
		e := New(13, clock)
		for i := 0; i < 16; i++ {
			e.At(time.Duration(e.Rand().Int63n(int64(20*time.Millisecond))), fmt.Sprint("event", i), func() {})
		}
		stepThrough(e, clock, 20*time.Millisecond, tick)
		return e.FiredEvents()
	}
	first, second := run(), run()
	if len(first) != 16 || !slices.Equal(first, second) {
		t.Fatalf("one seed fired\n\t%v\nthen\n\t%v", first, second)
	}
	for _, ev := range first {
		if ev.FiredAt%tick != 0 || ev.FiredAt < ev.At || ev.FiredAt >= ev.At+tick {
			t.Fatalf("%q, due at %v, fired at %v: want the first step of %v at or past it", ev.Name, ev.At, ev.FiredAt, tick)
		}
	}
}
