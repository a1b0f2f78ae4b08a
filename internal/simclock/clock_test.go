package simclock

import (
	"testing"
	"time"
)

// now is the clock's reading as a time.Time.
func now(c *Clock) time.Time { return time.Unix(0, c.UnixNano()) }

func TestDriftClockZeroIsIdentity(t *testing.T) {
	c := NewClock()
	before := time.Now()
	got := now(c)
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("undrifted clock should track real time: %v not in [%v, %v]", got, before, after)
	}
}

func TestDriftClockOffsetJumps(t *testing.T) {
	c := NewClock()
	c.Step(time.Hour)
	got := now(c)
	want := time.Now().Add(time.Hour)
	if d := want.Sub(got); d < -time.Second || d > time.Second {
		t.Fatalf("offset clock off by %v", d)
	}
}

func TestDriftClockRunsFast(t *testing.T) {
	c := NewClock()
	// 1e6 ppm doubles the clock's speed.
	c.SetSkew(1e6)
	start := now(c)
	time.Sleep(20 * time.Millisecond)
	elapsed := now(c).Sub(start)
	if elapsed < 35*time.Millisecond {
		t.Fatalf("2x clock advanced only %v over ~20ms real", elapsed)
	}
}

func TestDriftClockSetSkewPreservesContinuity(t *testing.T) {
	c := NewClock()
	c.SetSkew(1e6)
	time.Sleep(5 * time.Millisecond)
	before := now(c)
	c.SetSkew(0) // discipline the clock again
	after := now(c)
	if after.Before(before) {
		t.Fatalf("clock jumped backward across SetSkew: %v -> %v", before, after)
	}
	if d := after.Sub(before); d > 5*time.Millisecond {
		t.Fatalf("clock jumped forward %v across SetSkew", d)
	}
	// And it now runs at real speed.
	time.Sleep(10 * time.Millisecond)
	if d := now(c).Sub(after); d > 30*time.Millisecond {
		t.Fatalf("disciplined clock still fast: %v over ~10ms", d)
	}
}

func TestDriftClockSkewReporting(t *testing.T) {
	c := NewClock()
	c.SetSkew(250)
	if s := c.seg.Load(); s.rate != 1+250/1e6 {
		t.Fatalf("rate = %v", s.rate)
	}
}

// A clock stopped with SetSkew(-1e6) stands still however long the
// host takes, and moves by exactly what Step gives it, back or forward.
// A step outlives a later SetSkew: skewing never takes the clock back.
func TestClockStopsAndSteps(t *testing.T) {
	c := NewClock()
	c.SetSkew(-1e6)
	start := c.UnixNano()
	time.Sleep(5 * time.Millisecond)
	if got := c.UnixNano(); got != start {
		t.Fatalf("stopped clock moved %v", time.Duration(got-start))
	}
	c.Step(time.Minute)
	c.Step(-time.Second)
	if got := time.Duration(c.UnixNano() - start); got != time.Minute-time.Second {
		t.Fatalf("stepped %v, want %v", got, time.Minute-time.Second)
	}
	stepped := c.UnixNano()
	c.SetSkew(-1e6)
	c.SetSkew(0)
	if got := c.UnixNano(); got < stepped {
		t.Fatalf("SetSkew after Step took the clock back %v", time.Duration(stepped-got))
	}
}

// An undrifted read takes no lock and allocates nothing.
func TestClockReadAllocatesNothing(t *testing.T) {
	c := NewClock()
	if n := testing.AllocsPerRun(1000, func() { _ = c.UnixNano() }); n != 0 {
		t.Fatalf("a read allocated %v times", n)
	}
}
