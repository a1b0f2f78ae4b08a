package simclock

import (
	"testing"
	"time"
)

func TestDriftClockZeroIsIdentity(t *testing.T) {
	c := NewDriftClock()
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("undrifted clock should track real time: %v not in [%v, %v]", got, before, after)
	}
}

func TestDriftClockOffsetJumps(t *testing.T) {
	c := NewDriftClock()
	c.SetSkew(0, time.Hour)
	got := c.Now()
	want := time.Now().Add(time.Hour)
	if d := want.Sub(got); d < -time.Second || d > time.Second {
		t.Fatalf("offset clock off by %v", d)
	}
}

func TestDriftClockRunsFast(t *testing.T) {
	c := NewDriftClock()
	// 1e6 ppm doubles the clock's speed.
	c.SetSkew(1e6, 0)
	start := c.Now()
	time.Sleep(20 * time.Millisecond)
	elapsed := c.Now().Sub(start)
	if elapsed < 35*time.Millisecond {
		t.Fatalf("2x clock advanced only %v over ~20ms real", elapsed)
	}
}

func TestDriftClockSetSkewPreservesContinuity(t *testing.T) {
	c := NewDriftClock()
	c.SetSkew(1e6, 0)
	time.Sleep(5 * time.Millisecond)
	before := c.Now()
	c.SetSkew(0, 0) // discipline the clock again
	after := c.Now()
	if after.Before(before) {
		t.Fatalf("clock jumped backward across SetSkew: %v -> %v", before, after)
	}
	if d := after.Sub(before); d > 5*time.Millisecond {
		t.Fatalf("clock jumped forward %v across SetSkew", d)
	}
	// And it now runs at real speed.
	time.Sleep(10 * time.Millisecond)
	if d := c.Now().Sub(after); d > 30*time.Millisecond {
		t.Fatalf("disciplined clock still fast: %v over ~10ms", d)
	}
}

func TestDriftClockSkewReporting(t *testing.T) {
	c := NewDriftClock()
	c.SetSkew(250, -time.Second)
	if c.ppm != 250 || c.offset != -time.Second {
		t.Fatalf("skew = %v, %v", c.ppm, c.offset)
	}
}
