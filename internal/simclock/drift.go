package simclock

import (
	"sync"
	"time"
)

// DriftClock is a virtual wall clock with injectable skew, the per-node
// clock of a node spawned WithLifecycle. A kernel-bypass stack
// keeps its own protocol timers (RTO, keepalive) in userspace, trusting
// whatever clock the process sees; nothing below it disciplines that
// clock. DriftClock models the consequence: Now() returns real time
// scaled by a drift rate (parts-per-million) plus a step offset, so a
// node can run fast (timers fire early → spurious retransmits), slow
// (dead-peer detection is late), or jump.
//
// The zero DriftClock is a valid undrifted clock. All methods are safe
// for concurrent use; Now is a mutex-guarded few-ns read, acceptable on
// the timer path (it is consulted once per Poll tick, not per frame).
type DriftClock struct {
	mu     sync.Mutex
	base   time.Time     // real instant the current segment started
	virt   time.Time     // virtual instant at base
	ppm    float64       // drift rate, parts per million
	offset time.Duration // step offset applied on top of drift
}

// NewDriftClock returns an undrifted clock (Now == time.Now until skew
// is injected).
func NewDriftClock() *DriftClock { return &DriftClock{} }

// Now returns the clock's current virtual time.
func (c *DriftClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nowLocked(time.Now())
}

func (c *DriftClock) nowLocked(real time.Time) time.Time {
	if c.base.IsZero() {
		// Undrifted and never skewed: identity.
		if c.ppm == 0 && c.offset == 0 {
			return real
		}
		c.base = real
		c.virt = real
	}
	elapsed := real.Sub(c.base)
	scaled := elapsed + time.Duration(float64(elapsed)*c.ppm/1e6)
	return c.virt.Add(scaled + c.offset)
}

// SetSkew replaces the clock's drift rate (ppm, parts per million; 1e6
// doubles the clock's speed) and step offset. The current virtual time
// is preserved across the change — skew alters the slope from now on,
// it does not rewind history (a monotonic-ish clock, as Go's own
// runtime clock is).
func (c *DriftClock) SetSkew(ppm float64, offset time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	real := time.Now()
	// Re-base: fold accumulated drift into virt, then start the new
	// slope from here. The old offset is folded in too; the new offset
	// applies fresh.
	cur := c.nowLocked(real)
	c.base = real
	c.virt = cur.Add(-c.offset) // keep pre-offset continuity; offset re-applies below
	c.ppm = ppm
	c.offset = offset
}
