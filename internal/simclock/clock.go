package simclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a node's clock: every protocol timer, wait deadline and
// dead-peer deadline on the node reads it, so a test that steps it moves
// all of them at once. A kernel-bypass stack keeps its own protocol timers
// (RTO, keepalive) in userspace, trusting whatever clock the process sees;
// nothing below it disciplines that clock. Clock models the consequence:
// it reads real time scaled by a drift rate (parts per million) plus
// whatever it was stepped by, so a node can run fast (timers fire early →
// spurious retransmits), slow (dead-peer detection is late), jump, or
// stand still and move only when stepped.
//
// A Clock comes from NewClock. All methods are safe for concurrent use.
// A read takes no lock and allocates nothing: the monotonic time since the
// clock was made plus one atomic load, which finds nothing to apply until
// the clock is first skewed or stepped.
type Clock struct {
	epoch time.Time // when the clock was made, monotonic reading included
	wall  int64     // epoch in Unix nanoseconds

	mu  sync.Mutex // serialises SetSkew and Step
	seg atomic.Pointer[segment]
}

// segment is one stretch of constant skew: real and virt are the real and
// the virtual time since epoch at which it began.
type segment struct {
	real, virt time.Duration
	rate       float64 // virtual per real nanosecond: 1 + ppm/1e6
}

// NewClock returns an undrifted clock: it reads the wall clock until it
// is skewed or stepped.
func NewClock() *Clock {
	epoch := time.Now()
	return &Clock{epoch: epoch, wall: epoch.UnixNano()}
}

// UnixNano returns the clock's current time in Unix nanoseconds.
func (c *Clock) UnixNano() int64 {
	t := time.Since(c.epoch)
	if s := c.seg.Load(); s != nil {
		t = s.at(t)
	}
	return c.wall + int64(t)
}

// at is the virtual time since epoch at real time since epoch.
func (s *segment) at(real time.Duration) time.Duration {
	return s.virt + time.Duration(float64(real-s.real)*s.rate)
}

// fold returns a segment that begins now and goes on as the current one
// does: the slope so far is folded into its virt.
func (c *Clock) fold() segment {
	real := time.Since(c.epoch)
	s := segment{real: real, virt: real, rate: 1}
	if old := c.seg.Load(); old != nil {
		s.virt, s.rate = old.at(real), old.rate
	}
	return s
}

// SetSkew replaces the clock's drift rate (ppm, parts per million; 1e6
// doubles the clock's speed, -1e6 stops it). The current virtual time is
// preserved across the change — skew alters the slope from now on, it
// does not rewind history or undo a Step (a monotonic-ish clock, as Go's
// own runtime clock is).
func (c *Clock) SetSkew(ppm float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.fold()
	s.rate = 1 + ppm/1e6
	c.seg.Store(&s)
}

// Step moves the clock by d at once (back, for a negative d), keeping its
// drift rate. A clock stopped with SetSkew(-1e6) moves only by Step: a
// hand-stepped clock.
func (c *Clock) Step(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.fold()
	s.virt += d
	c.seg.Store(&s)
}
