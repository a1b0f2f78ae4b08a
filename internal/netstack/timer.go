package netstack

import "demikernel/internal/telemetry"

// Every connection has one timer — retransmission, zero-window persist
// and the give-up budget share it — and the stack keeps the armed ones in
// a min-heap, so a poll looks at the earliest deadline only and an idle
// connection costs it nothing.
//
// The heap is lazy, because arm and clear run once per segment: arming a
// connection that already has an entry only rewrites c.deadline, clearing
// only zeroes it, and the entry keeps the (at, seq) it was sorted by. What
// holds throughout is that an armed connection's entry sorts no later than
// its true (deadline, armSeq); a deadline that moves *earlier* (rto reset
// after backoff, a clock stepped back) therefore re-sorts at once. The
// tick drops cleared entries off the head before it reads the clock, due
// or not (a request's timer is cleared by the reply that the tick's own
// poll took in), then brings a due head up to date — sift it down if
// re-armed — and fires it only once entry and connection agree, at which
// point no other connection can be due before it. Equal deadlines fire in
// arm order, so one seed gives one retransmission order.
//
// A connection leaving s.conns takes its entry with it (forgetLocked).

// timerEntry is one heap slot: the key c was last sorted by, and c.
type timerEntry struct {
	at  int64
	seq uint32
	c   *TCPConn
}

func (e *timerEntry) before(o *timerEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return int32(e.seq-o.seq) < 0
}

// shareClockLocked opens a stretch of one hold of the stack's lock —
// a pollLocked, a trySendLocked loop — over which the timers read the clock
// at most once: arming per segment sent and ticking per poll otherwise cost
// a clock read each. The stretches nest, and the read is forgotten when the
// outermost ends, which is before the lock is released: a clock stepped
// between two calls into the stack is always seen. The end is deferred
// where the stretch opens, so no return path can leave one open.
func (s *Stack) shareClockLocked() { s.clockShares++ }

func (s *Stack) unshareClockLocked() {
	if s.clockShares--; s.clockShares == 0 {
		s.clockRead = 0
	}
}

// nowLocked is the stack clock in nanoseconds for the timers: read afresh
// outside a shared stretch, once — by whoever asks first — inside one.
func (s *Stack) nowLocked() int64 {
	if s.clockShares == 0 {
		return s.clock.UnixNano()
	}
	if s.clockRead == 0 {
		s.clockRead = s.clock.UnixNano()
	}
	return s.clockRead
}

func (c *TCPConn) armTimerLocked() {
	s := c.stack
	s.armSeq++
	c.armSeq = s.armSeq
	c.deadline = s.nowLocked() + int64(c.rto)
	if c.timerSlot == 0 {
		s.timers = append(s.timers, timerEntry{at: c.deadline, seq: c.armSeq, c: c})
		s.timerUpLocked(len(s.timers) - 1)
	} else if i := int(c.timerSlot) - 1; c.deadline < s.timers[i].at {
		s.timers[i].at, s.timers[i].seq = c.deadline, c.armSeq
		s.timerUpLocked(i)
	}
}

func (c *TCPConn) clearTimerLocked() {
	c.deadline = 0
}

// timerUpLocked sifts entry i toward the root and records where it and
// everything it passed ended up.
func (s *Stack) timerUpLocked(i int) {
	h := s.timers
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].c.timerSlot = int32(i + 1)
		i = parent
	}
	h[i] = e
	e.c.timerSlot = int32(i + 1)
}

// timerDownLocked is timerUpLocked toward the leaves.
func (s *Stack) timerDownLocked(i int) {
	h := s.timers
	e := h[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && h[r].before(&h[kid]) {
			kid = r
		}
		if !h[kid].before(&e) {
			break
		}
		h[i] = h[kid]
		h[i].c.timerSlot = int32(i + 1)
		i = kid
	}
	h[i] = e
	e.c.timerSlot = int32(i + 1)
}

// timerRemoveLocked disarms c and drops its heap entry, if it has one.
func (s *Stack) timerRemoveLocked(c *TCPConn) {
	c.deadline = 0
	if c.timerSlot == 0 {
		return
	}
	i, last := int(c.timerSlot)-1, len(s.timers)-1
	c.timerSlot = 0
	moved := s.timers[last]
	s.timers[last] = timerEntry{}
	s.timers = s.timers[:last]
	if last == 0 && cap(s.timers) > 64 {
		s.timers = nil // a connect burst's worth of slots: give them back
	}
	if i == last {
		return
	}
	s.timers[i] = moved
	s.timerDownLocked(i)
	if s.timers[i].c == moved.c {
		s.timerUpLocked(i)
	}
}

// forgetLocked takes a finished connection out of the demux table and the
// timer heap: the one way out of s.conns.
func (s *Stack) forgetLocked(c *TCPConn) {
	s.timerRemoveLocked(c)
	delete(s.conns, c.key)
}

// tickTimersLocked fires every timer that is due, earliest first, and
// does not read the clock while the head is not armed.
func (s *Stack) tickTimersLocked() {
	for len(s.timers) > 0 && s.timers[0].c.deadline == 0 {
		s.timerRemoveLocked(s.timers[0].c)
	}
	if len(s.timers) == 0 {
		return
	}
	now := s.nowLocked()
	for len(s.timers) > 0 {
		head := &s.timers[0]
		if head.at > now {
			return
		}
		switch c := head.c; {
		case c.deadline == 0:
			s.timerRemoveLocked(c)
		case c.deadline != head.at || c.armSeq != head.seq:
			head.at, head.seq = c.deadline, c.armSeq
			s.timerDownLocked(0)
		default:
			c.fireTimerLocked()
		}
	}
}

// fireTimerLocked is one expiry of c's timer: give up once the budget is
// spent, else retransmit (or probe a closed window) and re-arm.
func (c *TCPConn) fireTimerLocked() {
	s := c.stack
	// Retransmission budget: a timer firing MaxRetransmits times in a
	// row without forward progress means the peer is gone. Surface a
	// terminal, typed error instead of retrying into the void.
	if c.retries >= s.cfg.MaxRetransmits {
		c.giveUpLocked()
		return
	}
	c.retries++
	s.stats.Retransmits++
	telemetry.TraceInstant("netstack", "retransmit", int32(c.key.localPort), int64(c.retries))
	mss := s.cfg.MSS
	switch c.state {
	case stateSynSent:
		c.sendSegmentsLocked(c.iss, 0, 0, flagSYN)
	case stateSynRcvd:
		c.sendSegmentsLocked(c.iss, 0, 0, flagSYN|flagACK)
	case stateEstablished:
		flight := int(c.sndNxt - c.sndUna)
		c.ssthresh = max(flight/2, 2*mss)
		c.cwnd = mss
		if c.peerWnd == 0 && c.sndBuf.Len() > 0 && flight == 0 {
			// Zero-window probe: one byte past the edge, and not counted in
			// flight. A window still closed drops the byte, and the window
			// update must then find sending resume at it, not one past it
			// (a hole only another timeout would fill). A window that had
			// reopened takes the byte; its ACK, one past sndNxt, is ignored
			// but for the window it carries, and the receiver trims the byte
			// off the segment that repeats it.
			c.sendSegmentsLocked(c.sndNxt, 0, 1, flagACK|flagPSH)
		} else if flight > 0 {
			c.retransmitHeadLocked() // re-arms the timer
			return
		} else {
			c.clearTimerLocked()
			return
		}
	case stateClosed:
		c.clearTimerLocked()
		return
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.armTimerLocked()
}

// giveUpLocked terminates a connection whose retransmission budget is
// exhausted: SYN-phase failures become ErrConnectTimeout, established
// ones ErrMaxRetransmits. The error is terminal and observable through
// Err/Send/Recv, which is how the libOS above turns it into a failed
// qtoken instead of a hang.
func (c *TCPConn) giveUpLocked() {
	s := c.stack
	s.stats.GiveUps++
	telemetry.TraceInstant("netstack", "give-up", int32(c.key.localPort), int64(c.retries))
	switch c.state {
	case stateSynSent, stateSynRcvd:
		c.abortLocked(ErrConnectTimeout)
	default:
		c.abortLocked(ErrMaxRetransmits)
	}
}
