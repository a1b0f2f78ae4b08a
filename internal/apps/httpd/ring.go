package httpd

// Ring mode: the server posts pops and pushes through a syscall-free
// SQ/CQ ring pair instead of per-op tokens, mirroring the echo server's
// ring path but with HTTP semantics layered on: a window of defaultPopDepth
// armed pops per connection (the pipeline depth), a FIFO of pooled
// response descriptors held until their push CQEs land, backlog-based
// pause/resume for stalled readers, and half-close/Connection: close
// teardown driven entirely off the completion stream. The steady-state
// serve loop allocates nothing.

import (
	"errors"

	"demikernel/internal/core"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

// Tags encode the connection QD and the operation kind in the low bit,
// so one harvest loop dispatches every connection without a token map.
func popTag(conn core.QD) uint64  { return uint64(conn) << 1 }
func pushTag(conn core.QD) uint64 { return uint64(conn)<<1 | 1 }

// EnableRing switches the server's data path onto an SQ/CQ ring pair of
// the given capacity attached to its libOS. Call before serving — and
// call again after a node crash+restart: rings die with their stack
// incarnation, so the server needs a fresh pair to resume the ring
// path (pending ops on the old pair have already resolved to typed
// reset CQEs and torn their connections down).
func (s *Server) EnableRing(capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ring = s.lib.AttachRing(capacity)
	s.sqes = make([]uring.SQE, 0, s.ring.Cap())
	s.cqes = make([]uring.CQE, s.ring.Cap())
}

// Ring returns the server's ring pair (telemetry), nil before
// EnableRing.
func (s *Server) Ring() *uring.Pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring
}

// stepRingLocked is Step over the ring path: accept → arm pop windows,
// harvest → parse/respond/re-arm, all batched through the rings.
// Caller holds s.mu.
func (s *Server) stepRingLocked() int {
	for {
		qd, ok, err := s.lib.TryAccept(s.lqd)
		if err != nil || !ok {
			break
		}
		c := &conn{qd: qd, last: s.now()}
		s.conns[qd] = c
		s.accepted.Add(1)
		s.armPops(c)
	}
	s.flushSQ()

	served := 0
	n := s.lib.HarvestCQ(s.ring, s.cqes)
	for i := 0; i < n; i++ {
		cq := &s.cqes[i]
		qd := core.QD(cq.Tag >> 1)
		isPush := cq.Tag&1 == 1
		c, live := s.conns[qd]
		if !live {
			// Connection already torn down (reset CQEs from its armed
			// pops, or stragglers): release any payload and move on.
			cq.SGA.Free()
			*cq = uring.CQE{}
			continue
		}
		if cq.Err != nil {
			if !isPush {
				c.pops--
			}
			s.ringOpFailed(c, isPush, cq.Err)
			*cq = uring.CQE{}
			continue
		}
		if isPush {
			// Response delivered: the transport no longer references
			// the header buffer. Pushes complete FIFO per connection,
			// so the head descriptor is always the one retiring.
			if k := len(c.inflight); k > 0 {
				s.putResp(c.inflight[0])
				m := copy(c.inflight, c.inflight[1:])
				c.inflight[m] = nil
				c.inflight = c.inflight[:m]
			}
			if c.closing && len(c.inflight) == 0 {
				s.closeConn(c)
			} else {
				s.armPops(c)
			}
			*cq = uring.CQE{}
			continue
		}
		c.pops--
		c.last = s.now()
		if c.closing {
			cq.SGA.Free() // data after close: discard
		} else {
			served += s.serveSGA(c, cq.SGA, cq.Cost)
			if c.closing && len(c.inflight) == 0 {
				s.closeConn(c)
			} else {
				s.armPops(c)
			}
		}
		*cq = uring.CQE{}
	}
	s.flushSQ()
	s.reapIdle()
	return served
}

// ringOpFailed handles an errored CQE for a live connection. A pop
// failing with the typed ErrClosed while responses are still in flight
// is the half-close case: the client sent FIN but still receives, so
// the server finishes flushing before tearing down.
func (s *Server) ringOpFailed(c *conn, isPush bool, err error) {
	if !isPush && errors.Is(err, queue.ErrClosed) && len(c.inflight) > 0 {
		if !c.closing {
			s.halfClosed.Add(1)
			c.closing = true
		}
		return
	}
	s.closeConn(c)
}

// submitRing stages one response push; rb joins the connection's
// in-flight FIFO until its push CQE retires it.
func (s *Server) submitRing(c *conn, rb *respBuf, g sga.SGA, cost simclock.Lat) {
	s.sqes = append(s.sqes, uring.SQE{
		Op: queue.OpPush, QD: int32(c.qd), Tag: pushTag(c.qd), SGA: g, Cost: cost,
	})
	c.inflight = append(c.inflight, rb)
}

// armPops tops the connection's armed-pop window up to defaultPopDepth, unless
// the response backlog says the reader is not keeping up — then the
// window stays closed (paused) until the backlog half-drains, which is
// what turns a stalled client into TCP backpressure instead of
// unbounded buffering.
func (s *Server) armPops(c *conn) {
	if c.closing {
		return
	}
	if c.paused {
		if len(c.inflight) > defaultBacklog/2 {
			return
		}
		c.paused = false
	}
	if len(c.inflight) >= defaultBacklog {
		c.paused = true
		s.pauses.Add(1)
		return
	}
	depth := defaultPopDepth
	if quarter := s.ring.Cap() / 4; quarter < depth {
		depth = quarter
		if depth < 1 {
			depth = 1
		}
	}
	for c.pops < depth {
		s.sqes = append(s.sqes, uring.SQE{Op: queue.OpPop, QD: int32(c.qd), Tag: popTag(c.qd)})
		c.pops++
	}
}

// flushSQ submits whatever is staged, keeping the unaccepted suffix
// staged for the next step (ring full = backpressure, never a drop).
func (s *Server) flushSQ() {
	if len(s.sqes) == 0 {
		return
	}
	n, err := s.lib.SubmitBatch(s.ring, s.sqes)
	if err != nil {
		// Pair reset underneath us (node crash): drop the staged ops;
		// their conns are dead and will surface as reset CQEs anyway.
		s.sqes = s.sqes[:0]
		return
	}
	s.sqes = s.sqes[:copy(s.sqes, s.sqes[n:])]
}
