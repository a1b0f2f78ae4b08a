package echo

import (
	"errors"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fifo"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

// Ring mode: the echo server and client post operations through an
// SQ/CQ ring pair instead of calling Push/Pop/Wait per op. Completions
// dispatch by user tag straight off the CQ — no completer map, no token
// slice — and the steady-state path allocates nothing.

// ErrRingDisabled is returned by ring-path calls before EnableRing.
var ErrRingDisabled = errors.New("echo: ring mode not enabled")

// ringPopDepth is how many pops the server keeps armed per connection.
// One would serialize a pipelined client to one request per poll; a
// window of pops is the server's per-connection pipeline depth.
const ringPopDepth = 8

// Server-side tags encode the connection QD and the operation kind in
// the low bit, so one harvest loop serves every connection with no map
// lookup on the tag itself.
func popTag(conn core.QD) uint64  { return uint64(conn) << 1 }
func pushTag(conn core.QD) uint64 { return uint64(conn)<<1 | 1 }

// EnableRing switches the server's data path onto an SQ/CQ ring pair of
// the given capacity attached to its libOS. Call once, before serving.
func (s *Server) EnableRing(capacity int) {
	s.ring = s.lib.AttachRing(capacity)
	s.sqes = make([]uring.SQE, 0, s.ring.Cap())
	s.cqes = make([]uring.CQE, s.ring.Cap())
	s.inflight = make(map[core.QD]*fifo.Queue[sga.SGA])
}

// Ring returns the server's ring pair (telemetry registration), nil
// before EnableRing.
func (s *Server) Ring() *uring.Pair { return s.ring }

// stepRing is Step over the ring path: accept → submit pops, harvest →
// echo back with a push + re-armed pop, all batched through the rings.
func (s *Server) stepRing() int {
	for {
		conn, ok, err := s.lib.TryAccept(s.lqd)
		if err != nil || !ok {
			break
		}
		depth := ringPopDepth
		if c := s.ring.Cap() / 4; c < depth {
			depth = max(c, 1)
		}
		for i := 0; i < depth; i++ {
			s.sqes = append(s.sqes, uring.SQE{Op: queue.OpPop, QD: int32(conn), Tag: popTag(conn)})
		}
		s.inflight[conn] = new(fifo.Queue[sga.SGA])
	}
	s.flushSQ()

	served := 0
	n := s.lib.HarvestCQ(s.ring, s.cqes)
	for i := 0; i < n; i++ {
		c := &s.cqes[i]
		conn := core.QD(c.Tag >> 1)
		isPush := c.Tag&1 == 1
		held := s.inflight[conn]
		if c.Err != nil || held == nil {
			// Connection failed (or the node crashed), now or at an
			// earlier CQE of this harvest: release anything queued behind
			// it and drop the descriptor.
			s.drop(conn)
			c.SGA.Free()
			*c = uring.CQE{}
			continue
		}
		if isPush {
			// Echo delivered: the transport no longer references the
			// popped payload, so it recycles now. Pushes complete FIFO
			// per connection, so the head is always the right buffer.
			if held.Len() > 0 {
				held.Front().Free()
				held.Pop()
			}
			*c = uring.CQE{}
			continue
		}
		// Request arrived: echo it back and re-arm the pop. The popped
		// SGA stays alive (inflight) until its push completes.
		held.Push(c.SGA)
		s.sqes = append(s.sqes,
			uring.SQE{Op: queue.OpPush, QD: int32(conn), Tag: pushTag(conn), SGA: c.SGA, Cost: c.Cost + s.AppCost},
			uring.SQE{Op: queue.OpPop, QD: int32(conn), Tag: popTag(conn)})
		served++
		*c = uring.CQE{}
	}
	if served > 0 {
		s.echoed.Add(int64(served))
	}
	s.flushSQ()
	return served
}

// drop forgets conn: the payloads still awaiting their echo's completion
// are released and the descriptor closed.
func (s *Server) drop(conn core.QD) {
	if held := s.inflight[conn]; held != nil {
		for held.Len() > 0 {
			held.Front().Free()
			held.Pop()
		}
		delete(s.inflight, conn)
	}
	s.lib.Close(conn) //nolint:errcheck // may already be gone
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

// EnableRing switches the client onto an SQ/CQ ring pair of the given
// capacity. Ring-path round trips are issued with RTTBatch; the legacy
// RTT keeps working (and keeps its failover loop) alongside.
func (c *Client) EnableRing(capacity int) {
	c.ring = c.lib.AttachRing(capacity)
	c.rsqes = make([]uring.SQE, 0, c.ring.Cap())
	c.rcqes = make([]uring.CQE, c.ring.Cap())
}

// Ring returns the client's ring pair (nil before EnableRing).
func (c *Client) Ring() *uring.Pair { return c.ring }

// RTTBatch issues batch pipelined echo round trips through the ring —
// batch pushes and batch pops posted up front, completions harvested as
// they land — and returns the mean virtual round-trip cost. batch == 1
// degenerates to a single syscall-free RTT. The steady-state path is
// allocation-free: the request SGA is rebuilt only when payload
// changes, and all staging slices are reused.
func (c *Client) RTTBatch(payload []byte, appCost simclock.Lat, batch int) (simclock.Lat, error) {
	if c.ring == nil {
		return 0, ErrRingDisabled
	}
	if batch < 1 || 2*batch > c.ring.Cap() {
		return 0, errors.New("echo: batch out of range for ring capacity")
	}
	if !sameBytes(c.ringReq.Segments, payload) {
		c.ringReq = sga.New(payload)
	}
	c.ringGen++
	gen := c.ringGen << 32

	sq := c.rsqes[:0]
	for i := 0; i < batch; i++ {
		sq = append(sq,
			uring.SQE{Op: queue.OpPush, QD: int32(c.qd), Tag: gen | uint64(i)<<1 | 1, SGA: c.ringReq, Cost: appCost},
			uring.SQE{Op: queue.OpPop, QD: int32(c.qd), Tag: gen | uint64(i)<<1})
	}
	want := len(sq)
	got, pops := 0, 0
	var total simclock.Lat
	var firstErr error
	for got < want {
		if len(sq) > 0 {
			n, err := c.lib.SubmitBatch(c.ring, sq)
			if err != nil {
				return 0, err
			}
			sq = sq[n:]
		}
		n, err := c.lib.WaitAnyRing(c.ring, c.rcqes, time.Time{})
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			cq := &c.rcqes[i]
			if cq.Tag&^uint64(0xffffffff) != gen {
				cq.SGA.Free() // straggler from an abandoned earlier batch
				*cq = uring.CQE{}
				continue
			}
			got++
			if cq.Err != nil {
				if firstErr == nil {
					firstErr = cq.Err
				}
			} else if cq.Kind == queue.OpPop {
				total += cq.Cost
				pops++
				cq.SGA.Free()
			}
			*cq = uring.CQE{}
		}
	}
	c.rsqes = c.rsqes[:0]
	if firstErr != nil {
		return 0, firstErr
	}
	return total / simclock.Lat(pops), nil
}

// sameBytes reports whether segs is exactly one segment aliasing b, so
// repeated RTTBatch calls with the same payload skip rebuilding the SGA.
func sameBytes(segs []sga.Segment, b []byte) bool {
	if len(segs) != 1 || len(segs[0].Buf) != len(b) {
		return false
	}
	return len(b) == 0 || &segs[0].Buf[0] == &b[0]
}
