// Package echo implements the echo server/client used by the latency
// experiments: the server pops each atomic element and pushes it straight
// back; the client measures the accumulated virtual cost of the full
// round trip. Like the KV store, it is written against the Demikernel
// API only, so it runs unmodified over every libOS.
package echo

import (
	"runtime"
	"sync/atomic"
	"time"

	"demikernel/internal/apps/failover"
	"demikernel/internal/core"
	"demikernel/internal/fifo"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

const (
	// popDepth is how many pops the server keeps armed per connection.
	// One would serialize a pipelined client to one request per step; a
	// window of pops is the server's per-connection pipeline depth.
	popDepth = 8
	// serverRing is where the server's ring starts: two connections'
	// windows. It grows with the connections the server accepts.
	serverRing = 2 * popDepth
	// harvest is how many completions one Step takes off the ring.
	harvest = 64
)

// Server echoes every popped element back on its connection. It serves
// through a completion ring on every libOS: pops and echoes go out as
// one batch per Step, and completions dispatch by tag straight off the
// CQ — no token per operation, no allocation in steady state. One
// goroutine owns it (Step, or Run wrapping Step); only Echoed may be
// called from another.
type Server struct {
	lib *core.LibOS
	// AppCost is charged per echoed request (models server compute).
	AppCost simclock.Lat

	lqd    core.QD
	echoed atomic.Int64

	ring     *uring.Pair
	sqes     []uring.SQE
	cqes     []uring.CQE
	inflight map[core.QD]*fifo.Queue[sga.SGA] // per connection: payloads whose echo is in flight
}

// NewServer creates an echo server on lib.
func NewServer(lib *core.LibOS) *Server {
	return &Server{
		lib:      lib,
		ring:     lib.AttachRing(serverRing),
		cqes:     make([]uring.CQE, harvest),
		inflight: make(map[core.QD]*fifo.Queue[sga.SGA]),
	}
}

// EnableRing pre-sizes the server's ring for capacity operations in
// flight, and its harvest for as many completions at once. The ring grows
// to that by itself; a rig that measures steady state from the first
// operation calls this instead of warming up.
func (s *Server) EnableRing(capacity int) {
	s.ring.Reserve(capacity)
	if capacity > len(s.cqes) {
		s.cqes = make([]uring.CQE, capacity)
	}
}

// Ring returns the server's ring pair (telemetry).
func (s *Server) Ring() *uring.Pair { return s.ring }

// Listen binds the server to port.
func (s *Server) Listen(port uint16) error {
	qd, err := s.lib.Socket()
	if err != nil {
		return err
	}
	if err := s.lib.Bind(qd, core.Addr{Port: port}); err != nil {
		return err
	}
	if err := s.lib.Listen(qd); err != nil {
		return err
	}
	s.lqd = qd
	return nil
}

// Serve stages an echo server on lib: listening on port, charging appCost
// per request, and run by one goroutine that is also lib's poller. stop
// ends the goroutine, then closes the server's connections and its
// listener, so the port can be served again.
func Serve(lib *core.LibOS, port uint16, appCost simclock.Lat) (srv *Server, stop func(), err error) {
	s := NewServer(lib)
	s.AppCost = appCost
	if err := s.Listen(port); err != nil {
		return nil, nil, err
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.Run(quit)
	}()
	return s, func() {
		close(quit)
		<-done
		s.close()
	}, nil
}

// close releases what a stopped server still holds: each connection with
// the payloads awaiting their echo's completion, and the listener.
func (s *Server) close() {
	for conn := range s.inflight {
		s.drop(conn)
	}
	s.lib.Close(s.lqd) //nolint:errcheck // nothing to do about it at shutdown
}

// Echoed returns the number of requests echoed so far.
func (s *Server) Echoed() int64 { return s.echoed.Load() }

// Server-side tags encode the connection QD and the operation kind in
// the low bit, so one harvest loop serves every connection with no map
// lookup on the tag itself.
func popTag(conn core.QD) uint64  { return uint64(conn) << 1 }
func pushTag(conn core.QD) uint64 { return uint64(conn)<<1 | 1 }

// Step runs one non-blocking iteration and returns requests served:
// accept → arm a window of pops, harvest → echo back with a push and a
// re-armed pop, all submitted as one batch.
func (s *Server) Step() int {
	for {
		conn, ok, err := s.lib.TryAccept(s.lqd)
		if err != nil || !ok {
			break
		}
		for i := 0; i < popDepth; i++ {
			s.sqes = append(s.sqes, uring.SQE{Op: queue.OpPop, QD: int32(conn), Tag: popTag(conn)})
		}
		s.inflight[conn] = new(fifo.Queue[sga.SGA])
	}

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
	if len(s.sqes) > 0 {
		s.lib.SubmitBatch(s.ring, s.sqes) //nolint:errcheck // a failed op is a CQE
		clear(s.sqes)
		s.sqes = s.sqes[:0]
	}
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

// Run pumps Step until stop closes.
func (s *Server) Run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if s.Step() == 0 {
			s.lib.Poll()
		}
		runtime.Gosched()
	}
}

// Client measures echo round trips, one at a time with the paper's
// Push/Pop/Wait (RTT) or pipelined through a completion ring (RTTBatch).
// With EnableFailover RTT redials the saved address and replays the echo
// when the peer dies mid-flight (echo is trivially idempotent).
type Client struct {
	lib  *core.LibOS
	qd   core.QD
	addr core.Addr
	pol  *failover.Policy

	redials atomic.Int64

	// RTTBatch state; the ring attaches on the first batch.
	ring    *uring.Pair
	rsqes   []uring.SQE
	rcqes   []uring.CQE
	ringReq sga.SGA
	ringGen uint64
}

// NewClient creates an echo client on lib.
func NewClient(lib *core.LibOS) *Client {
	return &Client{lib: lib}
}

// EnableFailover arms redial-and-replay with pol.
func (c *Client) EnableFailover(pol failover.Policy) { c.pol = &pol }

// FailoverStats reports redials and replays performed so far (every
// successful redial replays the one operation that was in flight).
func (c *Client) FailoverStats() (reconnects, replays int64) {
	n := c.redials.Load()
	return n, n
}

// Connect dials the echo server and remembers the address for redials.
func (c *Client) Connect(addr core.Addr) error {
	qd, err := failover.Dial(c.lib, addr)
	if err != nil {
		return err
	}
	c.qd = qd
	c.addr = addr
	return nil
}

// RTT sends payload and returns the virtual cost accumulated by the
// response — the simulated round-trip latency. Under an armed failover
// policy a dead peer triggers backoff, redial, and replay.
func (c *Client) RTT(payload []byte, appCost simclock.Lat) (cost simclock.Lat, err error) {
	redials, err := failover.Do(c.pol,
		func() (err error) { cost, err = c.rtt(payload, appCost); return err },
		func() error { return failover.Redial(c.lib, &c.qd, c.addr) })
	if redials > 0 {
		c.redials.Add(int64(redials))
	}
	return cost, err
}

func (c *Client) rtt(payload []byte, appCost simclock.Lat) (simclock.Lat, error) {
	qt, err := c.lib.PushCost(c.qd, sga.New(payload), appCost)
	if err != nil {
		return 0, err
	}
	pushComp, err := c.lib.Wait(qt)
	if err != nil {
		return 0, err
	}
	if pushComp.Err != nil {
		return 0, pushComp.Err
	}
	comp, err := c.lib.BlockingPop(c.qd)
	if err != nil {
		return 0, err
	}
	if comp.Err != nil {
		return 0, comp.Err
	}
	defer comp.SGA.Free()
	return comp.Cost, nil
}

// Dial stages an echo client on lib: a background poller for lib and a
// connection to addr. stop closes the connection and stops the poller.
func Dial(lib *core.LibOS, addr core.Addr) (cli *Client, stop func(), err error) {
	stopPoll := lib.Background()
	c := NewClient(lib)
	if err := c.Connect(addr); err != nil {
		stopPoll()
		return nil, nil, err
	}
	return c, func() {
		c.Close() //nolint:errcheck // the peer may have closed first
		stopPoll()
	}, nil
}

// QD exposes the client's connection descriptor so experiments can push
// raw SGAs over the established connection.
func (c *Client) QD() core.QD { return c.qd }

// Close shuts the client connection.
func (c *Client) Close() error { return c.lib.Close(c.qd) }

// Ring returns the client's ring pair (nil before the first RTTBatch).
func (c *Client) Ring() *uring.Pair { return c.ring }

// RTTBatch issues batch pipelined echo round trips in one submission —
// batch pushes and batch pops, completions harvested as they land — and
// returns the mean virtual round-trip cost. The steady-state path is
// allocation-free: the request SGA is rebuilt only when payload changes,
// and all staging slices are reused.
func (c *Client) RTTBatch(payload []byte, appCost simclock.Lat, batch int) (simclock.Lat, error) {
	if c.ring == nil {
		c.ring = c.lib.AttachRing(2 * batch)
	}
	if len(c.rcqes) < 2*batch {
		c.rcqes = make([]uring.CQE, 2*batch)
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
	c.rsqes = sq[:0]
	c.lib.SubmitBatch(c.ring, sq) //nolint:errcheck // a failed op is a CQE
	pops := 0
	var total simclock.Lat
	var firstErr error
	for got := 0; got < len(sq); {
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
	if firstErr != nil || pops == 0 {
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
