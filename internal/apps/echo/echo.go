// Package echo implements the echo server/client used by the latency
// experiments: the server pops each atomic element and pushes it straight
// back; the client measures the accumulated virtual cost of the full
// round trip. Like the KV store, it is written against the Demikernel
// API only, so it runs unmodified over every libOS.
package echo

import (
	"runtime"
	"sync/atomic"

	"demikernel/internal/apps/failover"
	"demikernel/internal/core"
	"demikernel/internal/fifo"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

// Server echoes every popped element back on its connection. One
// goroutine owns it (Step, or Run wrapping Step); only Echoed may be
// called from another.
type Server struct {
	lib *core.LibOS
	// AppCost is charged per echoed request (models server compute).
	AppCost simclock.Lat

	lqd    core.QD
	conns  map[core.QD]queue.QToken
	echoed atomic.Int64

	// Ring-path state (nil until EnableRing; see ring.go).
	ring     *uring.Pair
	sqes     []uring.SQE
	cqes     []uring.CQE
	inflight map[core.QD]*fifo.Queue[sga.SGA] // per connection: payloads whose echo is in flight
}

// NewServer creates an echo server on lib.
func NewServer(lib *core.LibOS) *Server {
	return &Server{lib: lib, conns: make(map[core.QD]queue.QToken)}
}

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
// per request, on an SQ/CQ ring of ringCap entries when ringCap > 0, and
// run by one goroutine that is also lib's poller. stop ends the goroutine,
// then closes the server's connections and its listener, so the port can
// be served again.
func Serve(lib *core.LibOS, port uint16, appCost simclock.Lat, ringCap int) (srv *Server, stop func(), err error) {
	s := NewServer(lib)
	s.AppCost = appCost
	if err := s.Listen(port); err != nil {
		return nil, nil, err
	}
	if ringCap > 0 {
		s.EnableRing(ringCap)
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
// its armed pop (consumed, so the token does not outlive the descriptor)
// or its payloads awaiting a ring push completion, and the listener.
func (s *Server) close() {
	for conn, qt := range s.conns {
		s.lib.Close(conn) //nolint:errcheck // may already be gone
		if comp, ok, _ := s.lib.TryWait(qt); ok && comp.Err == nil {
			comp.SGA.Free()
		}
	}
	for conn := range s.inflight {
		s.drop(conn)
	}
	s.lib.Close(s.lqd) //nolint:errcheck // nothing to do about it at shutdown
}

// Echoed returns the number of requests echoed so far.
func (s *Server) Echoed() int64 { return s.echoed.Load() }

// Step runs one non-blocking iteration and returns requests served.
// After EnableRing it travels the syscall-free ring path instead of the
// per-op token path.
func (s *Server) Step() int {
	if s.ring != nil {
		return s.stepRing()
	}
	for {
		conn, ok, err := s.lib.TryAccept(s.lqd)
		if err != nil || !ok {
			break
		}
		if qt, err := s.lib.Pop(conn); err == nil {
			s.conns[conn] = qt
		}
	}
	served := 0
	// Re-arming or deleting the entry being visited is safe while ranging
	// over the private map: no key is ever added here.
	for conn, qt := range s.conns {
		comp, ok, err := s.lib.TryWait(qt)
		if err != nil || !ok {
			continue
		}
		if comp.Err != nil {
			delete(s.conns, conn)
			s.lib.Close(conn)
			continue
		}
		if qt, err := s.lib.PushCost(conn, comp.SGA, comp.Cost+s.AppCost); err == nil {
			s.lib.Wait(qt)
		}
		// The push staged its own copy; the popped SGA's pooled clone
		// must recycle, or each request stays charged against the
		// serving tenant's frame quota forever.
		comp.SGA.Free()
		served++
		s.echoed.Add(1)
		if qt, err := s.lib.Pop(conn); err == nil {
			s.conns[conn] = qt
		} else {
			delete(s.conns, conn)
		}
	}
	return served
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

// Client measures echo round trips. With EnableFailover it redials the
// saved address and replays the echo when the peer dies mid-flight
// (echo is trivially idempotent).
type Client struct {
	lib  *core.LibOS
	qd   core.QD
	addr core.Addr
	pol  *failover.Policy

	redials atomic.Int64

	// Ring-path state (nil until EnableRing; see ring.go).
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

// Dial stages an echo client on lib: a background poller for lib, a
// connection to addr and, when ringCap > 0, a ring of that many entries
// for RTTBatch. stop closes the connection and stops the poller.
func Dial(lib *core.LibOS, addr core.Addr, ringCap int) (cli *Client, stop func(), err error) {
	stopPoll := lib.Background()
	c := NewClient(lib)
	if err := c.Connect(addr); err != nil {
		stopPoll()
		return nil, nil, err
	}
	if ringCap > 0 {
		c.EnableRing(ringCap)
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
