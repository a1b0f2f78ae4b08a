// Package echo implements the echo server/client used by the latency
// experiments: the server pops each atomic element and pushes it straight
// back; the client measures the accumulated virtual cost of the full
// round trip. Like the KV store, it is written against the Demikernel
// API only, so it runs unmodified over every libOS.
package echo

import (
	"sync/atomic"

	"demikernel/internal/apps/failover"
	"demikernel/internal/apps/serve"
	"demikernel/internal/core"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

// popDepth is how many pops the server keeps armed per connection. One
// would serialize a pipelined client to one request per step; a window of
// pops is the server's per-connection pipeline depth.
const popDepth = 8

// conn is an echo connection: the server keeps no state for it beyond
// the popped payloads its echoes hold.
type conn = serve.Conn[struct{}, sga.SGA]

// Server echoes every popped element back on its connection, from a
// serve.Loop: each echo is a push of the popped payload, which the push
// holds until it completes, and a re-armed pop. One goroutine owns it
// (Step, or Run wrapping Step); only Echoed and Conns may be called from
// another.
type Server struct {
	*serve.Loop[struct{}, sga.SGA]
	// AppCost is charged per echoed request (models server compute).
	AppCost simclock.Lat

	echoed atomic.Int64
}

// NewServer creates an echo server on lib.
func NewServer(lib *core.LibOS) *Server {
	s := &Server{}
	s.Loop = serve.New(lib, serve.App[struct{}, sga.SGA]{
		Accepted: s.onAccept,
		Popped:   s.onPop,
		Release:  func(req sga.SGA) { req.Free() },
	})
	return s
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
	return s, s.Start(), nil
}

// Echoed returns the number of requests echoed so far.
func (s *Server) Echoed() int64 { return s.echoed.Load() }

// onAccept arms a window of pops on a new connection.
func (s *Server) onAccept(c *conn) {
	for i := 0; i < popDepth; i++ {
		s.Pop(c)
	}
}

// onPop echoes a request back and re-arms the pop; the payload stays
// alive until its push completes.
func (s *Server) onPop(c *conn, req sga.SGA, cost simclock.Lat) int {
	s.Push(c, req, cost+s.AppCost, req)
	s.Pop(c)
	s.echoed.Add(1)
	return 1
}

// Client measures echo round trips, one at a time with the paper's
// Push/Pop/Wait (RTT) or pipelined through a completion ring (RTTBatch).
// With EnableFailover RTT redials the connection's address and replays
// the echo when the peer dies mid-flight (echo is trivially idempotent).
type Client struct {
	*failover.Conn

	// RTTBatch state.
	batch serve.Batch
	seg   [1]sga.Segment
}

// NewClient creates an echo client on lib.
func NewClient(lib *core.LibOS) *Client {
	return &Client{Conn: failover.NewConn(lib, core.InvalidQD, nil)}
}

// Dial stages an echo client on lib: a background poller for lib and a
// connection to addr. stop closes the connection and stops the poller.
func Dial(lib *core.LibOS, addr core.Addr) (cli *Client, stop func(), err error) {
	c := NewClient(lib)
	if stop, err = failover.Stage(lib, func() error { return c.Connect(addr) }, c.Close); err != nil {
		return nil, nil, err
	}
	return c, stop, nil
}

// RTT sends payload and returns the virtual cost accumulated by the
// response — the simulated round-trip latency. Under an armed failover
// policy a dead peer triggers backoff, redial, and replay.
func (c *Client) RTT(payload []byte, appCost simclock.Lat) (cost simclock.Lat, err error) {
	err = c.Replay(c.Lib(), func() (err error) {
		var resp sga.SGA
		resp, cost, err = c.Exchange(sga.New(payload), appCost)
		resp.Free()
		return err
	}, c.Redial)
	return cost, err
}

// Ring returns the client's ring pair (nil before the first RTTBatch).
func (c *Client) Ring() *uring.Pair { return c.batch.Ring() }

// RTTBatch issues batch pipelined echo round trips in one submission and
// returns the mean virtual round-trip cost. The steady-state path is
// allocation-free: every request is payload, in the client's one segment.
func (c *Client) RTTBatch(payload []byte, appCost simclock.Lat, batch int) (simclock.Lat, error) {
	c.seg[0] = sga.Segment{Buf: payload}
	_, mean, err := c.batch.Round(c.Lib(), c.QD(), batch, appCost,
		func(int) sga.SGA { return sga.SGA{Segments: c.seg[:]} },
		func(sga.SGA) (bool, error) { return true, nil })
	return mean, err
}
