// Package httpd implements an HTTP/1.1 web server directly on
// Demikernel queues — the "real application" the paper keeps insisting
// a kernel-bypass OS must still be able to host (§2, §6): not an echo
// toy, but keep-alive connection management, pipelining, ranged reads
// from a cached object tree, slow-client backpressure, and per-route
// telemetry. It is written against the Demikernel API only (queues,
// SGAs, batched submission and a completion ring), so it runs
// unmodified over every libOS.
//
// Requests and responses travel as framed SGAs over the byte stream: a
// client pushes the raw request bytes as one SGA; the server parses in
// place (zero-copy — the path never leaves the popped buffer), builds a
// response whose body segment aliases the immutable object tree, and
// pushes header + body as one two-segment SGA. Steady-state serving
// allocates nothing: headers come from a free list, responses reuse
// pooled descriptors, and the parser works in place.
package httpd

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"demikernel/internal/apps/serve"
	"demikernel/internal/core"
	"demikernel/internal/metrics"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// Tree is the in-memory cached object store the server serves from. It
// is populated before serving starts and immutable afterwards, so
// response bodies alias it without copies or reference counting.
type Tree struct {
	objs  map[string][]byte
	total int64
}

// NewTree creates an empty object tree.
func NewTree() *Tree { return &Tree{objs: make(map[string][]byte)} }

// Add stores body under path. Call before serving starts.
func (t *Tree) Add(path string, body []byte) {
	if old, ok := t.objs[path]; ok {
		t.total -= int64(len(old))
	}
	t.objs[path] = body
	t.total += int64(len(body))
}

// Lookup returns the object at path. The []byte(path) conversion in the
// map index does not allocate.
func (t *Tree) Lookup(path []byte) ([]byte, bool) {
	b, ok := t.objs[string(path)]
	return b, ok
}

// Len returns the number of objects.
func (t *Tree) Len() int { return len(t.objs) }

// Bytes returns the total stored body bytes.
func (t *Tree) Bytes() int64 { return t.total }

// Defaults for the server's tunables.
const (
	// defaultBacklog is the per-connection cap on responses in flight
	// toward a client. A stalled reader hits it quickly; the server
	// then stops popping that connection's requests (application-level
	// backpressure) instead of buffering unbounded responses.
	defaultBacklog = 32
	// defaultPopDepth is how many pops the server keeps armed per
	// connection — the per-connection pipeline window.
	defaultPopDepth = 8
)

// respBuf is one pooled in-flight response: the header bytes plus the
// segment array backing the pushed SGA. Both must stay alive until the
// transport reports the push complete, then the whole descriptor
// recycles through the server's free list.
type respBuf struct {
	hdr  []byte
	segs [2]sga.Segment
}

// connState is the server's state of one connection; the loop holds its
// response descriptors in flight.
type connState struct {
	// pending buffers a request head split across pops (slow path; the
	// fast path parses the popped segment in place).
	pending []byte
	last    int64 // last request activity on the node's clock, for idle reaping
	closing bool  // close once in-flight responses flush
	paused  bool  // backlog full: stop popping requests
	pops    int   // armed pops
}

// conn is a connection of the server.
type conn = serve.Conn[connState, *respBuf]

// Server serves a Tree over HTTP/1.1 on Demikernel queues, from a
// serve.Loop: a window of defaultPopDepth armed pops per connection (the
// pipeline depth), a pooled response descriptor held by each push until
// it completes, backlog-based pause/resume for stalled readers, and
// half-close/Connection: close teardown driven entirely off the completion
// stream. The steady-state loop allocates nothing.
type Server struct {
	*serve.Loop[connState, *respBuf]
	tree *Tree

	// AppCost is the virtual compute charged per request served.
	AppCost simclock.Lat
	// IdleTimeout reaps connections with no request activity for this
	// long on the node's clock (0 disables reaping).
	IdleTimeout time.Duration

	clock    *simclock.Clock
	lastReap int64
	respFree []*respBuf

	// Counters (atomics: Step is single-threaded, readers are not).
	requests   atomic.Int64
	heads      atomic.Int64
	r200       atomic.Int64
	r206       atomic.Int64
	r400       atomic.Int64
	r404       atomic.Int64
	r416       atomic.Int64
	bytesOut   atomic.Int64
	idleReaped atomic.Int64
	halfClosed atomic.Int64
	pauses     atomic.Int64

	// Per-route latency histograms (opt-in; see EnableLatency).
	latMu sync.Mutex
	lat   map[string]*metrics.Histogram
	latOn atomic.Bool
}

// NewServer creates a server for tree on lib.
func NewServer(lib *core.LibOS, tree *Tree) *Server {
	s := &Server{tree: tree, clock: lib.Clock()}
	s.Loop = serve.New(lib, serve.App[connState, *respBuf]{
		Accepted: s.onAccept,
		Popped:   s.onPop,
		Pushed:   s.settle,
		Failed:   s.onFail,
		Release:  s.putResp,
		Settle:   s.reapIdle,
	})
	return s
}

// Serve stages a server for tree on lib: listening on port, recording
// per-route latency, and run by one goroutine that is also lib's poller.
// stop ends the goroutine, then closes the server's connections and its
// listener, so the port can be served again.
func Serve(lib *core.LibOS, tree *Tree, port uint16) (srv *Server, stop func(), err error) {
	s := NewServer(lib, tree)
	s.EnableLatency()
	if err := s.Listen(port); err != nil {
		return nil, nil, err
	}
	return s, s.Start(), nil
}

// onAccept opens a new connection's pop window.
func (s *Server) onAccept(c *conn) {
	c.State.last = s.clock.UnixNano()
	s.armPops(c)
}

// onPop serves the requests a pop brought, unless the connection is
// closing, and settles the connection.
func (s *Server) onPop(c *conn, g sga.SGA, cost simclock.Lat) int {
	c.State.pops--
	c.State.last = s.clock.UnixNano()
	if c.State.closing {
		g.Free() // data after close: discard
		return 0
	}
	served := s.serveSGA(c, g, cost)
	s.settle(c)
	return served
}

// settle closes a closing connection once its last response is through,
// and otherwise re-arms its pops: what follows a request, and each
// completed response.
func (s *Server) settle(c *conn) {
	if c.State.closing && c.Held() == 0 {
		s.Drop(c)
	} else {
		s.armPops(c)
	}
}

// onFail handles a failed operation. A pop failing with the typed
// ErrClosed while responses are still in flight is the half-close case:
// the client sent FIN but still receives, so the server finishes flushing
// before tearing down.
func (s *Server) onFail(c *conn, push bool, err error) {
	if !push {
		c.State.pops--
		if errors.Is(err, queue.ErrClosed) && c.Held() > 0 {
			if !c.State.closing {
				s.halfClosed.Add(1)
				c.State.closing = true
			}
			return
		}
	}
	s.Drop(c)
}

// armPops tops the connection's armed-pop window up to defaultPopDepth,
// unless the response backlog says the reader is not keeping up — then the
// window stays closed (paused) until the backlog half-drains, which is
// what turns a stalled client into TCP backpressure instead of
// unbounded buffering.
func (s *Server) armPops(c *conn) {
	st := &c.State
	if st.closing {
		return
	}
	if st.paused {
		if c.Held() > defaultBacklog/2 {
			return
		}
		st.paused = false
	}
	if c.Held() >= defaultBacklog {
		st.paused = true
		s.pauses.Add(1)
		return
	}
	for ; st.pops < defaultPopDepth; st.pops++ {
		s.Pop(c)
	}
}

// reapIdle closes connections with no request activity for IdleTimeout,
// scanning at most every IdleTimeout/4 so reaping stays off the hot
// path.
func (s *Server) reapIdle() {
	if s.IdleTimeout <= 0 {
		return
	}
	now := s.clock.UnixNano()
	if now-s.lastReap < int64(s.IdleTimeout/4) {
		return
	}
	s.lastReap = now
	for c := range s.All() {
		if !c.State.closing && c.Held() == 0 && now-c.State.last >= int64(s.IdleTimeout) {
			s.idleReaped.Add(1) // counted first: a reader that saw Conns fall sees it
			s.Drop(c)
		}
	}
}

// serveSGA parses every complete request in the popped SGA and responds
// to each. The single-segment no-leftover case — the overwhelmingly
// common one — parses the popped buffer in place; split or multi-
// segment requests fall back to the per-connection pending buffer.
func (s *Server) serveSGA(c *conn, g sga.SGA, cost simclock.Lat) int {
	served := 0
	if len(c.State.pending) == 0 && len(g.Segments) == 1 {
		buf := g.Segments[0].Buf
		n := s.parseAndServe(c, buf, cost, &served)
		if n < len(buf) && !c.State.closing {
			c.State.pending = append(c.State.pending[:0], buf[n:]...)
		}
	} else {
		for _, seg := range g.Segments {
			c.State.pending = append(c.State.pending, seg.Buf...)
		}
		n := s.parseAndServe(c, c.State.pending, cost, &served)
		c.State.pending = c.State.pending[:copy(c.State.pending, c.State.pending[n:])]
	}
	g.Free()
	return served
}

// parseAndServe consumes requests from buf until it is exhausted, a
// request is incomplete, or the connection is closing.
func (s *Server) parseAndServe(c *conn, buf []byte, cost simclock.Lat, served *int) int {
	consumed := 0
	for consumed < len(buf) && !c.State.closing {
		req, n, err := parseRequest(buf[consumed:])
		if err != nil {
			// Unsalvageable head: answer 400 and drop the rest of the
			// stream — there is no trustworthy request boundary left.
			s.respondBad(c, cost)
			c.State.closing = true
			return len(buf)
		}
		if n == 0 {
			break
		}
		consumed += n
		s.respond(c, req, cost)
		*served++
		if req.close {
			c.State.closing = true
		}
	}
	return consumed
}

// respond builds and submits the response for one parsed request.
func (s *Server) respond(c *conn, req request, cost simclock.Lat) {
	rb := s.getResp()
	g := s.buildResponse(rb, req)
	if s.latOn.Load() {
		s.recordLatency(req.path, cost+s.AppCost)
	}
	s.Push(c, g, cost+s.AppCost, rb)
}

// respondBad answers a malformed request with a close-marked 400.
func (s *Server) respondBad(c *conn, cost simclock.Lat) {
	rb := s.getResp()
	g := s.buildStatus(rb, status400, badReqBody, true)
	s.requests.Add(1)
	s.r400.Add(1)
	s.Push(c, g, cost+s.AppCost, rb)
}

// Canned status lines and bodies.
const (
	status200 = "HTTP/1.1 200 OK\r\n"
	status206 = "HTTP/1.1 206 Partial Content\r\n"
	status400 = "HTTP/1.1 400 Bad Request\r\n"
	status404 = "HTTP/1.1 404 Not Found\r\n"
	status416 = "HTTP/1.1 416 Range Not Satisfiable\r\n"
)

var (
	notFoundBody = []byte("404 not found\n")
	badReqBody   = []byte("400 bad request\n")
)

// buildResponse resolves req against the tree and fills rb. The body
// segment aliases the tree (or a canned error body); only the header
// bytes are written, into rb's pooled buffer.
func (s *Server) buildResponse(rb *respBuf, req request) sga.SGA {
	s.requests.Add(1)
	if req.head {
		s.heads.Add(1)
	}
	body, ok := s.tree.Lookup(req.path)
	if !ok {
		s.r404.Add(1)
		return s.buildStatus(rb, status404, notFoundBody, req.close)
	}
	total := int64(len(body))
	if req.rngKind != rangeNone {
		from, to, satisfiable := resolveRange(req, total)
		if !satisfiable {
			s.r416.Add(1)
			return s.build416(rb, total, req.close)
		}
		s.r206.Add(1)
		return s.build206(rb, body[from:to+1], from, to, total, req)
	}
	s.r200.Add(1)
	rb.hdr = append(rb.hdr, status200...)
	rb.hdr = appendCommon(rb.hdr, int64(len(body)), req.close)
	return s.finish(rb, body, req.head)
}

// resolveRange maps a parsed Range header onto [from, to] inclusive.
func resolveRange(req request, total int64) (from, to int64, ok bool) {
	switch req.rngKind {
	case rangeFromTo:
		from, to = req.rngFrom, req.rngTo
		if to >= total {
			to = total - 1
		}
	case rangeFrom:
		from, to = req.rngFrom, total-1
	case rangeSuffix:
		if req.rngTo <= 0 {
			return 0, 0, false
		}
		from, to = total-req.rngTo, total-1
		if from < 0 {
			from = 0
		}
	}
	if from >= total || from > to {
		return 0, 0, false
	}
	return from, to, true
}

func (s *Server) build206(rb *respBuf, part []byte, from, to, total int64, req request) sga.SGA {
	rb.hdr = append(rb.hdr, status206...)
	rb.hdr = append(rb.hdr, "Content-Range: bytes "...)
	rb.hdr = strconv.AppendInt(rb.hdr, from, 10)
	rb.hdr = append(rb.hdr, '-')
	rb.hdr = strconv.AppendInt(rb.hdr, to, 10)
	rb.hdr = append(rb.hdr, '/')
	rb.hdr = strconv.AppendInt(rb.hdr, total, 10)
	rb.hdr = append(rb.hdr, '\r', '\n')
	rb.hdr = appendCommon(rb.hdr, int64(len(part)), req.close)
	return s.finish(rb, part, req.head)
}

func (s *Server) build416(rb *respBuf, total int64, close bool) sga.SGA {
	rb.hdr = append(rb.hdr, status416...)
	rb.hdr = append(rb.hdr, "Content-Range: bytes */"...)
	rb.hdr = strconv.AppendInt(rb.hdr, total, 10)
	rb.hdr = append(rb.hdr, '\r', '\n')
	rb.hdr = appendCommon(rb.hdr, 0, close)
	return s.finish(rb, nil, false)
}

// buildStatus builds a canned-body response (404/400).
func (s *Server) buildStatus(rb *respBuf, status string, body []byte, close bool) sga.SGA {
	rb.hdr = append(rb.hdr, status...)
	rb.hdr = appendCommon(rb.hdr, int64(len(body)), close)
	return s.finish(rb, body, false)
}

// appendCommon writes the headers every response carries. Keep-alive is
// HTTP/1.1's default and is left implicit; only close is announced.
func appendCommon(hdr []byte, contentLen int64, close bool) []byte {
	hdr = append(hdr, "Server: demi-httpd\r\nContent-Length: "...)
	hdr = strconv.AppendInt(hdr, contentLen, 10)
	hdr = append(hdr, '\r', '\n')
	if close {
		hdr = append(hdr, "Connection: close\r\n"...)
	}
	return append(hdr, '\r', '\n')
}

// finish assembles the response SGA over rb's segments and counts the
// outbound bytes. HEAD responses carry the full headers and no body.
func (s *Server) finish(rb *respBuf, body []byte, head bool) sga.SGA {
	rb.segs[0] = sga.Segment{Buf: rb.hdr}
	if head || len(body) == 0 {
		s.bytesOut.Add(int64(len(rb.hdr)))
		return sga.SGA{Segments: rb.segs[:1]}
	}
	rb.segs[1] = sga.Segment{Buf: body}
	s.bytesOut.Add(int64(len(rb.hdr) + len(body)))
	return sga.SGA{Segments: rb.segs[:2]}
}

// getResp takes a response descriptor from the free list.
func (s *Server) getResp() *respBuf {
	if n := len(s.respFree); n > 0 {
		rb := s.respFree[n-1]
		s.respFree[n-1] = nil
		s.respFree = s.respFree[:n-1]
		return rb
	}
	return &respBuf{hdr: make([]byte, 0, 160)}
}

// putResp recycles a response descriptor once the transport no longer
// references it.
func (s *Server) putResp(rb *respBuf) {
	if rb == nil {
		return
	}
	rb.hdr = rb.hdr[:0]
	rb.segs = [2]sga.Segment{}
	s.respFree = append(s.respFree, rb)
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Requests, Heads                  int64
	R200, R206, R400, R404, R416     int64
	BytesOut                         int64
	ConnsAccepted, ConnsClosed       int64
	IdleReaped, HalfCloses, Backlogs int64
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:      s.requests.Load(),
		Heads:         s.heads.Load(),
		R200:          s.r200.Load(),
		R206:          s.r206.Load(),
		R400:          s.r400.Load(),
		R404:          s.r404.Load(),
		R416:          s.r416.Load(),
		BytesOut:      s.bytesOut.Load(),
		ConnsAccepted: s.Accepts(),
		ConnsClosed:   s.closed(),
		IdleReaped:    s.idleReaped.Load(),
		HalfCloses:    s.halfClosed.Load(),
		Backlogs:      s.pauses.Load(),
	}
}

// closed counts the connections accepted and closed since.
func (s *Server) closed() int64 { return s.Accepts() - int64(s.Conns()) }

// RegisterTelemetry lifts the httpd.* counter family into a registry.
func (s *Server) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	r.RegisterFunc(prefix+".requests", s.requests.Load)
	r.RegisterFunc(prefix+".heads", s.heads.Load)
	r.RegisterFunc(prefix+".resp_200", s.r200.Load)
	r.RegisterFunc(prefix+".resp_206", s.r206.Load)
	r.RegisterFunc(prefix+".resp_400", s.r400.Load)
	r.RegisterFunc(prefix+".resp_404", s.r404.Load)
	r.RegisterFunc(prefix+".resp_416", s.r416.Load)
	r.RegisterFunc(prefix+".bytes_out", s.bytesOut.Load)
	r.RegisterFunc(prefix+".conns_accepted", s.Accepts)
	r.RegisterFunc(prefix+".conns_closed", s.closed)
	r.RegisterFunc(prefix+".idle_reaped", s.idleReaped.Load)
	r.RegisterFunc(prefix+".half_closes", s.halfClosed.Load)
	r.RegisterFunc(prefix+".backlog_pauses", s.pauses.Load)
}

// EnableLatency turns on per-route service-latency histograms (the
// virtual cost each request accumulated through the stack plus
// AppCost). Off by default: recording appends samples, which is not
// allocation-free.
func (s *Server) EnableLatency() {
	s.latMu.Lock()
	if s.lat == nil {
		s.lat = make(map[string]*metrics.Histogram)
	}
	s.latMu.Unlock()
	s.latOn.Store(true)
}

func (s *Server) recordLatency(path []byte, cost simclock.Lat) {
	route := routeOf(path)
	s.latMu.Lock()
	h, ok := s.lat[string(route)]
	if !ok {
		h = &metrics.Histogram{}
		s.lat[string(route)] = h
	}
	h.Record(cost)
	s.latMu.Unlock()
}

// RouteHistogram returns the latency histogram for route (nil if the
// route has not been seen or latency is disabled).
func (s *Server) RouteHistogram(route string) *metrics.Histogram {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	return s.lat[route]
}
