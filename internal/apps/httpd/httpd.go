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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/metrics"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
	"demikernel/internal/uring"
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
	// serverRing is where the server's ring starts: two connections'
	// windows. It grows with the connections the server accepts.
	serverRing = 2 * defaultPopDepth
	// harvest is how many completions one Step takes off the ring.
	harvest = 64
)

// respBuf is one pooled in-flight response: the header bytes plus the
// segment array backing the pushed SGA. Both must stay alive until the
// transport reports the push complete, then the whole descriptor
// recycles through the server's free list.
type respBuf struct {
	hdr  []byte
	segs [2]sga.Segment
	nseg int
}

// conn is the server's per-connection state.
type conn struct {
	qd core.QD
	// pending buffers a request head split across pops (slow path; the
	// fast path parses the popped segment in place).
	pending []byte
	last    time.Time // last request activity, for idle reaping
	closing bool      // close once in-flight responses flush
	paused  bool      // backlog full: stop popping requests

	inflight []*respBuf // header FIFO awaiting push CQEs
	pops     int        // armed pops
}

// Server serves a Tree over HTTP/1.1 on Demikernel queues, through a
// completion ring on every libOS: a window of defaultPopDepth armed pops
// per connection (the pipeline depth), a FIFO of pooled response
// descriptors held until their push CQEs land, backlog-based
// pause/resume for stalled readers, and half-close/Connection: close
// teardown driven entirely off the completion stream. Each Step submits
// what it staged as one batch; the steady-state loop allocates nothing.
type Server struct {
	lib  *core.LibOS
	tree *Tree

	// AppCost is the virtual compute charged per request served.
	AppCost simclock.Lat
	// IdleTimeout reaps connections with no request activity for this
	// long (0 disables reaping).
	IdleTimeout time.Duration
	// Now is the reap clock (injectable for tests); nil means time.Now.
	Now func() time.Time

	mu       sync.Mutex
	lqd      core.QD
	conns    map[core.QD]*conn
	scan     []*conn // reused Step iteration scratch
	lastReap time.Time

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
	accepted   atomic.Int64
	closed     atomic.Int64
	idleReaped atomic.Int64
	halfClosed atomic.Int64
	pauses     atomic.Int64

	// Per-route latency histograms (opt-in; see EnableLatency).
	latMu  sync.Mutex
	lat    map[string]*metrics.Histogram
	latOn  atomic.Bool
	routes []string // registration order, for stable tables

	ring *uring.Pair
	sqes []uring.SQE
	cqes []uring.CQE
}

// NewServer creates a server for tree on lib.
func NewServer(lib *core.LibOS, tree *Tree) *Server {
	return &Server{
		lib: lib, tree: tree, conns: make(map[core.QD]*conn),
		ring: lib.AttachRing(serverRing), cqes: make([]uring.CQE, harvest),
	}
}

// EnableRing pre-sizes the server's ring for capacity operations in
// flight, and its harvest for as many completions at once. The ring grows
// to that by itself; a rig that measures steady state from the first
// request calls this instead of warming up.
func (s *Server) EnableRing(capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.Run(quit)
	}()
	return s, func() {
		close(quit)
		<-done
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, c := range s.conns {
			s.closeConn(c)
		}
		s.lib.Close(s.lqd) //nolint:errcheck // nothing to do about it at shutdown
	}, nil
}

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// Tags encode the connection QD and the operation kind in the low bit,
// so one harvest loop dispatches every connection without a token map.
func popTag(conn core.QD) uint64  { return uint64(conn) << 1 }
func pushTag(conn core.QD) uint64 { return uint64(conn)<<1 | 1 }

// Step runs one non-blocking server iteration and returns requests
// served: accept → arm pop windows, harvest → parse/respond/re-arm, and
// one batch submission of everything that staged.
func (s *Server) Step() int {
	s.mu.Lock()
	defer s.mu.Unlock()
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
			s.opFailed(c, isPush, cq.Err)
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
	if len(s.sqes) > 0 {
		s.lib.SubmitBatch(s.ring, s.sqes) //nolint:errcheck // a failed op is a CQE
		clear(s.sqes)
		s.sqes = s.sqes[:0]
	}
	s.reapIdle()
	return served
}

// opFailed handles an errored CQE for a live connection. A pop
// failing with the typed ErrClosed while responses are still in flight
// is the half-close case: the client sent FIN but still receives, so
// the server finishes flushing before tearing down.
func (s *Server) opFailed(c *conn, isPush bool, err error) {
	if !isPush && errors.Is(err, queue.ErrClosed) && len(c.inflight) > 0 {
		if !c.closing {
			s.halfClosed.Add(1)
			c.closing = true
		}
		return
	}
	s.closeConn(c)
}

// submit stages one response push; rb joins the connection's
// in-flight FIFO until its push CQE retires it.
func (s *Server) submit(c *conn, rb *respBuf, g sga.SGA, cost simclock.Lat) {
	s.sqes = append(s.sqes, uring.SQE{
		Op: queue.OpPush, QD: int32(c.qd), Tag: pushTag(c.qd), SGA: g, Cost: cost,
	})
	c.inflight = append(c.inflight, rb)
}

// armPops tops the connection's armed-pop window up to defaultPopDepth,
// unless the response backlog says the reader is not keeping up — then the
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
	for c.pops < defaultPopDepth {
		s.sqes = append(s.sqes, uring.SQE{Op: queue.OpPop, QD: int32(c.qd), Tag: popTag(c.qd)})
		c.pops++
	}
}

// closeConn tears the connection down, releasing any queued response
// descriptors.
func (s *Server) closeConn(c *conn) {
	if _, ok := s.conns[c.qd]; !ok {
		return
	}
	delete(s.conns, c.qd)
	for i, rb := range c.inflight {
		s.putResp(rb)
		c.inflight[i] = nil
	}
	c.inflight = c.inflight[:0]
	s.lib.Close(c.qd) //nolint:errcheck // may already be gone
	s.closed.Add(1)
}

// reapIdle closes connections with no request activity for IdleTimeout,
// scanning at most every IdleTimeout/4 so reaping stays off the hot
// path.
func (s *Server) reapIdle() {
	if s.IdleTimeout <= 0 {
		return
	}
	now := s.now()
	if now.Sub(s.lastReap) < s.IdleTimeout/4 {
		return
	}
	s.lastReap = now
	s.scan = s.scan[:0]
	for _, c := range s.conns {
		if !c.closing && len(c.inflight) == 0 &&
			now.Sub(c.last) >= s.IdleTimeout {
			s.scan = append(s.scan, c)
		}
	}
	for _, c := range s.scan {
		s.closeConn(c)
		s.idleReaped.Add(1)
	}
	s.scan = s.scan[:0]
}

// serveSGA parses every complete request in the popped SGA and responds
// to each. The single-segment no-leftover case — the overwhelmingly
// common one — parses the popped buffer in place; split or multi-
// segment requests fall back to the per-connection pending buffer.
func (s *Server) serveSGA(c *conn, g sga.SGA, cost simclock.Lat) int {
	served := 0
	if len(c.pending) == 0 && len(g.Segments) == 1 {
		buf := g.Segments[0].Buf
		n := s.parseAndServe(c, buf, cost, &served)
		if n < len(buf) && !c.closing {
			c.pending = append(c.pending[:0], buf[n:]...)
		}
	} else {
		for _, seg := range g.Segments {
			c.pending = append(c.pending, seg.Buf...)
		}
		n := s.parseAndServe(c, c.pending, cost, &served)
		c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	}
	g.Free()
	return served
}

// parseAndServe consumes requests from buf until it is exhausted, a
// request is incomplete, or the connection is closing.
func (s *Server) parseAndServe(c *conn, buf []byte, cost simclock.Lat, served *int) int {
	consumed := 0
	for consumed < len(buf) && !c.closing {
		req, n, err := parseRequest(buf[consumed:])
		if err != nil {
			// Unsalvageable head: answer 400 and drop the rest of the
			// stream — there is no trustworthy request boundary left.
			s.respondBad(c, cost)
			c.closing = true
			return len(buf)
		}
		if n == 0 {
			break
		}
		consumed += n
		s.respond(c, req, cost)
		*served++
		if req.close {
			c.closing = true
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
	s.submit(c, rb, g, cost+s.AppCost)
}

// respondBad answers a malformed request with a close-marked 400.
func (s *Server) respondBad(c *conn, cost simclock.Lat) {
	rb := s.getResp()
	g := s.buildStatus(rb, status400, badReqBody, true)
	s.requests.Add(1)
	s.r400.Add(1)
	s.submit(c, rb, g, cost+s.AppCost)
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
	rb.nseg = 1
	n := int64(len(rb.hdr))
	if !head && len(body) > 0 {
		rb.segs[1] = sga.Segment{Buf: body}
		rb.nseg = 2
		n += int64(len(body))
	}
	s.bytesOut.Add(n)
	return sga.SGA{Segments: rb.segs[:rb.nseg]}
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
	rb.nseg = 0
	s.respFree = append(s.respFree, rb)
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

// Conns returns the live connection count.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
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
		ConnsAccepted: s.accepted.Load(),
		ConnsClosed:   s.closed.Load(),
		IdleReaped:    s.idleReaped.Load(),
		HalfCloses:    s.halfClosed.Load(),
		Backlogs:      s.pauses.Load(),
	}
}

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
	r.RegisterFunc(prefix+".conns_accepted", s.accepted.Load)
	r.RegisterFunc(prefix+".conns_closed", s.closed.Load)
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
		s.routes = append(s.routes, string(route))
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

// LatencyTable renders per-route latency percentiles, first-seen order.
func (s *Server) LatencyTable() *metrics.Table {
	tbl := metrics.NewTable("httpd per-route service latency (virtual)",
		"route", "requests", "p50", "p99", "p99.9", "max")
	s.latMu.Lock()
	defer s.latMu.Unlock()
	for _, route := range s.routes {
		h := s.lat[route]
		tbl.AddRow(route, h.Count(), h.Percentile(50), h.Percentile(99),
			h.Percentile(99.9), h.Max())
	}
	return tbl
}
