package httpd

// The HTTP client side: a keep-alive connection issuing GET/HEAD
// requests, with three request disciplines layered over the same
// parser — one-at-a-time (Get), pipelined-in-one-push (GetPipelined,
// which exercises the server's multiple-requests-per-pop parse loop),
// and batches over a completion ring (GetBatch). SendRequest /
// ReadResponse are split out so a workload rig can model a slow reader:
// keep sending, refuse to read, and let TCP backpressure build.

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"demikernel/internal/apps/failover"
	"demikernel/internal/core"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

// Response is one parsed HTTP response.
type Response struct {
	Status int
	Body   []byte // copied out of the popped SGA
	Close  bool   // server announced Connection: close
	Cost   simclock.Lat
}

// Client issues requests over one keep-alive connection.
type Client struct {
	lib  *core.LibOS
	qd   core.QD
	addr core.Addr
	req  []byte // reused request-build buffer
	pol  *failover.Policy

	redials atomic.Int64

	// GetBatch state; the ring attaches on the first batch.
	ring    *uring.Pair
	rsqes   []uring.SQE
	rcqes   []uring.CQE
	ringGen uint64
	breqs   [][]byte         // per-slot request bytes, alive until push CQEs
	bsegs   [][1]sga.Segment // per-slot segment arrays backing the SGAs
}

// NewClient creates a client on lib.
func NewClient(lib *core.LibOS) *Client { return &Client{lib: lib} }

// Connect dials the server and remembers the address for redials.
func (c *Client) Connect(addr core.Addr) error {
	qd, err := failover.Dial(c.lib, addr)
	if err != nil {
		return err
	}
	c.qd = qd
	c.addr = addr
	return nil
}

// Dial stages a client on lib: a background poller for lib and a
// connection to addr. stop closes the connection and stops the poller.
func Dial(lib *core.LibOS, addr core.Addr) (cli *Client, stop func(), err error) {
	stopPoll := lib.Background()
	c := NewClient(lib)
	if err := c.Connect(addr); err != nil {
		stopPoll()
		return nil, nil, err
	}
	return c, func() {
		c.Close() //nolint:errcheck // the server may have closed first
		stopPoll()
	}, nil
}

// Adopt takes over an already-connected descriptor (DialToShard flows).
func (c *Client) Adopt(qd core.QD, addr core.Addr) {
	c.qd = qd
	c.addr = addr
}

// QD exposes the connection descriptor.
func (c *Client) QD() core.QD { return c.qd }

// Close shuts the connection.
func (c *Client) Close() error { return c.lib.Close(c.qd) }

// EnableFailover arms redial-and-replay with pol (GETs are idempotent).
func (c *Client) EnableFailover(pol failover.Policy) { c.pol = &pol }

// FailoverStats reports redials and replays performed so far (every
// successful redial replays the one request that was in flight).
func (c *Client) FailoverStats() (reconnects, replays int64) {
	n := c.redials.Load()
	return n, n
}

// appendRequest serializes one request into dst.
func appendRequest(dst []byte, path string, head, connClose bool, rangeSpec string) []byte {
	if head {
		dst = append(dst, "HEAD "...)
	} else {
		dst = append(dst, "GET "...)
	}
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: demi\r\n"...)
	if connClose {
		dst = append(dst, "Connection: close\r\n"...)
	}
	if rangeSpec != "" {
		dst = append(dst, "Range: "...)
		dst = append(dst, rangeSpec...)
		dst = append(dst, '\r', '\n')
	}
	return append(dst, '\r', '\n')
}

// SendRequest pushes one request without reading the response — the
// slow-reader half; pair with ReadResponse.
func (c *Client) SendRequest(path string, connClose bool) error {
	return c.send(path, false, connClose, "")
}

func (c *Client) send(path string, head, connClose bool, rangeSpec string) error {
	c.req = appendRequest(c.req[:0], path, head, connClose, rangeSpec)
	qt, err := c.lib.PushCost(c.qd, sga.New(c.req), 0)
	if err != nil {
		return err
	}
	comp, err := c.lib.Wait(qt)
	if err != nil {
		return err
	}
	return comp.Err
}

// ReadResponse blocks for the next response and parses it.
func (c *Client) ReadResponse() (Response, error) { return c.readResponse(false) }

func (c *Client) readResponse(head bool) (Response, error) {
	comp, err := c.lib.BlockingPop(c.qd)
	if err != nil {
		return Response{}, err
	}
	if comp.Err != nil {
		return Response{}, comp.Err
	}
	defer comp.SGA.Free()
	resp, err := parseResponseSGA(comp.SGA, head)
	resp.Cost = comp.Cost
	return resp, err
}

// Get issues one GET and reads its response; under an armed failover
// policy a dead peer triggers backoff, redial, and replay.
func (c *Client) Get(path string) (Response, error) {
	return c.roundTrip(path, false, false, "")
}

// Head issues one HEAD request.
func (c *Client) Head(path string) (Response, error) {
	return c.roundTrip(path, true, false, "")
}

// GetClose issues a GET with Connection: close.
func (c *Client) GetClose(path string) (Response, error) {
	return c.roundTrip(path, false, true, "")
}

// GetRange issues a ranged GET (rangeSpec like "bytes=0-99").
func (c *Client) GetRange(path, rangeSpec string) (Response, error) {
	return c.roundTrip(path, false, false, rangeSpec)
}

func (c *Client) roundTrip(path string, head, connClose bool, rangeSpec string) (resp Response, err error) {
	redials, err := failover.Do(c.pol,
		func() (err error) { resp, err = c.attempt(path, head, connClose, rangeSpec); return err },
		func() error { return failover.Redial(c.lib, &c.qd, c.addr) })
	if redials > 0 {
		c.redials.Add(int64(redials))
	}
	return resp, err
}

func (c *Client) attempt(path string, head, connClose bool, rangeSpec string) (Response, error) {
	if err := c.send(path, head, connClose, rangeSpec); err != nil {
		return Response{}, err
	}
	return c.readResponse(head)
}

// GetPipelined concatenates all requests into ONE push — the wire shape
// of an aggressive pipelining client — then reads one response per
// request. The server must parse multiple requests out of a single
// popped SGA for this to come back complete.
func (c *Client) GetPipelined(paths []string) ([]Response, error) {
	c.req = c.req[:0]
	for _, p := range paths {
		c.req = appendRequest(c.req, p, false, false, "")
	}
	qt, err := c.lib.PushCost(c.qd, sga.New(c.req), 0)
	if err != nil {
		return nil, err
	}
	comp, err := c.lib.Wait(qt)
	if err != nil {
		return nil, err
	}
	if comp.Err != nil {
		return nil, comp.Err
	}
	out := make([]Response, 0, len(paths))
	for range paths {
		resp, err := c.ReadResponse()
		if err != nil {
			return out, err
		}
		out = append(out, resp)
	}
	return out, nil
}

// parseResponseSGA parses a popped response SGA: the head must sit in
// the first segment (the server pushes header and body as separate
// segments and framing preserves them); body segments are copied out.
// isHead relaxes the Content-Length check — a HEAD reply announces the
// body it does not carry.
func parseResponseSGA(g sga.SGA, isHead bool) (Response, error) {
	if len(g.Segments) == 0 {
		return Response{}, fmt.Errorf("httpd: empty response")
	}
	head := g.Segments[0].Buf
	status, contentLen, connClose, err := parseResponseHead(head)
	if err != nil {
		return Response{}, err
	}
	resp := Response{Status: status, Close: connClose}
	if contentLen > 0 && !isHead {
		resp.Body = make([]byte, 0, contentLen)
		for _, seg := range g.Segments[1:] {
			resp.Body = append(resp.Body, seg.Buf...)
		}
		if int64(len(resp.Body)) != contentLen {
			return resp, fmt.Errorf("httpd: body %d bytes, Content-Length %d",
				len(resp.Body), contentLen)
		}
	}
	return resp, nil
}

// parseResponseHead parses the status line and the response headers the
// client cares about. contentLen is -1 when absent.
func parseResponseHead(head []byte) (status int, contentLen int64, connClose bool, err error) {
	end := bytes.Index(head, crlf2)
	if end < 0 {
		return 0, 0, false, fmt.Errorf("httpd: truncated response head")
	}
	head = head[:end]
	eol := bytes.IndexByte(head, '\r')
	if eol < 0 {
		eol = len(head)
	}
	line := head[:eol]
	if len(line) < len("HTTP/1.1 200") || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, false, fmt.Errorf("httpd: malformed status line")
	}
	code, ok := parseDecimal(line[len("HTTP/1.1 ") : len("HTTP/1.1 ")+3])
	if !ok {
		return 0, 0, false, fmt.Errorf("httpd: malformed status code")
	}
	contentLen = -1
	rest := head[eol:]
	for len(rest) > 0 {
		if bytes.HasPrefix(rest, []byte("\r\n")) {
			rest = rest[2:]
			continue
		}
		nl := bytes.IndexByte(rest, '\r')
		var line []byte
		if nl < 0 {
			line, rest = rest, nil
		} else {
			line, rest = rest[:nl], rest[nl:]
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		name, val := line[:colon], trimSpaces(line[colon+1:])
		switch {
		case foldEq(name, "content-length"):
			if n, ok := parseDecimal(val); ok {
				contentLen = n
			}
		case foldEq(name, "connection"):
			connClose = foldEq(val, "close")
		}
	}
	return int(code), contentLen, connClose, nil
}

// Ring returns the client's ring pair (nil before the first GetBatch).
func (c *Client) Ring() *uring.Pair { return c.ring }

// GetBatch issues len(paths) pipelined GETs in one submission — pushes
// and pops together, completions harvested as they land — and
// returns how many responses came back 2xx plus the mean virtual
// round-trip cost. Bodies are validated against Content-Length and
// discarded without copying, so the steady-state path allocates
// nothing once the per-slot buffers are warm.
func (c *Client) GetBatch(paths []string, appCost simclock.Lat) (ok2xx int, mean simclock.Lat, err error) {
	batch := len(paths)
	if c.ring == nil {
		c.ring = c.lib.AttachRing(2 * batch)
	}
	if len(c.rcqes) < 2*batch {
		c.rcqes = make([]uring.CQE, 2*batch)
	}
	for len(c.breqs) < batch {
		c.breqs = append(c.breqs, nil)
		c.bsegs = append(c.bsegs, [1]sga.Segment{})
	}
	c.ringGen++
	gen := c.ringGen << 32

	sq := c.rsqes[:0]
	for i, p := range paths {
		c.breqs[i] = appendRequest(c.breqs[i][:0], p, false, false, "")
		c.bsegs[i][0] = sga.Segment{Buf: c.breqs[i]}
		sq = append(sq,
			uring.SQE{Op: queue.OpPush, QD: int32(c.qd), Tag: gen | uint64(i)<<1 | 1,
				SGA: sga.SGA{Segments: c.bsegs[i][:1]}, Cost: appCost},
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
			return 0, 0, err
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
				if status, bodyLen, perr := checkResponseSGA(cq.SGA); perr != nil {
					if firstErr == nil {
						firstErr = perr
					}
				} else if status >= 200 && status < 300 && bodyLen >= 0 {
					ok2xx++
					total += cq.Cost
					pops++
				}
				cq.SGA.Free()
			}
			*cq = uring.CQE{}
		}
	}
	if firstErr != nil {
		return ok2xx, 0, firstErr
	}
	if pops == 0 {
		return 0, 0, nil
	}
	return ok2xx, total / simclock.Lat(pops), nil
}

// checkResponseSGA validates a response in place without copying the
// body out.
func checkResponseSGA(g sga.SGA) (status int, bodyLen int64, err error) {
	if len(g.Segments) == 0 {
		return 0, 0, fmt.Errorf("httpd: empty response")
	}
	status, contentLen, _, err := parseResponseHead(g.Segments[0].Buf)
	if err != nil {
		return 0, 0, err
	}
	for _, seg := range g.Segments[1:] {
		bodyLen += int64(len(seg.Buf))
	}
	if contentLen >= 0 && bodyLen != contentLen {
		return status, bodyLen, fmt.Errorf("httpd: body %d bytes, Content-Length %d",
			bodyLen, contentLen)
	}
	return status, bodyLen, nil
}
