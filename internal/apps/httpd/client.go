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

	"demikernel/internal/apps/failover"
	"demikernel/internal/apps/serve"
	"demikernel/internal/core"
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
	*failover.Conn
	req []byte // reused request-build buffer

	// GetBatch state.
	batch serve.Batch
	breqs [][]byte         // per-slot request bytes, alive until push CQEs
	bsegs [][1]sga.Segment // per-slot segment arrays backing the SGAs
}

// NewClient creates a client on lib.
func NewClient(lib *core.LibOS) *Client {
	return &Client{Conn: failover.NewConn(lib, core.InvalidQD, nil)}
}

// Dial stages a client on lib: a background poller for lib and a
// connection to addr. stop closes the connection and stops the poller.
func Dial(lib *core.LibOS, addr core.Addr) (cli *Client, stop func(), err error) {
	c := NewClient(lib)
	if stop, err = failover.Stage(lib, func() error { return c.Connect(addr) }, c.Close); err != nil {
		return nil, nil, err
	}
	return c, stop, nil
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
	c.req = appendRequest(c.req[:0], path, false, connClose, "")
	return failover.Send(c.Lib(), c.QD(), sga.New(c.req), 0)
}

// ReadResponse blocks for the next response and parses it.
func (c *Client) ReadResponse() (Response, error) {
	g, cost, err := failover.Recv(c.Lib(), c.QD())
	if err != nil {
		return Response{}, err
	}
	return parseResponseSGA(g, cost, false)
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

// roundTrip is one request and its response on the connection, redialled
// and replayed under an armed failover policy.
func (c *Client) roundTrip(path string, head, connClose bool, rangeSpec string) (resp Response, err error) {
	err = c.Replay(c.Lib(), func() error {
		c.req = appendRequest(c.req[:0], path, head, connClose, rangeSpec)
		g, cost, err := c.Exchange(sga.New(c.req), 0)
		if err == nil {
			resp, err = parseResponseSGA(g, cost, head)
		}
		return err
	}, c.Redial)
	return resp, err
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
	if err := failover.Send(c.Lib(), c.QD(), sga.New(c.req), 0); err != nil {
		return nil, err
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

// parseResponseSGA parses a popped response (checkResponseSGA) that
// cost cost, copies its body out, and frees g.
func parseResponseSGA(g sga.SGA, cost simclock.Lat, isHead bool) (Response, error) {
	defer g.Free()
	status, connClose, err := checkResponseSGA(g, isHead)
	resp := Response{Status: status, Close: connClose, Cost: cost}
	if err == nil && !isHead && len(g.Segments) > 1 {
		resp.Body = make([]byte, 0, g.Len()-len(g.Segments[0].Buf))
		for _, seg := range g.Segments[1:] {
			resp.Body = append(resp.Body, seg.Buf...)
		}
	}
	return resp, err
}

// checkResponseSGA validates a popped response in place: the head must sit
// in the first segment (the server pushes header and body as separate
// segments and framing preserves them), and the body segments must carry
// the Content-Length announced, unless isHead — a HEAD reply announces
// the body it does not carry.
func checkResponseSGA(g sga.SGA, isHead bool) (status int, connClose bool, err error) {
	if len(g.Segments) == 0 {
		return 0, false, fmt.Errorf("httpd: empty response")
	}
	status, contentLen, connClose, err := parseResponseHead(g.Segments[0].Buf)
	if err != nil {
		return 0, false, err
	}
	if body := int64(g.Len() - len(g.Segments[0].Buf)); !isHead && contentLen >= 0 && body != contentLen {
		return status, connClose, fmt.Errorf("httpd: body %d bytes, Content-Length %d", body, contentLen)
	}
	return status, connClose, nil
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
func (c *Client) Ring() *uring.Pair { return c.batch.Ring() }

// GetBatch issues len(paths) pipelined GETs in one submission and returns
// how many responses came back 2xx plus their mean virtual round-trip
// cost. Bodies are validated against Content-Length and discarded without
// copying, so the steady-state path allocates nothing once the per-slot
// buffers are warm.
func (c *Client) GetBatch(paths []string, appCost simclock.Lat) (ok2xx int, mean simclock.Lat, err error) {
	for len(c.breqs) < len(paths) {
		c.breqs = append(c.breqs, nil)
		c.bsegs = append(c.bsegs, [1]sga.Segment{})
	}
	return c.batch.Round(c.Lib(), c.QD(), len(paths), appCost,
		func(i int) sga.SGA {
			c.breqs[i] = appendRequest(c.breqs[i][:0], paths[i], false, false, "")
			c.bsegs[i][0] = sga.Segment{Buf: c.breqs[i]}
			return sga.SGA{Segments: c.bsegs[i][:1]}
		},
		func(resp sga.SGA) (bool, error) {
			status, _, err := checkResponseSGA(resp, false)
			return err == nil && status >= 200 && status < 300, err
		})
}
