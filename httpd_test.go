package demikernel

// End-to-end tests for the HTTP/1.1 server on catnip queues: keep-alive
// request handling, ranged reads, pipelining, Connection: close, idle
// reaping, half-close, and — the point of this PR — slow-client TCP
// backpressure. The slow-client tests exercise the full forcing chain
// (app pop rate → bounded endpoint ready list → shrinking advertised
// window → sender stall) and only recover because of the window-update
// ACK and zero-window persist-probe fixes in the user TCP stack; with
// either reverted, they hang at the stall and fail.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"demikernel/internal/apps/failover"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/fabric"
	"demikernel/internal/telemetry"
	"demikernel/internal/workload"
)

const httpdPort = 8080

// httpdRig is one served httpd instance over a two-node catnip cluster:
// server on host 1 (pumped by Server.Run in a goroutine), client on
// host 2 (self-polled by its blocking calls).
type httpdRig struct {
	c       *Cluster
	srvNode *Node
	cliNode *Node
	srv     *httpd.Server
	objs    []workload.HTTPObject
	addr    Addr
	stop    chan struct{}
}

func newHTTPDRig(t *testing.T, seed int64, nobj, objSize int, cliCfg NodeConfig) *httpdRig {
	t.Helper()
	c := NewCluster(seed)
	srvNode := c.MustSpawn(Catnip, WithHost(1))
	if cliCfg.Host == 0 {
		cliCfg.Host = 2
	}
	cliNode := c.MustSpawn(Catnip, WithConfig(cliCfg))

	objs := workload.HTTPObjects(nobj, workload.FixedSize(objSize), seed)
	tree := httpd.NewTree()
	for _, o := range objs {
		tree.Add(o.Path, o.Body)
	}
	srv := httpd.NewServer(srvNode.LibOS, tree)
	if err := srv.Listen(httpdPort); err != nil {
		t.Fatal(err)
	}
	return &httpdRig{
		c: c, srvNode: srvNode, cliNode: cliNode, srv: srv, objs: objs,
		addr: c.AddrOf(srvNode, httpdPort),
	}
}

func (r *httpdRig) start() {
	r.stop = make(chan struct{})
	go r.srv.Run(r.stop)
}

func (r *httpdRig) shutdown() {
	if r.stop != nil {
		close(r.stop)
		r.stop = nil
	}
}

func (r *httpdRig) dial(t *testing.T) *httpd.Client {
	t.Helper()
	cl := httpd.NewClient(r.cliNode.LibOS)
	if err := cl.Connect(r.addr); err != nil {
		t.Fatal(err)
	}
	return cl
}

// waitCond polls both nodes until cond holds or the deadline passes.
func (r *httpdRig) waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		r.cliNode.Poll()
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPServeBasics covers the response matrix over one keep-alive
// connection: 200 with a body, HEAD without one, 404, satisfiable and
// unsatisfiable ranges, and Connection: close teardown.
func TestHTTPServeBasics(t *testing.T) {
	r := newHTTPDRig(t, 81, 4, 1024, NodeConfig{})
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	resp, err := cl.Get(r.objs[1].Path)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, r.objs[1].Body) || resp.Close {
		t.Fatalf("GET: status=%d len=%d close=%v", resp.Status, len(resp.Body), resp.Close)
	}

	resp, err = cl.Head(r.objs[2].Path)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) != 0 {
		t.Fatalf("HEAD: status=%d len=%d, want 200 with no body", resp.Status, len(resp.Body))
	}

	resp, err = cl.Get("/no/such/object")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("missing object: status=%d, want 404", resp.Status)
	}

	resp, err = cl.GetRange(r.objs[0].Path, "bytes=100-199")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 206 || !bytes.Equal(resp.Body, r.objs[0].Body[100:200]) {
		t.Fatalf("range: status=%d len=%d", resp.Status, len(resp.Body))
	}

	resp, err = cl.GetRange(r.objs[0].Path, "bytes=-64")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 206 || !bytes.Equal(resp.Body, r.objs[0].Body[1024-64:]) {
		t.Fatalf("suffix range: status=%d len=%d", resp.Status, len(resp.Body))
	}

	resp, err = cl.GetRange(r.objs[0].Path, "bytes=4096-")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 416 || len(resp.Body) != 0 {
		t.Fatalf("unsatisfiable range: status=%d len=%d, want 416 empty", resp.Status, len(resp.Body))
	}

	if got := r.srv.Conns(); got != 1 {
		t.Fatalf("one keep-alive connection should be live, got %d", got)
	}

	// Connection: close answers the request, announces close, and tears
	// the connection down once the response flushes.
	resp, err = cl.GetClose(r.objs[3].Path)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !resp.Close || !bytes.Equal(resp.Body, r.objs[3].Body) {
		t.Fatalf("GET close: status=%d close=%v", resp.Status, resp.Close)
	}
	r.waitCond(t, "connection teardown", func() bool { return r.srv.Conns() == 0 })

	st := r.srv.Stats()
	if st.Requests != 7 || st.R200 != 3 || st.Heads != 1 || st.R206 != 2 || st.R404 != 1 || st.R416 != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ConnsAccepted != 1 || st.ConnsClosed != 1 {
		t.Fatalf("conn accounting: %+v", st)
	}
}

// TestHTTPPipelined sends many requests in ONE push; the server must
// parse them all out of however few pops they arrive as and answer each
// in order.
func TestHTTPPipelined(t *testing.T) {
	r := newHTTPDRig(t, 82, 8, 512, NodeConfig{})
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	idx := []int{3, 1, 3, 0, 7, 5, 1, 2, 6, 4}
	paths := make([]string, len(idx))
	for i, j := range idx {
		paths[i] = r.objs[j].Path
	}
	resps, err := cl.GetPipelined(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(paths) {
		t.Fatalf("got %d responses, want %d", len(resps), len(paths))
	}
	for i, resp := range resps {
		if resp.Status != 200 || !bytes.Equal(resp.Body, r.objs[idx[i]].Body) {
			t.Fatalf("response %d: status=%d len=%d", i, resp.Status, len(resp.Body))
		}
	}
	if st := r.srv.Stats(); st.Requests != int64(len(paths)) {
		t.Fatalf("served %d requests, want %d", st.Requests, len(paths))
	}
}

// TestHTTPMalformed400 pushes an unparseable head; the server answers a
// close-marked 400 and drops the connection.
func TestHTTPMalformed400(t *testing.T) {
	r := newHTTPDRig(t, 83, 1, 256, NodeConfig{})
	r.start()
	defer r.shutdown()

	cqd, err := r.cliNode.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cliNode.Connect(cqd, r.addr); err != nil {
		t.Fatal(err)
	}
	cl := httpd.NewClient(r.cliNode.LibOS)
	cl.Adopt(cqd, r.addr)
	if _, err := r.cliNode.BlockingPush(cqd, NewSGA([]byte("PUT /x HTTP/1.1\r\n\r\n"))); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 400 || !resp.Close {
		t.Fatalf("malformed request: status=%d close=%v, want 400 close", resp.Status, resp.Close)
	}
	r.waitCond(t, "400 teardown", func() bool { return r.srv.Conns() == 0 })
	if st := r.srv.Stats(); st.R400 != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHTTPIdleReap stops the server's clock, lets a keep-alive connection go
// quiet past IdleTimeout, and requires the server to reap it.
func TestHTTPIdleReap(t *testing.T) {
	r := newHTTPDRig(t, 84, 1, 256, NodeConfig{})
	r.srv.IdleTimeout = time.Second
	// The server's clock stands still: only the step below idles the
	// connection, however slow the host.
	r.srvNode.Clock().SetSkew(-1e6)
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	if resp, err := cl.Get(r.objs[0].Path); err != nil || resp.Status != 200 {
		t.Fatalf("warmup GET: %v status=%d", err, resp.Status)
	}
	if got := r.srv.Conns(); got != 1 {
		t.Fatalf("conns=%d, want 1", got)
	}
	r.srvNode.Clock().Step(2 * time.Second) // two idle seconds later
	r.waitCond(t, "idle reap", func() bool { return r.srv.Conns() == 0 })
	if st := r.srv.Stats(); st.IdleReaped != 1 {
		t.Fatalf("idle_reaped=%d, want 1", st.IdleReaped)
	}
	// The reaped connection is really gone: the next request fails.
	r.cliNode.WaitTimeout = 200 * time.Millisecond
	if _, err := cl.Get(r.objs[0].Path); err == nil {
		t.Fatal("GET on a reaped connection succeeded")
	}
}

// TestHTTPHalfCloseFlush: the client sends two large requests and sends
// FIN without reading. A small RxReadyCap keeps the responses from
// draining, so the server's second push cannot complete when its pop
// fails with the typed ErrClosed — the half-close case. The server must
// record it and keep flushing instead of dropping the owed response.
func TestHTTPHalfCloseFlush(t *testing.T) {
	r := newHTTPDRig(t, 85, 1, 200*1024, NodeConfig{Host: 2, RxReadyCap: 2})
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	if err := cl.SendRequest(r.objs[0].Path, false); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendRequest(r.objs[0].Path, false); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	r.waitCond(t, "half-close detection", func() bool { return r.srv.Stats().HalfCloses >= 1 })
	if st := r.srv.Stats(); st.Requests != 2 || st.R200 != 2 {
		t.Fatalf("both requests should have been served: %+v", st)
	}
}

// TestHTTPSlowClientStallAndRecover is the headline regression test: a
// client with a small bounded ready list issues far more requests than
// the stack can buffer and refuses to read. The stall must propagate
// app → endpoint → TCP window → server (rx_ready_stalls on the client,
// backlog pauses on the server), and — once the client starts reading —
// every response must still arrive intact. Recovery rides on the TCP
// window-update ACK and persist-probe fixes; without them this test
// deadlocks at the stall.
func TestHTTPSlowClientStallAndRecover(t *testing.T) {
	r := newHTTPDRig(t, 86, 4, 8192, NodeConfig{Host: 2, RxReadyCap: 4})
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	const n = 160
	for i := 0; i < n; i++ {
		if err := cl.SendRequest(r.objs[i%4].Path, false); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	// Stall phase: no reads at all. Responses back up in the client's
	// TCP receive buffer, the advertised window closes, the server's
	// sends stall, and its response backlog hits the pause threshold.
	r.waitCond(t, "server backlog pause", func() bool {
		return r.srv.Stats().Backlogs >= 1
	})

	// Slow-read phase: the first pops pump the parked drain, which
	// immediately hits the bounded ready list — the rx_ready_stalls
	// counter must record the park.
	for i := 0; i < 8; i++ {
		resp, err := cl.ReadResponse()
		if err != nil {
			t.Fatalf("slow read %d: %v", i, err)
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, r.objs[i%4].Body) {
			t.Fatalf("slow response %d: status=%d len=%d", i, resp.Status, len(resp.Body))
		}
	}
	if r.cliNode.Catnip.RxStalls() < 1 {
		t.Fatal("bounded ready list never parked the drain (rx_ready_stalls = 0)")
	}

	// Recovery phase: read everything; each pop reopens ready-list space
	// and, through the resumed drain, the TCP window.
	for i := 8; i < n; i++ {
		resp, err := cl.ReadResponse()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, r.objs[i%4].Body) {
			t.Fatalf("response %d: status=%d len=%d", i, resp.Status, len(resp.Body))
		}
	}
	if st := r.srv.Stats(); st.Requests != n || st.R200 != n {
		t.Fatalf("served %d/%d: %+v", st.R200, n, st)
	}
	if got := r.srv.Conns(); got != 1 {
		t.Fatalf("connection should have survived the stall, conns=%d", got)
	}
}

// TestHTTPRingServe drives the server with every client discipline on
// one connection: per-op calls, one pipelined push, and a batch submitted
// at once and harvested from the client's ring with GetBatch.
func TestHTTPRingServe(t *testing.T) {
	r := newHTTPDRig(t, 88, 8, 1024, NodeConfig{})
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	resp, err := cl.Get(r.objs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, r.objs[0].Body) {
		t.Fatalf("ring-server GET: status=%d len=%d", resp.Status, len(resp.Body))
	}

	paths := make([]string, 8)
	for i := range paths {
		paths[i] = r.objs[i].Path
	}
	resps, err := cl.GetPipelined(paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, rp := range resps {
		if rp.Status != 200 || !bytes.Equal(rp.Body, r.objs[i].Body) {
			t.Fatalf("pipelined %d over ring server: status=%d", i, rp.Status)
		}
	}

	ok2xx, _, err := cl.GetBatch(paths, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok2xx != len(paths) {
		t.Fatalf("ring batch: %d/%d responses 2xx", ok2xx, len(paths))
	}
	if st := r.srv.Stats(); st.Requests != int64(1+8+8) {
		t.Fatalf("requests=%d, want 17", st.Requests)
	}
}

// TestHTTPRingSlowClient (named for the ring-mode server it once
// selected) is the slow-reader scenario read straight through once the
// server has paused: pops stay armed per connection, the backlog pause
// must close the window instead of buffering, and the server must have
// served exactly what was sent.
func TestHTTPRingSlowClient(t *testing.T) {
	r := newHTTPDRig(t, 89, 2, 8192, NodeConfig{Host: 2, RxReadyCap: 4})
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	const n = 160
	for i := 0; i < n; i++ {
		if err := cl.SendRequest(r.objs[i%2].Path, false); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	r.waitCond(t, "ring server backlog pause", func() bool {
		return r.srv.Stats().Backlogs >= 1
	})
	for i := 0; i < n; i++ {
		resp, err := cl.ReadResponse()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, r.objs[i%2].Body) {
			t.Fatalf("response %d: status=%d len=%d", i, resp.Status, len(resp.Body))
		}
	}
	if r.cliNode.Catnip.RxStalls() < 1 {
		t.Fatal("bounded ready list never parked the drain (rx_ready_stalls = 0)")
	}
	if st := r.srv.Stats(); st.Requests != n {
		t.Fatalf("served %d, want %d", st.Requests, n)
	}
}

// TestHTTPLateAnswerAfterFailedRedial: over catmint, a push completes
// only when the peer acknowledges it, so a link that holds the request
// fails the push's wait while the request is still on its way. The
// redial after it fails too (the client's link is cut), so the client
// keeps the connection, and when the link heals the first request's
// answer arrives with no pop posted for it. A GET of another path on
// that connection must read its own body, not the late answer.
func TestHTTPLateAnswerAfterFailedRedial(t *testing.T) {
	c := NewCluster(91)
	srvNode := c.MustSpawn(Catmint, WithHost(1))
	cliNode := c.MustSpawn(Catmint, WithHost(2))
	tree := httpd.NewTree()
	first, second := bytes.Repeat([]byte{'1'}, 100), bytes.Repeat([]byte{'2'}, 200)
	tree.Add("/first", first)
	tree.Add("/second", second)
	_, stopSrv, err := httpd.Serve(srvNode.LibOS, tree, httpdPort)
	if err != nil {
		t.Fatal(err)
	}
	defer stopSrv()
	// The client is polled by its own blocking calls only, so nothing
	// moves on its side between them.
	cl := httpd.NewClient(cliNode.LibOS)
	if err := cl.Connect(c.AddrOf(srvNode, httpdPort)); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp, err := cl.Get("/second"); err != nil || !bytes.Equal(resp.Body, second) {
		t.Fatalf("healthy GET /second: %d bytes, err=%v", len(resp.Body), err)
	}
	cliNode.WaitTimeout = 100 * time.Millisecond
	cl.EnableFailover(failover.Policy{MaxAttempts: 1, Base: 100 * time.Millisecond, Max: 100 * time.Millisecond})

	// Every frame is now held until the next one passes, and nothing else
	// is in flight: the GET's request is held. Once it is, cut the
	// client's link, before the push's wait and the backoff run out, so
	// the redial's connect request dies at the client's port.
	port := cliNode.FabricPort()
	c.Switch.SetImpairments(fabric.Impairments{ReorderRate: 1})
	cut := make(chan struct{})
	go func() {
		defer close(cut)
		for c.Switch.Stats().InjectedReorder == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		c.Switch.SetLinkState(port, false)
	}()
	_, err = cl.Get("/first")
	<-cut
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("GET /first across a held request and a cut link = %v, want a timed-out wait", err)
	}
	if redials, _ := cl.FailoverStats(); redials != 0 {
		t.Fatalf("%d redials succeeded across a cut link", redials)
	}

	// Heal: the held request reaches the server, which answers it late.
	c.Switch.SetLinkState(port, true)
	c.Switch.SetImpairments(fabric.Impairments{})
	c.Switch.Flush()
	resp, err := cl.Get("/second")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, second) {
		t.Fatalf("GET /second after the heal: status %d, %d-byte body (/first's is %d, its own %d)",
			resp.Status, len(resp.Body), len(first), len(second))
	}
}

// TestHTTPCrashRestartKeepAlive kills the server mid keep-alive session
// (pipelined requests before and after), three times over, with no call
// into the server in between: it heals itself. After each restart the
// client's armed failover policy must redial and replay onto the new
// incarnation, a fresh dial must be served, and the server's libOS must
// still carry the one ring it started with; the frame-conservation laws
// across the boundaries close the test.
func TestHTTPCrashRestartKeepAlive(t *testing.T) {
	r := newHTTPDRig(t, 87, 4, 2048, NodeConfig{Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4})
	r.cliNode.WaitTimeout = 200 * time.Millisecond
	reg := telemetry.NewRegistry()
	r.srvNode.RegisterTelemetry(reg, "host1")
	frames := framesOut(r.srvNode)
	r.start()
	defer r.shutdown()
	cl := r.dial(t)
	cl.EnableFailover(failover.DefaultPolicy())

	paths := make([]string, 4)
	for i := range paths {
		paths[i] = r.objs[i].Path
	}
	pipeline := func(cl *httpd.Client, when string) {
		t.Helper()
		resps, err := cl.GetPipelined(paths)
		if err != nil || len(resps) != 4 {
			t.Fatalf("%s pipeline: %d responses, err=%v", when, len(resps), err)
		}
		for i, rp := range resps {
			if rp.Status != 200 || !bytes.Equal(rp.Body, r.objs[i].Body) {
				t.Fatalf("%s response %d: status=%d", when, i, rp.Status)
			}
		}
	}
	pipeline(cl, "pre-crash")
	pairs, _ := reg.Snapshot().Get("host1.uring.pairs")
	if pairs != 1 {
		t.Fatalf("host1.uring.pairs = %d before the first crash, want the server's 1", pairs)
	}

	for cycle := 1; cycle <= 3; cycle++ {
		when := fmt.Sprintf("cycle %d", cycle)
		if _, err := r.srvNode.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := r.srvNode.Restart(); err != nil {
			t.Fatal(err)
		}

		// The same Server keeps pumping the same LibOS; its pre-crash
		// listener must accept the failover client's redial.
		resp, err := cl.Get(r.objs[2].Path)
		if err != nil {
			t.Fatalf("%s GET: %v", when, err)
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, r.objs[2].Body) {
			t.Fatalf("%s GET: status=%d", when, resp.Status)
		}
		if reconnects, replays := cl.FailoverStats(); reconnects < int64(cycle) || replays < int64(cycle) {
			t.Fatalf("%s: failover did not engage: reconnects=%d replays=%d", when, reconnects, replays)
		}
		pipeline(cl, when)
		fresh := r.dial(t)
		pipeline(fresh, when+", fresh dial")
		fresh.Close() //nolint:errcheck // the server closes its end on the FIN
		if got, _ := reg.Snapshot().Get("host1.uring.pairs"); got != pairs {
			t.Fatalf("%s: host1.uring.pairs = %d, was %d before the crash", when, got, pairs)
		}
	}

	// Quiesce, then assert the conservation laws across the incarnation
	// boundaries: the fabric, the NIC, and the stack each account for
	// every frame, and the pools have every frame back.
	cl.Close() //nolint:errcheck // as above
	r.waitCond(t, "the server to close its connections", func() bool { return r.srv.Conns() == 0 })
	r.shutdown()
	r.c.Quiesce(100 * time.Millisecond)
	if err := r.c.Conservation(); err != nil {
		t.Fatal(err)
	}
	if got := framesOut(r.srvNode); got != frames {
		t.Fatalf("%d frames outstanding after three incarnations, %d before", got, frames)
	}
}

// TestHTTPTelemetry checks the httpd.* counter family and the per-route
// latency table plumb through the registry.
func TestHTTPTelemetry(t *testing.T) {
	r := newHTTPDRig(t, 90, 2, 512, NodeConfig{})
	reg := telemetry.NewRegistry()
	r.srv.RegisterTelemetry(reg, "httpd")
	r.srv.EnableLatency()
	r.start()
	defer r.shutdown()
	cl := r.dial(t)

	const n = 16
	for i := 0; i < n; i++ {
		if resp, err := cl.Get(r.objs[i%2].Path); err != nil || resp.Status != 200 {
			t.Fatalf("GET %d: %v status=%d", i, err, resp.Status)
		}
	}
	snap := reg.Snapshot()
	if v, ok := snap.Get("httpd.requests"); !ok || v != n {
		t.Fatalf("httpd.requests=%d ok=%v, want %d", v, ok, n)
	}
	if v, _ := snap.Get("httpd.resp_200"); v != n {
		t.Fatalf("httpd.resp_200=%d, want %d", v, n)
	}
	if v, _ := snap.Get("httpd.bytes_out"); v <= int64(n*512) {
		t.Fatalf("httpd.bytes_out=%d, want > %d (bodies + headers)", v, n*512)
	}
	h := r.srv.RouteHistogram("obj")
	if h == nil || h.Count() != n {
		t.Fatalf("route histogram missing or short: %+v", h)
	}
	if h.Percentile(99) <= 0 {
		t.Fatalf("p99 latency = %v, want > 0", h.Percentile(99))
	}
}
