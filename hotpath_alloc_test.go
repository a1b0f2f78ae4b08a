package demikernel

// Alloc-count guards for the pooled data path, on rigs pumped only by
// the calling goroutine — no Background pollers past the handshake — so
// that allocations per operation are exact. These are hard regression
// fences: any change that reintroduces per-packet or per-poll allocation
// trips them immediately. Where an application is involved it is the
// product's own (echo.Server, httpd.Server), stepped inline the way the
// repo benchmark steps it; wall-clock cost is that benchmark's business
// (go run ./benchmark), not this file's.

import (
	"testing"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/libos/catnap"
	"demikernel/internal/queue"
	"demikernel/internal/uring"
	"demikernel/internal/workload"
)

// allocsPerRun is testing.AllocsPerRun for the fences below. Under the race
// detector it still runs f — the traffic is worth racing — but reports no
// allocations, because there a count says nothing (see raceEnabled).
func allocsPerRun(runs int, f func()) float64 {
	allocs := testing.AllocsPerRun(runs, f)
	if raceEnabled {
		return 0
	}
	return allocs
}

// hotPathPair builds a connected catnip pair whose data path is pumped
// only by the calling goroutine.
func hotPathPair(tb testing.TB) (cli, srv *LibOS, cqd, sqd QD, cleanup func()) {
	tb.Helper()
	cliNode, srvNode, cqd, sqd, cleanup := hotPathNodes(tb, Catnip, 0)
	return cliNode.LibOS, srvNode.LibOS, cqd, sqd, cleanup
}

// hotPathNodes is hotPathPair with the knobs: the libOS kind and idle
// extra connections — established on the
// same listener beside the measured one, and never used again.
// Background polling is used for the handshakes only and stopped before
// returning.
func hotPathNodes(tb testing.TB, kind Kind, idle int) (cliNode, srvNode *Node, cqd, sqd QD, cleanup func()) {
	tb.Helper()
	c := NewCluster(1)
	srvNode = c.MustSpawn(kind, WithHost(1))
	cliNode = c.MustSpawn(kind, WithHost(2))

	lqd, addr := listenAll(tb, srvNode, 7)[0], c.AddrOf(srvNode, 7)
	qds := make([]QD, 0, 2*(idle+1))
	var err error
	stop := srvNode.Background()
	defer stop()
	for i := 0; i <= idle; i++ {
		if cqd, err = cliNode.Socket(); err != nil {
			tb.Fatal(err)
		}
		if err := cliNode.Connect(cqd, addr); err != nil {
			tb.Fatal(err)
		}
		if sqd, err = srvNode.Accept(lqd); err != nil {
			tb.Fatal(err)
		}
		qds = append(qds, cqd, sqd)
	}
	return cliNode, srvNode, cqd, sqd, func() {
		for i := 0; i < len(qds); i += 2 {
			cliNode.Close(qds[i])
			srvNode.Close(qds[i+1])
		}
		srvNode.Close(lqd)
	}
}

// pumpWait drives both libOSes until qt completes on l.
func pumpWait(tb testing.TB, l, peer *LibOS, qt QToken) Completion {
	tb.Helper()
	for i := 0; ; i++ {
		c, ok, err := l.TryWait(qt)
		if err != nil {
			tb.Fatal(err)
		}
		if ok {
			return c
		}
		l.Poll()
		peer.Poll()
		if i > 1_000_000 {
			tb.Fatal("hot-path pump made no progress")
		}
	}
}

// echoRTT performs one full request/response cycle on the manual rig:
// client push → server pop → server push (echo) → client pop, freeing
// both popped SGAs so pooled payload storage recycles.
func echoRTT(tb testing.TB, cli, srv *LibOS, cqd, sqd QD, payload SGA) {
	tb.Helper()
	sqt, err := srv.Pop(sqd)
	if err != nil {
		tb.Fatal(err)
	}
	cqt, err := cli.Push(cqd, payload)
	if err != nil {
		tb.Fatal(err)
	}
	req := pumpWait(tb, srv, cli, sqt)
	if req.Err != nil {
		tb.Fatal(req.Err)
	}
	pumpWait(tb, cli, srv, cqt)

	cqt2, err := cli.Pop(cqd)
	if err != nil {
		tb.Fatal(err)
	}
	sqt2, err := srv.Push(sqd, req.SGA)
	if err != nil {
		tb.Fatal(err)
	}
	resp := pumpWait(tb, cli, srv, cqt2)
	if resp.Err != nil {
		tb.Fatal(resp.Err)
	}
	pumpWait(tb, srv, cli, sqt2)
	req.SGA.Free()
	resp.SGA.Free()
}

// steppedApp connects a client descriptor to a product application that
// the test steps inline: listen binds the application to port 7 on the
// server's libOS and returns its Step. The server is polled in the
// background for the handshake only.
func steppedApp(tb testing.TB, listen func(srv *LibOS) (step func() int, err error)) (cli, srv *LibOS, cqd QD, step func() int) {
	tb.Helper()
	c := NewCluster(1)
	srvNode := c.MustSpawn(Catnip, WithHost(1))
	cliNode := c.MustSpawn(Catnip, WithHost(2))
	step, err := listen(srvNode.LibOS)
	if err != nil {
		tb.Fatal(err)
	}
	if cqd, err = cliNode.Socket(); err != nil {
		tb.Fatal(err)
	}
	stop := srvNode.Background()
	err = cliNode.Connect(cqd, c.AddrOf(srvNode, 7))
	stop()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cliNode.Close(cqd) })
	return cliNode.LibOS, srvNode.LibOS, cqd, step
}

// ringClient is the hand-pumped client of an application served over its
// ring (steppedApp): requests and the pops of their responses go to the
// client's own ring a batch at a time, and both libOSes are polled and the
// application stepped inline until every completion is harvested. The
// product clients' ring calls (echo.Client.RTTBatch, httpd.Client.GetBatch)
// wait by polling their own libOS, so they need a background poller
// behind the server, and allocations beside one cannot be counted.
type ringClient struct {
	cli, srv *LibOS
	cqd      QD
	step     func() int
	ring     *uring.Pair
	sq       []uring.SQE
	cq       []uring.CQE
}

// ringCap is where the rings on both sides of a ringClient start, as in
// the repo benchmark's rigs: past anything a batch here needs.
const ringCap = 256

func newRingClient(tb testing.TB, listen func(srv *LibOS) (step func() int, err error)) *ringClient {
	tb.Helper()
	r := &ringClient{sq: make([]uring.SQE, 0, ringCap), cq: make([]uring.CQE, ringCap)}
	r.cli, r.srv, r.cqd, r.step = steppedApp(tb, listen)
	r.ring = r.cli.AttachRing(ringCap)
	return r
}

// roundTrips posts batch copies of req, each with the pop of its one
// response element, and returns when all 2*batch completions are in.
func (r *ringClient) roundTrips(tb testing.TB, req SGA, batch int) {
	tb.Helper()
	sq := r.sq[:0]
	for i := 0; i < batch; i++ {
		sq = append(sq,
			uring.SQE{Op: queue.OpPush, QD: int32(r.cqd), Tag: uint64(i)<<1 | 1, SGA: req},
			uring.SQE{Op: queue.OpPop, QD: int32(r.cqd), Tag: uint64(i) << 1})
	}
	if _, err := r.cli.SubmitBatch(r.ring, sq); err != nil { // TX the requests
		tb.Fatal(err)
	}
	for got, it := 0, 0; got < 2*batch; it++ {
		r.srv.Poll() // RX them; pop CQEs land on the server's ring
		r.step()     // TX the responses
		r.cli.Poll() // RX them; pop CQEs land on the client's ring
		n := r.cli.HarvestCQ(r.ring, r.cq)
		for i := 0; i < n; i++ {
			c := &r.cq[i]
			if c.Err != nil {
				tb.Fatal(c.Err)
			}
			if c.Kind == queue.OpPop {
				c.SGA.Free()
			}
			*c = uring.CQE{}
		}
		got += n
		if it > 1_000_000 {
			tb.Fatal("ring batch made no progress")
		}
	}
}

// TestHotPathAllocsCompleter requires the full qtoken round trip
// (ArmToken → done → TryWait) to be allocation-free: a token is a slot of
// the ring, whose DoneFunc closure was bound when the slab grew, so the
// completion publish path never boxes or allocates.
func TestHotPathAllocsCompleter(t *testing.T) {
	p := uring.NewPair(1)
	roundTrip := func() {
		qt, done := p.ArmToken(0)
		done(queue.Completion{Kind: queue.OpPop})
		if _, ok, err := p.TryWait(qt); !ok || err != nil {
			t.Fatal("token did not complete")
		}
	}
	if allocs := allocsPerRun(1000, roundTrip); allocs != 0 {
		t.Fatalf("token round trip allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHotPathAllocsEchoRTT bounds allocations for one full echo round
// trip (client push → server pop → echo push → client pop) through the
// libOS calls alone, no application between them. Payload bytes, TX
// frames, RX staging, token slots and completion records all come from
// pools.
func TestHotPathAllocsEchoRTT(t *testing.T) {
	cli, srv, cqd, sqd, cleanup := hotPathPair(t)
	defer cleanup()
	payload := NewSGA(make([]byte, 64))
	echoRTT(t, cli, srv, cqd, sqd, payload) // warm pools and scratch

	// Zero-alloc decode plus buffered TX brought the measured steady
	// state to 0; keep a little slack for incidental runtime churn.
	const limit = 2.0
	allocs := allocsPerRun(100, func() {
		echoRTT(t, cli, srv, cqd, sqd, payload)
	})
	if allocs > limit {
		t.Fatalf("echo RTT allocates %.1f objects/op, want <= %.0f", allocs, limit)
	}
}

// TestHotPathAllocsEchoServer fences the echo application's serve loop
// against a per-op client, stepped inline as the repo benchmark's echo64
// workload steps it: an idle echo.Server.Step, and a 64 B echo served
// through it end to end, allocate nothing.
func TestHotPathAllocsEchoServer(t *testing.T) {
	var app *echo.Server
	cli, srv, cqd, step := steppedApp(t, func(srv *LibOS) (func() int, error) {
		app = echo.NewServer(srv)
		return app.Step, app.Listen(7)
	})
	payload := NewSGA(make([]byte, 64))
	roundTrip := func() {
		popQT, err := cli.Pop(cqd)
		if err != nil {
			t.Fatal(err)
		}
		pushQT, err := cli.Push(cqd, payload)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if back, ok, err := cli.TryWait(popQT); err != nil {
				t.Fatal(err)
			} else if ok {
				if back.Err != nil || back.SGA.Len() != payload.Len() {
					t.Fatalf("echoed %d bytes, err %v", back.SGA.Len(), back.Err)
				}
				back.SGA.Free()
				break
			}
			cli.Poll()
			srv.Poll()
			step()
			if i > 1_000_000 {
				t.Fatal("echo server made no progress")
			}
		}
		pumpWait(t, cli, srv, pushQT)
	}
	for i := 0; i < 64; i++ {
		roundTrip() // accept the connection, warm pools and scratch
	}
	if allocs := allocsPerRun(1000, func() { step() }); allocs != 0 {
		t.Errorf("idle echo.Server.Step allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := allocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("64 B echo through echo.Server allocates %.1f objects/op, want 0", allocs)
	}
	if app.Echoed() < 64 {
		t.Fatalf("server echoed %d requests", app.Echoed())
	}
}

// TestHotPathAllocsStream is the bulk-transfer fence: a steady-state
// 16 KiB push → pop over catnip↔catnip — the segments copied into the send
// ring where the application left them, twelve MSS segments out of it, one
// burst into the receive ring, the framer copying from there into one pooled
// buffer — must be exactly allocation-free. Every per-byte structure on
// that path (both byte rings, the wire frames, the frame buffer) is reused
// storage.
func TestHotPathAllocsStream(t *testing.T) {
	cli, srv, cqd, sqd, cleanup := hotPathPair(t)
	defer cleanup()
	payload := NewSGA(make([]byte, 16<<10))
	transfer := func() {
		sqt, err := srv.Pop(sqd)
		if err != nil {
			t.Fatal(err)
		}
		cqt, err := cli.Push(cqd, payload)
		if err != nil {
			t.Fatal(err)
		}
		msg := pumpWait(t, srv, cli, sqt)
		if msg.Err != nil || msg.SGA.Len() != payload.Len() {
			t.Fatalf("popped %d bytes, err %v", msg.SGA.Len(), msg.Err)
		}
		pumpWait(t, cli, srv, cqt)
		msg.SGA.Free()
	}
	for i := 0; i < 64; i++ {
		transfer() // open cwnd, size the rings, warm the pools
	}
	if allocs := allocsPerRun(100, transfer); allocs != 0 {
		t.Fatalf("16 KiB stream transfer allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHotPathAllocsRingEchoRTT is the fence for the batched path: a
// batch of echo round trips through echo.Server — batch submit,
// slab-armed completion, CQE harvest on both rings — must be exactly
// allocation-free once warm.
func TestHotPathAllocsRingEchoRTT(t *testing.T) {
	r := newRingClient(t, func(srv *LibOS) (func() int, error) {
		app := echo.NewServer(srv)
		err := app.Listen(7)
		app.EnableRing(ringCap)
		return app.Step, err
	})
	payload := NewSGA(make([]byte, 64))
	// 64 pushes staged and then flushed by one pump complete together: more
	// than a pump records in its own frame, so the list comes from the
	// transport's pool.
	for _, batch := range []int{8, 64} {
		for i := 0; i < 50; i++ {
			r.roundTrips(t, payload, batch) // warm pools and scratch
		}
		if allocs := allocsPerRun(100, func() { r.roundTrips(t, payload, batch) }); allocs != 0 {
			t.Fatalf("ring echo RTT allocates %.1f objects per batch of %d, want 0", allocs, batch)
		}
	}
}

// TestHotPathAllocsHTTPRingServe fences the steady-state serve loop of
// httpd.Server at zero heap allocations: after warmup, a full batch of
// GETs — request parse, route lookup, pooled response build, batch
// submit and harvest on both sides — must not malloc.
func TestHotPathAllocsHTTPRingServe(t *testing.T) {
	r := newRingClient(t, func(srv *LibOS) (func() int, error) {
		tree := httpd.NewTree()
		for _, o := range workload.HTTPObjects(4, workload.FixedSize(64), 7) {
			tree.Add(o.Path, o.Body)
		}
		app := httpd.NewServer(srv, tree)
		err := app.Listen(7)
		app.EnableRing(ringCap)
		return app.Step, err
	})
	get := NewSGA([]byte("GET " + workload.HTTPObjectPath(0) + " HTTP/1.1\r\n\r\n"))
	for i := 0; i < 50; i++ {
		r.roundTrips(t, get, 8)
	}
	if allocs := allocsPerRun(100, func() { r.roundTrips(t, get, 8) }); allocs != 0 {
		t.Fatalf("ring HTTP serve loop allocates: %.1f allocs/run (want 0)", allocs)
	}
}

// TestHotPathAllocsIdlePoll requires a steady-state LibOS.Poll over
// connected-but-idle descriptors to be allocation-free, on the bypass
// libOS and on the kernel one: no per-poll snapshot of any table, and
// every per-poll scratch buffer reused. The ring row attaches a ring to
// each libOS with a pop in flight on it: a poll does not visit rings, so
// it finds as little to do, and allocates as little. The udp row binds
// 1 000 datagram descriptors on each catnip node, one of them holding a
// datagram nobody popped: a poll pumps a datagram endpoint only when the
// stack reports its socket readable, so at rest there is nothing to pump.
func TestHotPathAllocsIdlePoll(t *testing.T) {
	for _, kind := range []Kind{Catnip, Catnap} {
		for _, row := range []string{"plain", "ring", "udp"} {
			if row == "udp" && kind != Catnip {
				continue // the kernel path has no datagram surface
			}
			cliNode, srvNode, cqd, sqd, cleanup := hotPathNodes(t, kind, 0)
			switch row {
			case "ring":
				for l, qd := range map[*LibOS]QD{cliNode.LibOS: cqd, srvNode.LibOS: sqd} {
					if _, err := l.SubmitBatch(l.AttachRing(8), []uring.SQE{{Op: queue.OpPop, QD: int32(qd)}}); err != nil {
						t.Fatal(err)
					}
				}
			case "udp":
				cleanup = bindIdleUDP(t, cliNode, srvNode, 1000, cleanup)
			}
			cliNode.Poll()
			srvNode.Poll()
			for name, n := range map[string]*Node{"client": cliNode, "server": srvNode} {
				if work := n.LibOS.Poll(); work != 0 {
					t.Errorf("%s %s (%s) idle Poll did %d units of work", kind, name, row, work)
				}
				if allocs := allocsPerRun(1000, func() { n.LibOS.Poll() }); allocs != 0 {
					t.Errorf("%s %s (%s) idle Poll allocates %.1f objects/op, want 0", kind, name, row, allocs)
				}
				if row == "udp" {
					if _, ready, _, pumps := n.Catnip.WorkQueued(); ready+pumps != 0 {
						t.Errorf("%s (%s) at rest: %d ready sockets, %d endpoints to pump; want 0, 0", name, row, ready, pumps)
					}
				}
			}
			cleanup()
		}
	}
}

// bindIdleUDP binds n datagram descriptors on each of cli and srv, and has
// the client send one datagram to the server's first, which nobody pops.
// It returns cleanup extended to close them.
func bindIdleUDP(tb testing.TB, cli, srv *Node, n int, cleanup func()) func() {
	tb.Helper()
	qds := map[*Node][]QD{}
	for _, node := range []*Node{cli, srv} {
		for i := 0; i < n; i++ {
			qd, err := node.SocketUDP()
			if err != nil {
				tb.Fatal(err)
			}
			if err := node.Bind(qd, Addr{Port: uint16(20000 + i)}); err != nil {
				tb.Fatal(err)
			}
			qds[node] = append(qds[node], qd)
		}
	}
	if err := cli.Connect(qds[cli][0], Addr{IP: srv.IP, MAC: srv.MAC, Port: 20000}); err != nil {
		tb.Fatal(err)
	}
	if _, err := cli.BlockingPush(qds[cli][0], NewSGA(make([]byte, 64))); err != nil {
		tb.Fatal(err)
	}
	rcvd := srv.Catnip.StackStats().UDPRcvd
	for i := 0; srv.Catnip.StackStats().UDPRcvd == rcvd; i++ {
		if i > 10_000 {
			tb.Fatal("the datagram never arrived")
		}
		cli.Poll()
		srv.Poll()
	}
	return func() {
		for node, list := range qds {
			for _, qd := range list {
				node.Close(qd)
			}
		}
		cleanup()
	}
}

// TestHotPathCatnapClosedEndpointsLeavePoll is the kernel libOS's half of
// the same fence: a poll pumps the sockets on its pump list, so a closed
// one has to leave it. 10 k connect → echo → close cycles (and as many
// file queues opened and closed, which no poll visits) leave the server's
// and the client's lists at their starting lengths, and an idle poll
// afterwards still allocates nothing.
func TestHotPathCatnapClosedEndpointsLeavePoll(t *testing.T) {
	c := NewCluster(1)
	srv := c.MustSpawn(Catnap, WithHost(1))
	cli := c.MustSpawn(Catnap, WithHost(2))
	srv.Kernel.AttachDisk(c.NewDisk(0))
	lqd, addr := listenAll(t, srv, 7)[0], c.AddrOf(srv, 7)
	pumped := func(n *Node) int { return n.Transport().(*catnap.Transport).Pumped() }
	srvBase, cliBase := pumped(srv), pumped(cli)

	stopSrv, stopCli := srv.Background(), cli.Background()
	payload := NewSGA(make([]byte, 64))
	for i := 0; i < 10_000; i++ {
		cqd, err := cli.Socket()
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Connect(cqd, addr); err != nil {
			t.Fatalf("cycle %d: connect: %v", i, err)
		}
		sqd, err := srv.Accept(lqd)
		if err != nil {
			t.Fatalf("cycle %d: accept: %v", i, err)
		}
		if _, err := cli.BlockingPush(cqd, payload); err != nil {
			t.Fatal(err)
		}
		req, err := srv.BlockingPop(sqd)
		if err != nil || req.Err != nil {
			t.Fatalf("cycle %d: server pop: %v %v", i, err, req.Err)
		}
		if _, err := srv.BlockingPush(sqd, req.SGA); err != nil {
			t.Fatal(err)
		}
		if back, err := cli.BlockingPop(cqd); err != nil || back.Err != nil || back.SGA.Len() != 64 {
			t.Fatalf("cycle %d: echoed %d bytes: %v %v", i, back.SGA.Len(), err, back.Err)
		}
		fqd, err := srv.Open("/log")
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{cli.Close(cqd), srv.Close(sqd), srv.Close(fqd)} {
			if err != nil {
				t.Fatalf("cycle %d: close: %v", i, err)
			}
		}
	}
	stopCli()
	stopSrv()

	if got := pumped(srv); got != srvBase {
		t.Errorf("server pumps %d endpoints after 10 k cycles, %d before", got, srvBase)
	}
	if got := pumped(cli); got != cliBase {
		t.Errorf("client pumps %d endpoints after 10 k cycles, %d before", got, cliBase)
	}
	for name, n := range map[string]*Node{"client": cli, "server": srv} {
		n.Poll()
		if allocs := allocsPerRun(1000, func() { n.LibOS.Poll() }); allocs != 0 {
			t.Errorf("catnap %s idle Poll after 10 k cycles allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestHotPathIdlePollFindsNoWork is the fence on what an idle poll
// touches: beside 1024 established, idle connections, LibOS.Poll finds
// the timer heap, the stack's ready queue and held acknowledgements and
// the transport's pump list all empty — the connections are on no list, so
// no poll visits them — and allocates nothing. A count, not a timing.
func TestHotPathIdlePollFindsNoWork(t *testing.T) {
	cliNode, srvNode, _, _, cleanup := hotPathNodes(t, Catnip, 1024)
	defer cleanup()
	for _, n := range []*Node{cliNode, srvNode} {
		// Past the deadline of every handshake's timer: the entries they
		// left in the heap, cleared but not yet dropped, go at the next poll.
		n.Clock().Step(time.Minute)
	}
	for i := 0; i < 2; i++ {
		cliNode.Poll()
		srvNode.Poll()
	}
	for name, n := range map[string]*Node{"client": cliNode, "server": srvNode} {
		if flows := len(n.Catnip.Stack().EstablishedFlows()); flows != 1025 {
			t.Fatalf("%s has %d connections, want 1025", name, flows)
		}
		allocs := allocsPerRun(1000, func() { n.LibOS.Poll() })
		timers, ready, acks, pumps := n.Catnip.WorkQueued()
		if allocs != 0 || timers+ready+acks+pumps != 0 {
			t.Errorf("%s idle Poll beside 1024 idle connections: %.1f allocs/op, %d timer entries, %d ready connections, %d held ACKs, %d endpoints to pump; want all 0",
				name, allocs, timers, ready, acks, pumps)
		}
	}
}
