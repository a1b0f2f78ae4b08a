package demikernel

// Alloc-count guards for the pooled data path. These are hard
// regression fences: the thresholds have headroom over the measured
// steady state (echo RTT measures ~6 allocs/op with the completer
// freelists, down from ~47 before pooling), so incidental churn does
// not flake them, but any change that reintroduces per-packet or
// per-poll allocation trips them immediately.

import (
	"testing"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/queue"
	"demikernel/internal/sched"
)

// TestHotPathAllocsCompleter requires the full token round trip
// (NewToken → done → TryWait) to be allocation-free once the per-shard
// freelists are warm: token states (including their DoneFunc closures)
// are recycled, so the completion publish path never boxes or allocates.
func TestHotPathAllocsCompleter(t *testing.T) {
	comp := queue.NewCompleter()
	roundTrip := func() {
		qt, done := comp.NewToken()
		done(queue.Completion{Kind: queue.OpPop})
		if _, ok, err := comp.TryWait(qt); !ok || err != nil {
			t.Fatal("token did not complete")
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip() // warm every shard's freelist
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 0 {
		t.Fatalf("completer round trip allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHotPathAllocsEchoRTT bounds allocations for one full echo round
// trip (client push → server pop → echo push → client pop) on the
// manually-pumped rig. With completer token states recycled through the
// per-shard freelists the measured steady state is ~6 allocs/op (SGA
// headers and per-segment bookkeeping); payload bytes, TX frames, RX
// staging, and completion records all come from pools.
func TestHotPathAllocsEchoRTT(t *testing.T) {
	cli, srv, cqd, sqd, cleanup := hotPathPair(t)
	defer cleanup()
	payload := NewSGA(make([]byte, 64))
	echoRTT(t, cli, srv, cqd, sqd, payload) // warm pools and scratch

	// Zero-alloc decode plus buffered TX brought the measured steady
	// state to 0; keep a little slack for incidental runtime churn.
	const limit = 2.0
	allocs := testing.AllocsPerRun(100, func() {
		echoRTT(t, cli, srv, cqd, sqd, payload)
	})
	if allocs > limit {
		t.Fatalf("echo RTT allocates %.1f objects/op, want <= %.0f", allocs, limit)
	}
}

// TestHotPathAllocsEchoServer fences the echo application's per-op serve
// loop, stepped inline as the repo benchmark's echo64 workload steps it:
// an idle echo.Server.Step, and a 64 B echo served through it end to
// end, allocate nothing — the server walks its own connection table in
// place instead of snapshotting it per step.
func TestHotPathAllocsEchoServer(t *testing.T) {
	c := NewCluster(1)
	srvNode := c.MustSpawn(Catnip, WithHost(1))
	cliNode := c.MustSpawn(Catnip, WithHost(2))
	cli, srv := cliNode.LibOS, srvNode.LibOS
	app := echo.NewServer(srv)
	if err := app.Listen(7); err != nil {
		t.Fatal(err)
	}
	cqd, err := cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	stop := srvNode.Background() // the handshake only; the data path is pumped below
	err = cli.Connect(cqd, c.AddrOf(srvNode, 7))
	stop()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close(cqd)

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
			app.Step()
			if i > 1_000_000 {
				t.Fatal("echo server made no progress")
			}
		}
		pumpWait(t, cli, srv, pushQT)
	}
	for i := 0; i < 64; i++ {
		roundTrip() // accept the connection, warm pools and scratch
	}
	if allocs := testing.AllocsPerRun(1000, func() { app.Step() }); allocs != 0 {
		t.Errorf("idle echo.Server.Step allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("64 B echo through echo.Server allocates %.1f objects/op, want 0", allocs)
	}
	if app.Echoed() < 64 {
		t.Fatalf("server echoed %d requests", app.Echoed())
	}
}

// TestHotPathAllocsStream is the bulk-transfer fence: a steady-state
// 16 KiB push → pop over catnip↔catnip — twelve MSS segments out of the
// send ring, one burst into the receive ring, the stream bytes appended
// straight onto the framer's buffer, one pooled clone out — must be
// exactly allocation-free. Every per-byte structure on that path (both
// byte rings, the wire frames, the reassembly buffer) is reused storage.
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
	if allocs := testing.AllocsPerRun(100, transfer); allocs != 0 {
		t.Fatalf("16 KiB stream transfer allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHotPathAllocsRingEchoRTT is the fence for the acceptance
// criterion of the syscall-free ring path: a full batched echo round
// trip — SQE submit, Poll-side drain, slab-armed completion, CQE
// harvest on both rings — must be exactly allocation-free once warm.
func TestHotPathAllocsRingEchoRTT(t *testing.T) {
	r := newRingEchoRig(t)
	defer r.cleanup()
	payload := NewSGA(make([]byte, 64))
	r.roundTrips(t, payload, 8) // warm pools and scratch

	if allocs := testing.AllocsPerRun(100, func() {
		r.roundTrips(t, payload, 8)
	}); allocs != 0 {
		t.Fatalf("ring echo RTT allocates %.1f objects/batch, want 0", allocs)
	}
}

// TestHotPathAllocsIdlePoll requires a steady-state LibOS.Poll over
// connected-but-idle descriptors to be allocation-free, on the bypass
// libOS and on the kernel one: no per-poll snapshot of any table, and
// every per-poll scratch buffer reused.
func TestHotPathAllocsIdlePoll(t *testing.T) {
	for _, kind := range []Kind{Catnip, Catnap} {
		cliNode, srvNode, _, _, cleanup := hotPathNodes(t, kind, 0)
		cliNode.Poll()
		srvNode.Poll()
		for name, l := range map[string]*LibOS{"client": cliNode.LibOS, "server": srvNode.LibOS} {
			if allocs := testing.AllocsPerRun(1000, func() { l.Poll() }); allocs != 0 {
				t.Errorf("%s %s idle Poll allocates %.1f objects/op, want 0", kind, name, allocs)
			}
		}
		cleanup()
	}
}

// TestHotPathIdlePollFindsNoWork is the fence on what an idle poll
// touches: beside 1024 established, idle connections, LibOS.Poll finds
// the timer heap, the stack's ready queue and the transport's pump list
// all empty — the connections are on no list, so no poll visits them —
// and allocates nothing. A count, not a timing.
func TestHotPathIdlePollFindsNoWork(t *testing.T) {
	cliNode, srvNode, _, _, cleanup := hotPathNodes(t, Catnip, 1024, WithLifecycle())
	defer cleanup()
	for _, n := range []*Node{cliNode, srvNode} {
		// Past the deadline of every handshake's timer: the entries they
		// left in the heap, cleared but not yet dropped, go at the next poll.
		n.Clock.SetSkew(0, time.Minute)
	}
	for i := 0; i < 2; i++ {
		cliNode.Poll()
		srvNode.Poll()
	}
	for name, n := range map[string]*Node{"client": cliNode, "server": srvNode} {
		if flows := len(n.Catnip.Stack().EstablishedFlows()); flows != 1025 {
			t.Fatalf("%s has %d connections, want 1025", name, flows)
		}
		allocs := testing.AllocsPerRun(1000, func() { n.LibOS.Poll() })
		timers, ready, pumps := n.Catnip.WorkQueued()
		if allocs != 0 || timers+ready+pumps != 0 {
			t.Errorf("%s idle Poll beside 1024 idle connections: %.1f allocs/op, %d timer entries, %d ready connections, %d endpoints to pump; want all 0",
				name, allocs, timers, ready, pumps)
		}
	}
}

// TestHotPathAllocsEventLoopTick requires an idle EventLoop tick to be
// allocation-free: ready-list dispatch does no per-token probing and
// the acceptor snapshot is cached.
func TestHotPathAllocsEventLoopTick(t *testing.T) {
	cli, _, _, _, cleanup := hotPathPair(t)
	defer cleanup()
	el := sched.New(cli)
	el.Tick()

	if allocs := testing.AllocsPerRun(1000, func() { el.Tick() }); allocs != 0 {
		t.Errorf("idle EventLoop.Tick allocates %.1f objects/op, want 0", allocs)
	}
}
