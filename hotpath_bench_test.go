package demikernel

// BenchmarkHotPath* is the zero-alloc regression suite for the pooled,
// batched data path. Unlike the E1..E13 experiment benchmarks, every
// rig here is single-goroutine and manually pumped — no Background()
// pollers — so allocs/op and B/op are deterministic and `make bench`
// can diff them against the committed BENCH_hotpath.json baseline.

import (
	"fmt"
	"testing"
	"time"

	"demikernel/internal/queue"
	"demikernel/internal/sched"
)

// hotPathPair builds a connected catnip echo pair whose data path is
// pumped only by the calling goroutine. Background polling is used for
// the connection handshake (setup only) and stopped before returning.
func hotPathPair(tb testing.TB) (cli, srv *LibOS, cqd, sqd QD, cleanup func()) {
	tb.Helper()
	cliNode, srvNode, cqd, sqd, cleanup := hotPathNodes(tb, Catnip, 0)
	return cliNode.LibOS, srvNode.LibOS, cqd, sqd, cleanup
}

// hotPathNodes is hotPathPair with the knobs: the libOS kind, spawn
// options for both nodes, and idle extra connections — established on the
// same listener beside the measured one, and never used again.
func hotPathNodes(tb testing.TB, kind Kind, idle int, opts ...SpawnOption) (cliNode, srvNode *Node, cqd, sqd QD, cleanup func()) {
	tb.Helper()
	c := NewCluster(1)
	srvNode = c.MustSpawn(kind, append([]SpawnOption{WithHost(1)}, opts...)...)
	cliNode = c.MustSpawn(kind, append([]SpawnOption{WithHost(2)}, opts...)...)

	lqd, err := srvNode.Socket()
	if err != nil {
		tb.Fatal(err)
	}
	addr := c.AddrOf(srvNode, 7)
	if err := srvNode.Bind(lqd, addr); err != nil {
		tb.Fatal(err)
	}
	if err := srvNode.Listen(lqd); err != nil {
		tb.Fatal(err)
	}

	qds := make([]QD, 0, 2*(idle+1))
	// Handshakes need both sides progressing; pump the server from a
	// helper goroutine during setup only.
	stop := srvNode.Background()
	for i := 0; i <= idle; i++ {
		cqd, err = cliNode.Socket()
		if err != nil {
			stop()
			tb.Fatal(err)
		}
		if err := cliNode.Connect(cqd, addr); err != nil {
			stop()
			tb.Fatal(err)
		}
		sqd, err = srvNode.Accept(lqd)
		if err != nil {
			stop()
			tb.Fatal(err)
		}
		qds = append(qds, cqd, sqd)
	}
	stop()
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

// BenchmarkHotPath_EchoRTT measures the full manually-pumped echo
// round trip: the end-to-end pooled data path (framing, staging,
// netstack TX assembly, burst RX, framer clone, completion dispatch).
func BenchmarkHotPath_EchoRTT(b *testing.B) {
	for _, size := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			cli, srv, cqd, sqd, cleanup := hotPathPair(b)
			defer cleanup()
			payload := NewSGA(make([]byte, size))
			echoRTT(b, cli, srv, cqd, sqd, payload) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				echoRTT(b, cli, srv, cqd, sqd, payload)
			}
		})
	}
}

// BenchmarkHotPath_PollIdle measures LibOS.Poll on a client with 1 and
// with 1 k connected-but-idle descriptors: a poll serves work lists, none
// of which an idle connection is on, so the two read the same and neither
// allocates.
func BenchmarkHotPath_PollIdle(b *testing.B) {
	for _, conns := range []int{1, 1000} {
		name := "1"
		if conns == 1000 {
			name = "1k"
		}
		b.Run(name, func(b *testing.B) {
			cliNode, srvNode, _, _, cleanup := hotPathNodes(b, Catnip, conns-1)
			defer cleanup()
			// Let the handshakes' lazily cleared timer entries expire.
			time.Sleep(25 * time.Millisecond)
			cliNode.Poll()
			srvNode.Poll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cliNode.LibOS.Poll()
			}
			b.StopTimer() // closing 1 k connections is not the poll's cost
		})
	}
}

// BenchmarkHotPath_Completer measures one token round trip through the
// sharded completer: NewToken → complete → TryWait.
func BenchmarkHotPath_Completer(b *testing.B) {
	comp := queue.NewCompleter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qt, done := comp.NewToken()
		done(queue.Completion{Kind: queue.OpPop})
		if _, ok, err := comp.TryWait(qt); !ok || err != nil {
			b.Fatal("token did not complete")
		}
	}
}

// BenchmarkHotPath_EventLoopTick measures an idle EventLoop tick over a
// connected pair: ready-list dispatch means an idle tick does no
// per-token probing.
func BenchmarkHotPath_EventLoopTick(b *testing.B) {
	cli, _, _, _, cleanup := hotPathPair(b)
	defer cleanup()
	el := sched.New(cli)
	el.Tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el.Tick()
	}
}
