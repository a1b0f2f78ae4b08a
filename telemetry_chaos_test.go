package demikernel

// Span attribution under chaos: the per-qtoken telemetry must keep its
// books straight while the fault-injection engine is actively attacking
// the fabric. Every operation the application issues has to land in the
// span table under the right queue descriptor and op kind — successes in
// the latency histogram, typed failures in the error column — and the
// process tracer must capture the stack's failure instants on the same
// timeline. Observability that only works on the happy path is exactly
// the "ships without the OS safety net" failure mode the paper warns
// about.

import (
	"testing"
	"time"

	"demikernel/internal/chaos"
	"demikernel/internal/fabric"
	"demikernel/internal/telemetry"
)

func TestSpanAttributionUnderChaos(t *testing.T) {
	c := NewCluster(777)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnip, WithConfig(NodeConfig{Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4}))
	// Both sides give up on a wait the link flap lost after 200 ms, not
	// the default 5 s.
	cli.WaitTimeout = 200 * time.Millisecond
	srv.WaitTimeout = cli.WaitTimeout

	cqd, lqd, sqd, cleanup := chaosConnect(t, c, cli, srv, 7)
	defer cleanup()

	// Turn the lights on AFTER connect so the span table holds exactly
	// the echo traffic, and reset the process tracer so this test owns
	// its contents.
	cli.Spans().SetName("chaos-client")
	cli.Spans().Enable()
	defer cli.Spans().Disable()
	srv.Spans().Enable()
	defer srv.Spans().Disable()
	telemetry.Trace.Reset()
	telemetry.Trace.Enable()
	defer telemetry.Trace.Disable()

	// Loss + corruption for the first stretch, then a hard flap of the
	// client's link, then quiet. The schedule guarantees both retransmits
	// (loss window) and typed give-ups (flap window).
	eng := chaos.New(777, cli.Clock()).
		ImpairAll(0, c.Switch, fabric.Impairments{LossRate: 0.05, CorruptRate: 0.05}).
		ImpairAll(40*time.Millisecond, c.Switch, fabric.Impairments{}).
		LinkFlap(60*time.Millisecond, 30*time.Millisecond, c.Switch, cli.FabricPort())
	eng.Start()

	var okOps, failedOps int
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !eng.Done() || okOps < 50; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no steady state: ok=%d failed=%d", okOps, failedOps)
		}
		eng.Step()
		payload := []byte("span-attribution-probe")
		comp, err := cli.BlockingPush(cqd, NewSGA(payload))
		if err == nil && comp.Err == nil {
			// Round trip: server pops and echoes, client pops.
			scomp, serr := srv.BlockingPop(sqd)
			if serr == nil && scomp.Err == nil {
				if _, perr := srv.BlockingPush(sqd, scomp.SGA); perr != nil {
					t.Fatalf("server echo push: %v", perr)
				}
				if back, berr := cli.BlockingPop(cqd); berr == nil && back.Err == nil {
					okOps++
					continue
				}
			}
		}
		failedOps++
		// A catnip connection is terminal after give-up: redial and have
		// the server accept the replacement so the echo loop can resume.
		nqd, err := cli.Socket()
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Connect(nqd, c.AddrOf(srv, 7)); err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		cqd = nqd
		if nsqd, err := srv.Accept(lqd); err == nil {
			sqd = nsqd
		}
	}

	// Post-heal, open a SECOND connection and run traffic over it, so the
	// span table provably separates queues: its ops must appear under a
	// fresh descriptor, not smear into the first connection's series.
	qd2, err := cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(qd2, c.AddrOf(srv, 7)); err != nil {
		t.Fatalf("post-heal connect: %v", err)
	}
	sqd2, err := srv.Accept(lqd)
	if err != nil {
		t.Fatalf("post-heal accept: %v", err)
	}
	for i := 0; i < 10; i++ {
		echoOnce(t, cli, qd2, srv, sqd2, "second-queue-probe")
	}

	// --- Attribution checks ---------------------------------------------

	sums := cli.Spans().Summaries()
	if len(sums) == 0 {
		t.Fatal("client span table is empty after the run")
	}
	perKind := map[int]int64{}
	perKindErrs := map[int]int64{}
	seenQDs := map[int32]bool{}
	for _, s := range sums {
		if s.Kind != telemetry.SpanPush && s.Kind != telemetry.SpanPop {
			t.Fatalf("summary with unknown kind %d: %+v", s.Kind, s)
		}
		if s.Ops <= 0 {
			t.Fatalf("summary with zero ops survived aggregation: %+v", s)
		}
		if s.Errs > s.Ops {
			t.Fatalf("errs %d > ops %d for qd %d %s", s.Errs, s.Ops, s.QD, telemetry.KindString(s.Kind))
		}
		// Successful ops must have populated the virtual-latency digest.
		if succ := s.Ops - s.Errs; succ > 0 {
			if int64(s.Lat.Count) != succ {
				t.Fatalf("qd %d %s: histogram holds %d samples, want %d successes",
					s.QD, telemetry.KindString(s.Kind), s.Lat.Count, succ)
			}
			if s.Lat.P99 < s.Lat.P50 || s.Lat.Max < s.Lat.P99 {
				t.Fatalf("qd %d %s: degenerate latency digest %+v", s.QD, telemetry.KindString(s.Kind), s.Lat)
			}
			// Pops carry the op's virtual delivery cost; a zero pop
			// latency would mean the cost model never charged the wire.
			// (Pushes legitimately read 0: plain Push carries no
			// app-compute cost — see core.PushCost.)
			if s.Kind == telemetry.SpanPop && s.Lat.P50 <= 0 {
				t.Fatalf("qd %d pop: zero virtual latency %+v", s.QD, s.Lat)
			}
		} else if s.Lat.Count != 0 {
			t.Fatalf("qd %d %s: all ops failed but histogram has %d samples",
				s.QD, telemetry.KindString(s.Kind), s.Lat.Count)
		}
		perKind[s.Kind] += s.Ops
		perKindErrs[s.Kind] += s.Errs
		seenQDs[s.QD] = true
	}
	if perKind[telemetry.SpanPush] == 0 || perKind[telemetry.SpanPop] == 0 {
		t.Fatalf("span table missing an op kind: %+v", perKind)
	}
	// Conservation: every consumed client op — success or typed failure —
	// is in the table exactly once.
	totalOps := perKind[telemetry.SpanPush] + perKind[telemetry.SpanPop]
	if totalOps < int64(okOps)*2 {
		t.Fatalf("span table holds %d client ops, but the app consumed at least %d", totalOps, okOps*2)
	}
	// The chaos schedule must be visible in the error column: the flap
	// forces at least one typed failure, and it must be attributed to a
	// specific queue, not dropped on the floor.
	if failedOps > 0 && perKindErrs[telemetry.SpanPush]+perKindErrs[telemetry.SpanPop] == 0 {
		t.Fatalf("%d app-visible failures but the span table recorded zero errors", failedOps)
	}
	// The two connections must appear under their own descriptors (no
	// cross-queue smearing), and the second queue's series must be clean:
	// it only ever carried post-heal traffic.
	if !seenQDs[int32(qd2)] {
		t.Fatalf("second connection (qd %d) missing from span table: %v", qd2, seenQDs)
	}
	if len(seenQDs) < 2 {
		t.Fatalf("spans only mention qds %v, want the chaos and post-heal queues separately", seenQDs)
	}
	for _, s := range sums {
		if s.QD == int32(qd2) && s.Errs != 0 {
			t.Fatalf("post-heal queue %d accumulated %d errors: attribution smeared across queues",
				qd2, s.Errs)
		}
	}

	// The server side kept its own books.
	if len(srv.Spans().Summaries()) == 0 {
		t.Fatal("server span table is empty after the run")
	}

	// --- Tracer checks ---------------------------------------------------

	// The netstack emits instants at retransmit/give-up; the span table
	// emits op timeline events. Both must be on the ring.
	var qtokenSpans, stackInstants int
	for _, e := range telemetry.Trace.Events() {
		switch {
		case e.Kind == telemetry.KindSpan && e.Cat == "chaos-client":
			qtokenSpans++
			if e.Dur < 0 {
				t.Fatalf("negative span duration in trace: %+v", e)
			}
		case e.Kind == telemetry.KindInstant && e.Cat == "netstack":
			stackInstants++
		}
	}
	if qtokenSpans == 0 {
		t.Fatal("no qtoken spans reached the process tracer")
	}
	if stackInstants == 0 {
		t.Fatal("loss + a link flap produced no netstack instants (retransmit/give-up) in the trace")
	}

	// The fault schedule actually bit.
	if st := c.Switch.Stats(); st.InjectedLoss == 0 && st.InjectedCorrupt == 0 {
		t.Fatal("impairment window injected nothing")
	}
	if c.Switch.PortStats(cli.FabricPort()).LinkDownDrops == 0 {
		t.Fatal("link flap dropped nothing")
	}
}
