package demikernel

// Ring-path lifecycle tests: batched submission and the completion ring
// under node crash and restart. The paper's §3 argument — no OS means no
// death notification — applies to the ring as to qtokens: nothing but
// the libOS can resolve operations a dead stack will never complete.
// These tests require that every ring operation pending at crash time
// resolves to exactly one typed ErrLocalReset CQE, that the ring serves
// the restarted node, and that frames are conserved across the
// incarnation boundary.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"demikernel/internal/queue"
	"demikernel/internal/uring"
)

// ringConnect builds a connected catnip pair, keeping the Node handles
// so the test can Crash and Restart the server. Background polling is
// used only for the TCP handshake.
func ringConnect(t *testing.T, c *Cluster, cliNode, srvNode *Node, port uint16) (cqd, lqd, sqd QD) {
	t.Helper()
	lqd, addr := listenAll(t, srvNode, port)[0], c.AddrOf(srvNode, port)
	cqd, err := cliNode.Socket()
	if err != nil {
		t.Fatal(err)
	}
	stop := srvNode.Background()
	if err := cliNode.Connect(cqd, addr); err != nil {
		stop()
		t.Fatal(err)
	}
	sqd, err = srvNode.Accept(lqd)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	stop()
	return cqd, lqd, sqd
}

// ringEcho drives one push+pop round trip from the client ring against
// a manually-pumped server ring and returns the echoed payload.
func ringEcho(t *testing.T, cli, srv *Node, cp, sp *uring.Pair, cqd, sqd QD, payload []byte) []byte {
	t.Helper()
	if n, err := srv.SubmitBatch(sp, []uring.SQE{{Op: queue.OpPop, QD: int32(sqd), Tag: 0}}); err != nil || n != 1 {
		t.Fatalf("server pop submit: n=%d err=%v", n, err)
	}
	if n, err := cli.SubmitBatch(cp, []uring.SQE{
		{Op: queue.OpPush, QD: int32(cqd), Tag: 1, SGA: NewSGA(payload)},
		{Op: queue.OpPop, QD: int32(cqd), Tag: 2},
	}); err != nil || n != 2 {
		t.Fatalf("client submit: n=%d err=%v", n, err)
	}
	scq := make([]uring.CQE, 4)
	ccq := make([]uring.CQE, 4)
	var echoed []byte
	deadline := time.Now().Add(2 * time.Second)
	got := 0
	for got < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ring echo made no progress")
		}
		cli.Poll()
		srv.Poll()
		for _, cq := range scq[:srv.HarvestCQ(sp, scq)] {
			if cq.Err != nil {
				t.Fatalf("server CQE error: %v", cq.Err)
			}
			if cq.Kind == queue.OpPop {
				if n, err := srv.SubmitBatch(sp, []uring.SQE{
					{Op: queue.OpPush, QD: int32(sqd), Tag: 3, SGA: cq.SGA, Cost: cq.Cost},
				}); err != nil || n != 1 {
					t.Fatalf("server echo submit: n=%d err=%v", n, err)
				}
			}
		}
		for _, cq := range ccq[:cli.HarvestCQ(cp, ccq)] {
			if cq.Err != nil {
				t.Fatalf("client CQE error: %v", cq.Err)
			}
			if cq.Kind == queue.OpPop {
				echoed = append(echoed[:0], cq.SGA.Bytes()...)
				cq.SGA.Free()
			}
			got++
		}
	}
	return echoed
}

// TestRingCrashRestart kills a node with ring operations pending in
// both pre-crash states — a CQE posted but unharvested and pops in
// flight — and requires each to resolve to exactly one typed
// ErrLocalReset CQE and to be counted once, the same ring to work after
// Restart, and the frame-conservation laws to hold across the
// incarnation boundary.
func TestRingCrashRestart(t *testing.T) {
	c := NewCluster(71)
	srvNode := c.MustSpawn(Catnip, WithHost(1))
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{
		Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4,
	}))
	cliNode.WaitTimeout = 200 * time.Millisecond
	cqd, lqd, sqd := ringConnect(t, c, cliNode, srvNode, 7171)

	cp := cliNode.AttachRing(16)
	sp := srvNode.AttachRing(16)

	// Prove the ring path is live end to end.
	if got := ringEcho(t, cliNode, srvNode, cp, sp, cqd, sqd, []byte("ping")); !bytes.Equal(got, []byte("ping")) {
		t.Fatalf("pre-crash ring echo = %q", got)
	}

	// Stage a CQE that will sit unharvested at crash time: the server
	// arms a pop, the client's ring push lands, both sides poll until
	// the completion is on the server CQ — and nobody harvests it.
	if n, err := srvNode.SubmitBatch(sp, []uring.SQE{{Op: queue.OpPop, QD: int32(sqd), Tag: 10}}); err != nil || n != 1 {
		t.Fatalf("server pop submit: n=%d err=%v", n, err)
	}
	if n, err := cliNode.SubmitBatch(cp, []uring.SQE{
		{Op: queue.OpPush, QD: int32(cqd), Tag: 11, SGA: NewSGA([]byte("doomed"))},
	}); err != nil || n != 1 {
		t.Fatalf("client push submit: n=%d err=%v", n, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sp.CountersSnapshot().CQOccupancy == 0 {
		if time.Now().After(deadline) {
			t.Fatal("staged pop never completed")
		}
		cliNode.Poll()
		srvNode.Poll()
	}
	// Drain the client's push CQE so the client ring is quiescent.
	ccq := make([]uring.CQE, 4)
	for n := 0; n == 0; n = cliNode.HarvestCQ(cp, ccq) {
		cliNode.Poll()
	}

	// Two pops that will be in flight at the crash.
	if n, err := srvNode.SubmitBatch(sp, []uring.SQE{
		{Op: queue.OpPop, QD: int32(sqd), Tag: 12},
		{Op: queue.OpPop, QD: int32(sqd), Tag: 13},
	}); err != nil || n != 2 {
		t.Fatalf("submitting the in-flight pops: n=%d err=%v", n, err)
	}

	aborted, err := srvNode.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if aborted < 3 {
		t.Fatalf("crash failed %d ops, want >= 3 (2 pops in flight + 1 CQE rewritten)", aborted)
	}

	// Every pending ring op resolves to exactly one typed CQE: the
	// unharvested completion was rewritten by the flush, the two pops in
	// flight were failed by the transport.
	scq := make([]uring.CQE, 16)
	n := srvNode.HarvestCQ(sp, scq)
	if n != 3 {
		t.Fatalf("post-crash harvest = %d CQEs, want 3", n)
	}
	for i := 0; i < n; i++ {
		if !errors.Is(scq[i].Err, ErrLocalReset) {
			t.Fatalf("post-crash CQE %d: err = %v, want ErrLocalReset", i, scq[i].Err)
		}
	}
	if srvNode.HarvestCQ(sp, scq) != 0 {
		t.Fatal("a second harvest found more CQEs")
	}
	if cnt := sp.CountersSnapshot(); cnt.CQFlushed != 1 {
		t.Fatalf("cq_flushed = %d, want 1", cnt.CQFlushed)
	}

	// An operation on a dead descriptor fails as a CQE, typed.
	if _, err := srvNode.SubmitBatch(sp, []uring.SQE{{Op: queue.OpPop, QD: int32(sqd), Tag: 14}}); err != nil {
		t.Fatalf("submit after crash: %v", err)
	}
	if n := srvNode.HarvestCQ(sp, scq); n != 1 || !errors.Is(scq[0].Err, ErrLocalReset) {
		t.Fatalf("pop on a dead descriptor: %d CQEs, err %v; want one ErrLocalReset", n, scq[0].Err)
	}

	// Rebirth: the same ring on the same node, same listening QD.
	if err := srvNode.Restart(); err != nil {
		t.Fatal(err)
	}
	cqd2, err := cliNode.Socket()
	if err != nil {
		t.Fatal(err)
	}
	stop := srvNode.Background()
	if err := cliNode.Connect(cqd2, c.AddrOf(srvNode, 7171)); err != nil {
		stop()
		t.Fatalf("redial after restart: %v", err)
	}
	sqd2, err := srvNode.Accept(lqd)
	if err != nil {
		stop()
		t.Fatalf("pre-crash listener refused a post-restart dial: %v", err)
	}
	stop()
	if got := ringEcho(t, cliNode, srvNode, cp, sp, cqd2, sqd2, []byte("again")); !bytes.Equal(got, []byte("again")) {
		t.Fatalf("post-restart ring echo = %q", got)
	}

	// Quiesce, then read the conservation laws across the incarnation
	// boundary (same laws as the chaos lifecycle soak).
	c.Quiesce(100 * time.Millisecond)
	if err := c.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRingSmoke attaches one ring pair per shard of a 2-shard
// node and drives an operation through each: a ring's completions are
// posted by its own shard's poller, not just on single-shard nodes.
func TestShardedRingSmoke(t *testing.T) {
	c := NewCluster(72)
	srvNode := c.MustSpawn(Catnip, WithHost(1), WithShards(2))
	cliNode := c.MustSpawn(Catnip, WithHost(2))
	stopS := srvNode.Background()
	defer stopS()
	stopC := cliNode.Background()
	defer stopC()

	// Every shard's own netstack listens on the same port; RSS decides
	// which shard a SYN reaches, so the dial must come from a source
	// port that hashes to the target shard.
	const port = 7200
	lqds := listenAll(t, srvNode, port)
	if len(lqds) != 2 {
		t.Fatalf("expected a 2-shard node, got %d listeners", len(lqds))
	}

	for shardID, lib := range srvNode.Libs() {
		lqd := lqds[shardID]
		cqd, err := c.Router().DialShard(cliNode, srvNode.Sharded, port, shardID, uint16(shardID))
		if err != nil {
			t.Fatalf("shard %d dial: %v", shardID, err)
		}
		sqd, err := lib.Accept(lqd)
		if err != nil {
			t.Fatalf("shard %d accept: %v", shardID, err)
		}

		// Ring pair on the shard's own libOS: its worker loop (running
		// via Background) must complete the op.
		sp := lib.AttachRing(8)
		if n, err := lib.SubmitBatch(sp, []uring.SQE{{Op: queue.OpPop, QD: int32(sqd), Tag: 1}}); err != nil || n != 1 {
			t.Fatalf("shard %d pop submit: n=%d err=%v", shardID, n, err)
		}
		payload := []byte("shard-hello")
		if _, err := cliNode.BlockingPush(cqd, NewSGA(payload)); err != nil {
			t.Fatalf("shard %d push: %v", shardID, err)
		}
		cqes := make([]uring.CQE, 4)
		lib.WaitTimeout = 2 * time.Second
		n, err := lib.WaitAnyRing(sp, cqes)
		if err != nil {
			t.Fatalf("shard %d ring wait: %v", shardID, err)
		}
		if n != 1 || cqes[0].Err != nil || !bytes.Equal(cqes[0].SGA.Bytes(), payload) {
			t.Fatalf("shard %d ring pop: n=%d err=%v payload=%q", shardID, n, cqes[0].Err, cqes[0].SGA.Bytes())
		}
		cqes[0].SGA.Free()
		cliNode.Close(cqd)
		lib.Close(sqd)
		lib.Close(lqds[shardID])
	}
}
