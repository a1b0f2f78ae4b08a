package demikernel

// Chaos tests: scheduled fault injection (package internal/chaos) driven
// through the full Demikernel stack. The paper's argument is that
// kernel-bypass devices ship without the OS safety net, so the libOS must
// supply it; these tests attack that net on a seeded schedule and require
// that applications see typed errors and full recovery — never hangs,
// never silent corruption.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/failover"
	"demikernel/internal/apps/kv"
	"demikernel/internal/chaos"
	"demikernel/internal/fabric"
	"demikernel/internal/libos/catfish"
	"demikernel/internal/libos/catmint"
	"demikernel/internal/netstack"
	"demikernel/internal/offload"
	"demikernel/internal/queue"
	"demikernel/internal/spdk"
)

// chaosConnect is connectNodes plus the listener descriptor, which chaos
// tests need to accept replacement connections after a partition heals.
func chaosConnect(t *testing.T, cluster *Cluster, cli, srv *Node, port uint16) (cqd, lqd, sqd QD, cleanup func()) {
	t.Helper()
	stopS := srv.Background()
	stopC := cli.Background()
	var err error
	lqd = listenAll(t, srv, port)[0]
	if cqd, err = cli.Socket(); err != nil {
		t.Fatal(err)
	}
	if err = cli.Connect(cqd, cluster.AddrOf(srv, port)); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if sqd, err = srv.Accept(lqd); err != nil {
		t.Fatalf("accept: %v", err)
	}
	return cqd, lqd, sqd, func() { stopC(); stopS() }
}

// typedErr reports whether err (or a completion error) is one of the
// typed failure sentinels a chaos run may legitimately surface. Anything
// else — and in particular a silent wrong answer — fails the soak.
func typedErr(err error) bool {
	for _, want := range []error{
		ErrWaitTimeout,
		netstack.ErrMaxRetransmits,
		netstack.ErrConnectTimeout,
		catmint.ErrQPBroken,
		catmint.ErrOpTimeout,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	// queue.ErrClosed surfaces when the server dropped a half-dead
	// connection; the client answers it by reconnecting.
	return errors.Is(err, queue.ErrClosed)
}

// TestChaosSoakKV runs the KV application over each transport while a
// seeded chaos schedule attacks the fabric or device underneath: loss and
// corruption, then a partition, then heal (network); injected media
// errors and a controller reset (storage). During the fault window
// operations may fail — but only with typed errors, within the configured
// timeouts. After heal the application must make progress again and every
// successful read must return exactly the value written.
func TestChaosSoakKV(t *testing.T) {
	t.Run("catnip", func(t *testing.T) { chaosSoakNet(t, "catnip") })
	t.Run("catmint", func(t *testing.T) { chaosSoakNet(t, "catmint") })
	t.Run("catfish", chaosSoakCatfish)
}

func chaosSoakNet(t *testing.T, flavor string) {
	c := NewCluster(42)
	pooled := fabric.DefaultFramePool.Outstanding() // what earlier tests left
	var srvNode, cliNode *Node
	waitTimeout := 200 * time.Millisecond
	switch flavor {
	case "catnip":
		srvNode = c.MustSpawn(Catnip, WithHost(1))
		// Short retransmission budget so a partitioned connection gives
		// up inside the fault window instead of riding it out.
		cliNode = c.MustSpawn(Catnip, WithConfig(NodeConfig{Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4}))
	case "catmint":
		// Both OpTimeouts are the default: the server reaps response
		// completions from its ring, so a response lost to the corruption
		// phase stalls nothing there, and the client's sends are
		// acknowledged. All the client sees of a lost response is a pop
		// that never completes, which only its WaitTimeout ends. That one
		// detector stays short: the client has to be sending again before
		// the schedule's 40 ms clean gap is over, or nothing it sends meets
		// the partition.
		srvNode = c.MustSpawn(Catmint, WithHost(1))
		waitTimeout = 15 * time.Millisecond
		cliNode = c.MustSpawn(Catmint, WithHost(2))
	}

	srv := kv.NewServer(srvNode.LibOS, &c.Model)
	if err := srv.Listen(6379); err != nil {
		t.Fatal(err)
	}
	defer srvNode.Background()()
	defer cliNode.Background()()
	stop := make(chan struct{})
	defer close(stop)
	srv.Run(stop)

	cli := kv.NewClient(cliNode.LibOS)
	addr := c.AddrOf(srvNode, 6379)
	if err := cli.Connect(addr); err != nil {
		t.Fatal(err)
	}
	// The short detector is for the schedule below; the first connect,
	// before any fault, keeps the default so that a busy host cannot fail
	// it (15 ms is one scheduling hiccup beside other packages' tests).
	cliNode.WaitTimeout = waitTimeout

	// The seeded schedule: a loss+corruption phase, a clean gap so both
	// sides re-stabilise, then a hard partition of the client's link,
	// then heal. The gap guarantees the client is healthy — and therefore
	// transmitting — when the partition lands.
	port := cliNode.FabricPort()
	eng := chaos.New(42).
		ImpairAll(0, c.Switch, fabric.Impairments{LossRate: 0.03, CorruptRate: 0.12}).
		ImpairAll(60*time.Millisecond, c.Switch, fabric.Impairments{}).
		LinkDown(100*time.Millisecond, c.Switch, port).
		LinkUp(200*time.Millisecond, c.Switch, port)
	eng.Start()

	expected := make(map[string][]byte)
	var failures, successes, postHealOK, redials int
	// A connection that failed is dead on either libOS: reconnect at the
	// application level. The dial fails fast while partitioned.
	redial := func() {
		if cli.Connect(addr) == nil {
			redials++
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; postHealOK < 20; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after heal: %d successes, %d typed failures, %d post-heal",
				successes, failures, postHealOK)
		}
		eng.Step()
		key := fmt.Sprintf("k%02d", i%8)
		val := bytes.Repeat([]byte{byte(i)}, 64+i%257)
		if _, err := cli.Set(key, val); err != nil {
			if !typedErr(err) {
				t.Fatalf("set %d failed with untyped error: %v", i, err)
			}
			failures++
			redial()
			continue
		}
		expected[key] = val
		got, _, found, err := cli.Get(key)
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("get %d failed with untyped error: %v", i, err)
			}
			failures++
			redial()
			continue
		}
		if !found || !bytes.Equal(got, expected[key]) {
			t.Fatalf("iteration %d: corrupted response for %q: got %d bytes, want %d",
				i, key, len(got), len(expected[key]))
		}
		successes++
		if eng.Done() {
			postHealOK++
		}
	}
	if successes == 0 {
		t.Fatal("no operation ever succeeded")
	}
	if failures == 0 {
		t.Fatal("the partition never produced a visible failure: fault schedule did not bite")
	}
	if redials == 0 {
		t.Fatal("the client never redialed after a failure")
	}

	// The schedule must actually have fired on the wire.
	st := c.Switch.Stats()
	if st.InjectedCorrupt == 0 {
		t.Fatal("no frames were corrupted despite CorruptRate")
	}
	if st.LinkDownDrops == 0 {
		t.Fatal("no frames were dropped despite the partition")
	}
	ps := c.Switch.PortStats(port)
	if ps.LinkDownDrops == 0 {
		t.Fatal("partition drops were not attributed to the targeted port")
	}
	if got := eng.Fired(); len(got) != 4 {
		t.Fatalf("schedule fired %d/4 events: %v", len(got), got)
	}
	switch flavor {
	case "catnip":
		if cliNode.Catnip.Stack().Stats().GiveUps == 0 {
			t.Fatal("the TCP stack never declared the peer dead")
		}
		// No buffer leaked through the faults: at rest both nodes' frame
		// pool (a set of one draws on the process-wide one) holds the values
		// the store keeps and nothing else.
		c.Quiesce(50 * time.Millisecond)
		if out := fabric.DefaultFramePool.Outstanding() - pooled; out != int64(srv.Len()) {
			t.Fatalf("%d pool buffers out at rest, %d values stored", out, srv.Len())
		}
	case "catmint":
		if cliNode.Catmint.Device().Stats().QPErrors == 0 && cliNode.Catmint.OpTimeouts() == 0 {
			t.Fatal("no queue pair ever broke: neither a QP error nor the dead-peer detector")
		}
	}
}

// TestChaosShardedKV aims the same fault schedule at the 4-shard
// share-nothing KV server: loss+corruption, a clean gap, a hard
// partition of the client's link, then heal. The sharded runtime must
// behave exactly as the single-core server did — typed errors only,
// full recovery after heal — and additionally keep its share-nothing
// invariants through the chaos: an RSS-aligned client never crosses
// the mesh (retransmitted frames carry the same flow tuple, so they
// re-hash to the same queue), no forward is ever dropped, and the
// frame-conservation laws hold across the shared NIC and all four
// per-shard stacks once the world quiesces.
func TestChaosShardedKV(t *testing.T) {
	const shards = 4
	c := NewCluster(44)
	srvNode := c.MustSpawn(Catnip, WithHost(1), WithShards(shards))
	// Short retransmission budget so partitioned connections give up
	// inside the fault window instead of riding it out.
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4}))
	cliNode.WaitTimeout = 200 * time.Millisecond

	server := kv.NewShardedServer(srvNode.Libs(), &c.Model, srvNode.Mesh())
	const port = 6379
	if err := server.Listen(port); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wg := server.Run(stop)
	var stopSrvOnce sync.Once
	stopServer := func() { stopSrvOnce.Do(func() { close(stop); wg.Wait() }) }
	defer stopServer()
	stopCliBg := cliNode.Background()
	var stopCliOnce sync.Once
	stopClient := func() { stopCliOnce.Do(stopCliBg) }
	defer stopClient()

	// dial builds a fresh RSS-aligned sharded client. The seed varies per
	// attempt so a reconnect after TCP give-up picks fresh source ports —
	// SourcePortFor keeps every choice aligned with its target shard.
	dial := func(attempt int) (*kv.ShardedClient, error) {
		return kv.NewShardedClient(cliNode.LibOS, shards, func(i int) (QD, error) {
			return c.Router().DialShard(cliNode, srvNode.Sharded, port, i, uint16(3000*i+7+attempt*131))
		})
	}
	cli, err := dial(0)
	if err != nil {
		t.Fatal(err)
	}

	fport := cliNode.FabricPort()
	eng := chaos.New(44).
		ImpairAll(0, c.Switch, fabric.Impairments{LossRate: 0.03, CorruptRate: 0.12}).
		ImpairAll(60*time.Millisecond, c.Switch, fabric.Impairments{}).
		LinkDown(100*time.Millisecond, c.Switch, fport).
		LinkUp(200*time.Millisecond, c.Switch, fport)
	eng.Start()

	expected := make(map[string][]byte)
	var failures, successes, postHealOK, attempt int
	// catnip connections are terminal after give-up: replace the whole
	// sharded client. While partitioned the redial itself fails fast with
	// a typed error; cli stays nil and the next iteration tries again.
	redial := func() bool {
		attempt++
		if cli != nil {
			_ = cli.Close()
			cli = nil
		}
		fresh, err := dial(attempt)
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("redial %d failed with untyped error: %v", attempt, err)
			}
			return false
		}
		cli = fresh
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; postHealOK < 20; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after heal: %d successes, %d typed failures, %d post-heal",
				successes, failures, postHealOK)
		}
		eng.Step()
		if cli == nil {
			if !redial() {
				failures++
				continue
			}
		}
		key := fmt.Sprintf("shard-k%02d", i%16)
		val := bytes.Repeat([]byte{byte(i)}, 48+i%131)
		if _, err := cli.Set(key, val); err != nil {
			if !typedErr(err) {
				t.Fatalf("set %d failed with untyped error: %v", i, err)
			}
			failures++
			redial()
			continue
		}
		expected[key] = val
		got, _, found, err := cli.Get(key)
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("get %d failed with untyped error: %v", i, err)
			}
			failures++
			redial()
			continue
		}
		if !found || !bytes.Equal(got, expected[key]) {
			t.Fatalf("iteration %d: corrupted response for %q: got %d bytes, want %d",
				i, key, len(got), len(expected[key]))
		}
		successes++
		if eng.Done() {
			postHealOK++
		}
	}
	if successes == 0 {
		t.Fatal("no operation ever succeeded")
	}
	if failures == 0 {
		t.Fatal("the fault schedule never produced a visible failure")
	}

	// The schedule must actually have fired on the wire.
	st := c.Switch.Stats()
	if st.InjectedCorrupt == 0 {
		t.Fatal("no frames were corrupted despite CorruptRate")
	}
	if st.LinkDownDrops == 0 {
		t.Fatal("no frames were dropped despite the partition")
	}
	if got := eng.Fired(); len(got) != 4 {
		t.Fatalf("schedule fired %d/4 events: %v", len(got), got)
	}
	if cliNode.Catnip.Stack().Stats().GiveUps == 0 {
		t.Fatal("the client TCP stack never declared a peer dead")
	}

	// Share-nothing invariants survived the chaos: the aligned client
	// never crossed the mesh and the mesh never dropped a message.
	var fwdOut, fwdIn, fwdDrops int64
	for i := 0; i < server.Size(); i++ {
		s := server.StatsOf(i)
		fwdOut += s.ForwardedOut
		fwdIn += s.ForwardedIn
		fwdDrops += s.ForwardDrops
	}
	if fwdOut != 0 || fwdIn != 0 {
		t.Fatalf("aligned chaos run crossed the mesh: out=%d in=%d", fwdOut, fwdIn)
	}
	if fwdDrops != 0 {
		t.Fatalf("mesh dropped %d forwards", fwdDrops)
	}

	// Frame conservation across the sharded datapath — the shared NIC and
	// all four per-shard stacks. Quiesce first, then freeze both sides so
	// counters stop moving while the laws are read.
	c.Quiesce(200 * time.Millisecond)
	stopServer()
	stopClient()
	if err := c.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// chaosSoakCatfish drives the storage leg: durable record appends while
// the chaos schedule injects media errors and a controller reset. The
// retry loop in catfish must absorb the transients; after the run every
// record must read back intact — including across a restart.
func chaosSoakCatfish(t *testing.T) {
	c := NewCluster(43)
	node, err := c.Spawn(Catfish, WithBlocks(0))
	if err != nil {
		t.Fatal(err)
	}
	qd, err := node.Open("/chaos/log")
	if err != nil {
		t.Fatal(err)
	}
	dev := node.Catfish.Device()
	eng := chaos.New(43).
		IOErrorRate(0, dev, 0.15).
		ControllerReset(8*time.Millisecond, dev, 3).
		IOErrorRate(16*time.Millisecond, dev, 0)
	eng.Start()

	const records = 80
	var want [][]byte
	for i := 0; i < records; i++ {
		eng.Step()
		rec := append([]byte(fmt.Sprintf("rec-%04d:", i)), bytes.Repeat([]byte{byte(i)}, 100+i)...)
		s := NewSGA(rec)
		if i%2 == 0 {
			// Alternate pooled staging buffers (AllocSGA) so the soak
			// exercises the pool's consume-on-durable-push ownership
			// under faults; the leak assert below holds it to zero.
			s = node.Catfish.AllocSGA(len(rec))
			copy(s.Segments[0].Buf, rec)
		}
		comp, err := node.BlockingPush(qd, s)
		if err != nil || comp.Err != nil {
			t.Fatalf("push %d not absorbed by the retry budget: %v %v", i, err, comp.Err)
		}
		want = append(want, rec)
		time.Sleep(300 * time.Microsecond)
	}
	for !eng.Done() {
		eng.Step()
		time.Sleep(time.Millisecond)
	}

	st := dev.Stats()
	if st.Resets == 0 {
		t.Fatal("controller reset never fired")
	}
	if st.InjectedErrors == 0 {
		t.Fatal("no media errors were injected despite the armed rate")
	}
	if node.Catfish.Retries() == 0 {
		t.Fatal("the retry loop never absorbed a transient failure")
	}

	verify := func(n *Node, label string) {
		qd, err := n.Open("/chaos/log")
		if err != nil {
			t.Fatalf("%s open: %v", label, err)
		}
		for i := 0; i < records; i++ {
			comp, err := n.BlockingPop(qd)
			if err != nil || comp.Err != nil {
				t.Fatalf("%s pop %d: %v %v", label, i, err, comp.Err)
			}
			if !bytes.Equal(comp.SGA.Bytes(), want[i]) {
				t.Fatalf("%s record %d corrupted", label, i)
			}
		}
	}
	verify(node, "same-process")

	// Restart: recover the log from the same device and re-verify.
	node2, err := c.Spawn(Catfish, WithDisk(dev))
	if err != nil {
		t.Fatalf("recovery after chaos run: %v", err)
	}
	verify(node2, "post-restart")

	// Leak assert: every pooled staging buffer the soak allocated
	// (AllocSGA-staged pushes) was consumed by its durable append —
	// even the ones whose first attempts died to injected faults.
	if out := node.Catfish.Pool().Outstanding(); out != 0 {
		t.Fatalf("%d pooled SGA buffers leaked across the chaos soak", out)
	}
}

// TestChaosTCPGiveUp partitions a catnip client mid-connection and
// requires the user-level TCP stack to give up with typed errors — the
// hang-free failure handling §2 says nobody below the libOS will provide.
func TestChaosTCPGiveUp(t *testing.T) {
	c := NewCluster(301)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnip, WithConfig(NodeConfig{Host: 2, RTO: time.Millisecond, MaxRetransmits: 3}))
	cqd, lqd, _, cleanup := chaosConnect(t, c, cli, srv, 80)
	defer cleanup()

	eng := chaos.New(301)
	eng.LinkDown(0, c.Switch, cli.FabricPort())
	eng.Start()
	eng.Step()

	// A push is accepted into the send buffer, but the bytes can never
	// be delivered: the stack must retransmit, give up, and fail the
	// next operation with ErrMaxRetransmits — well inside the wait
	// deadline, so this is a typed error, not a hang.
	start := time.Now()
	qt, err := cli.Push(cqd, NewSGA([]byte("into the void")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Wait(qt); err != nil {
		t.Fatalf("push wait: %v", err)
	}
	comp, err := cli.BlockingPop(cqd)
	if err == nil && comp.Err == nil {
		t.Fatal("pop succeeded across a partition")
	}
	popErr := err
	if popErr == nil {
		popErr = comp.Err
	}
	if !errors.Is(popErr, netstack.ErrMaxRetransmits) {
		t.Fatalf("pop failed with %v, want ErrMaxRetransmits", popErr)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("give-up took %v: that is a hang, not failure detection", elapsed)
	}
	if cli.Catnip.Stack().Stats().GiveUps == 0 {
		t.Fatal("GiveUps counter never moved")
	}

	// Connecting to anyone across the dead link fails with
	// ErrConnectTimeout once the SYN budget is spent.
	qd2, err := cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(qd2, c.AddrOf(srv, 80)); !errors.Is(err, netstack.ErrConnectTimeout) {
		t.Fatalf("connect over partition: %v, want ErrConnectTimeout", err)
	}

	// Heal and verify a fresh connection works end to end.
	eng.LinkUp(0, c.Switch, cli.FabricPort())
	eng.Step()
	qd3, err := cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(qd3, c.AddrOf(srv, 80)); err != nil {
		t.Fatalf("post-heal connect: %v", err)
	}
	sqd2, err := srv.Accept(lqd)
	if err != nil {
		t.Fatalf("post-heal accept: %v", err)
	}
	echoOnce(t, cli, qd3, srv, sqd2, "back from the dead")
}

// TestChaosCatmintReconnect flaps the client's link under an echo
// client: the dead-peer detector must fail the push in flight within
// OpTimeout, typed as a dead peer, and after the heal the client's
// failover must redial and complete a round trip. What catmint held for
// the dead queue pair must be back: the client transport then holds
// only the live queue pair's posted receive window.
func TestChaosCatmintReconnect(t *testing.T) {
	c := NewCluster(302)
	srv := c.MustSpawn(Catmint, WithHost(1))
	const opTimeout = 10 * time.Millisecond
	cli := c.MustSpawn(Catmint, WithConfig(NodeConfig{Host: 2, OpTimeout: opTimeout}))
	_, stopSrv, err := echo.Serve(srv.LibOS, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stopSrv()
	client, stopCli, err := echo.Dial(cli.LibOS, c.AddrOf(srv, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer stopCli()
	client.EnableFailover(failover.Policy{MaxAttempts: 40, Base: time.Millisecond, Max: 20 * time.Millisecond, Seed: 302})
	if _, err := client.RTT([]byte("healthy before the flap"), 0); err != nil {
		t.Fatal(err)
	}

	eng := chaos.New(302)
	eng.LinkFlap(0, 40*time.Millisecond, c.Switch, cli.FabricPort())
	eng.Start()
	eng.Step() // fires link-down

	// The in-flight push can never complete: only the detector ends it.
	start := time.Now()
	qt, err := cli.Push(client.QD(), NewSGA([]byte("lost")))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cli.Wait(qt)
	if err != nil {
		t.Fatalf("wait during outage: %v", err)
	}
	if !errors.Is(comp.Err, ErrPeerDead) || !errors.Is(comp.Err, catmint.ErrOpTimeout) {
		t.Fatalf("push across a dead link completed with %v, want ErrPeerDead wrapping ErrOpTimeout", comp.Err)
	}
	// OpTimeout plus the poller's scheduling slack; a hang would take
	// WaitTimeout.
	if elapsed := time.Since(start); elapsed > opTimeout+time.Second {
		t.Fatalf("the detector took %v at OpTimeout %v", elapsed, opTimeout)
	}
	// waitPending waits for the client transport's pending work requests
	// to read want: flushed receives come back on the poller's next pass.
	waitPending := func(want int, when string) {
		deadline := time.Now().Add(time.Second)
		for cli.Catmint.Pending() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: client holds %d work requests, want %d", when, cli.Catmint.Pending(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The broken queue pair is destroyed before anyone closes it.
	waitPending(0, "after the break")

	for !eng.Done() {
		eng.Step()
		time.Sleep(time.Millisecond)
	}
	if _, err := client.RTT([]byte("recovered after the flap"), 0); err != nil {
		t.Fatalf("echo after the heal: %v", err)
	}
	if redials, _ := client.FailoverStats(); redials == 0 {
		t.Fatal("the echo completed without a redial over a dead queue pair")
	}

	waitPending(catmint.DefaultPostedRecvs, "after the redial") // the live queue pair's window
}

// TestChaosCatfishResetRetry injects an NVMe controller reset mid-stream:
// the retry loop absorbs a reset within its budget invisibly, and the
// application sees the typed device error of one that outlasts it.
func TestChaosCatfishResetRetry(t *testing.T) {
	c := NewCluster(303)
	node, err := c.Spawn(Catfish, WithBlocks(0))
	if err != nil {
		t.Fatal(err)
	}
	qd, err := node.Open("/wal")
	if err != nil {
		t.Fatal(err)
	}
	dev := node.Catfish.Device()

	// Reset absorbed by the retry budget.
	eng := chaos.New(303)
	eng.ControllerReset(0, dev, 3)
	eng.Start()
	eng.Step()
	comp, err := node.BlockingPush(qd, NewSGA([]byte("survives the reset")))
	if err != nil || comp.Err != nil {
		t.Fatalf("push across reset: %v %v", err, comp.Err)
	}
	if node.Catfish.Retries() == 0 {
		t.Fatal("reset fired but the retry loop never ran")
	}
	if dev.Stats().Resets != 1 {
		t.Fatalf("resets = %d, want 1", dev.Stats().Resets)
	}

	// A reset that outlasts the retry budget becomes a typed failure.
	eng.ControllerReset(0, dev, catfish.DefaultMaxRetries+1)
	eng.Step()
	comp, err = node.BlockingPush(qd, NewSGA([]byte("gives up")))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(comp.Err, spdk.ErrDeviceReset) {
		t.Fatalf("push past the retry budget failed with %v, want ErrDeviceReset", comp.Err)
	}

	// The device is back: the stream is intact and appends resume.
	comp, err = node.BlockingPush(qd, NewSGA([]byte("resumes")))
	if err != nil || comp.Err != nil {
		t.Fatalf("push after the reset: %v %v", err, comp.Err)
	}
	for _, want := range []string{"survives the reset", "resumes"} {
		comp, err := node.BlockingPop(qd)
		if err != nil || comp.Err != nil {
			t.Fatalf("pop: %v %v", err, comp.Err)
		}
		if string(comp.SGA.Bytes()) != want {
			t.Fatalf("popped %q, want %q", comp.SGA.Bytes(), want)
		}
	}
}

// TestChaosPushdownResetMidTraversal resets the NVMe controller while a
// pushdown index traversal is in flight on the device. The contract: the
// application's Pop sees exactly one typed error completion (never a
// hang, never a partial value), the hop budget is accounted, and nothing
// leaks — no in-flight traversal, no pooled buffer.
func TestChaosPushdownResetMidTraversal(t *testing.T) {
	c := NewCluster(307)
	node, err := c.Spawn(Catfish, WithBlocks(0))
	if err != nil {
		t.Fatal(err)
	}
	tr := node.Catfish
	dev := tr.Device()

	var pairs []spdk.KV
	for i := 0; i < 64; i++ {
		pairs = append(pairs, spdk.KV{
			Key: []byte(fmt.Sprintf("user:%03d", i)),
			Val: []byte(fmt.Sprintf("profile-%d", i)),
		})
	}
	idx, err := tr.BuildIndex(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Depth < 4 {
		t.Fatalf("index depth = %d, want a deep traversal to interrupt", idx.Depth)
	}
	lq, err := tr.OpenLookup(idx, offload.IndexLookup(), catfish.LookupConfig{Pushdown: true})
	if err != nil {
		t.Fatal(err)
	}

	get := func(key string) (string, error) {
		s := tr.AllocSGA(len(key))
		copy(s.Segments[0].Buf, key)
		lq.Push(s, 0, func(queue.Completion) {})
		var res queue.Completion
		got := false
		lq.Pop(func(qc queue.Completion) { res = qc; got = true })
		for i := 0; !got; i++ {
			tr.Poll()
			if i > 100000 {
				t.Fatal("lookup hung — the one forbidden outcome")
			}
		}
		if res.Err != nil {
			return "", res.Err
		}
		v := string(res.SGA.Bytes())
		res.SGA.Free()
		return v, nil
	}

	// Healthy baseline.
	if v, err := get("user:031"); err != nil || v != "profile-31" {
		t.Fatalf("baseline get: %q, %v", v, err)
	}

	// Interrupt a traversal: push, advance two device-side hops, then
	// fire the reset on the chaos schedule while the next read is queued.
	s := tr.AllocSGA(8)
	copy(s.Segments[0].Buf, "user:031")
	lq.Push(s, 0, func(queue.Completion) {})
	dev.Pump()
	dev.Pump()
	if st := dev.PushdownStats(); st.Inflight != 1 {
		t.Fatalf("inflight = %d mid-traversal, want 1", st.Inflight)
	}
	eng := chaos.New(307)
	eng.ControllerReset(0, dev, 2)
	eng.Start()
	eng.Step()

	var res queue.Completion
	got := false
	lq.Pop(func(qc queue.Completion) { res = qc; got = true })
	for i := 0; !got; i++ {
		tr.Poll()
		if i > 100000 {
			t.Fatal("aborted traversal never surfaced its error completion")
		}
	}
	if !errors.Is(res.Err, spdk.ErrDeviceReset) {
		t.Fatalf("err = %v, want the typed ErrDeviceReset", res.Err)
	}
	st := dev.PushdownStats()
	if st.ResetAborts != 1 {
		t.Fatalf("reset_aborts = %d, want 1", st.ResetAborts)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after the abort, want 0 (leaked traversal)", st.Inflight)
	}

	// The controller re-initialises (downFor spends on the next
	// commands); lookups resume and hit the same index.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := get("user:031")
		if err == nil {
			if v != "profile-31" {
				t.Fatalf("post-reset value %q", v)
			}
			break
		}
		if !errors.Is(err, spdk.ErrDeviceReset) {
			t.Fatalf("post-reset lookup failed with %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("device never recovered")
		}
	}
	if out := tr.Pool().Outstanding(); out != 0 {
		t.Fatalf("%d pooled buffers leaked across the reset", out)
	}
	if st := dev.PushdownStats(); st.Inflight != 0 {
		t.Fatalf("inflight = %d at exit", st.Inflight)
	}
}
