package demikernel

// Lifecycle tests: crash and restart of live stacks, observed from the
// surviving side. The paper's §3 argument is that kernel bypass removes
// the OS from the death notification business — no FIN, no RST, no
// cleanup on behalf of the corpse. These tests require the replacements
// this repo builds instead: typed errors (never hangs) at the peer,
// LibrettOS-style listener re-binding at the reborn node, client-side
// redial-and-replay, and frame conservation across the incarnation
// boundary.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"demikernel/internal/apps/failover"
	"demikernel/internal/apps/kv"
	"demikernel/internal/chaos"
	"demikernel/internal/fabric"
	"demikernel/internal/queue"
	"demikernel/internal/uring"
)

// TestCrashRestartMidConnection kills a server with a connection
// established and operations pending on both sides. The client must see
// only typed errors; after Restart the original listening QD must accept
// a fresh dial and carry data.
func TestCrashRestartMidConnection(t *testing.T) {
	c := NewCluster(61)
	srvNode := c.MustSpawn(Catnip, WithHost(1))
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{
		Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4,
	}))
	cliNode.WaitTimeout = 200 * time.Millisecond
	cqd, lqd, sqd, cleanup := chaosConnect(t, c, cliNode, srvNode, 7070)
	defer cleanup()

	echoOnce(t, cliNode, cqd, srvNode, sqd, "ping") // the connection is live

	// Arm a pop on each side, then kill the server.
	cqt, err := cliNode.Pop(cqd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvNode.Pop(sqd); err != nil {
		t.Fatal(err)
	}
	aborted, err := srvNode.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if aborted == 0 {
		t.Fatal("crash aborted nothing despite a pending server pop")
	}

	// The client pushes into the void: its retransmission budget is the
	// only death detector left, and it must expire with a typed error.
	if _, err := cliNode.Push(cqd, NewSGA([]byte("lost"))); err != nil {
		t.Fatal(err)
	}
	comp, err := cliNode.Wait(cqt)
	switch {
	case err != nil && !typedErr(err):
		t.Fatalf("client wait failed with untyped error: %v", err)
	case err == nil && comp.Err != nil && !typedErr(comp.Err):
		t.Fatalf("client pop completed with untyped error: %v", comp.Err)
	case err == nil && comp.Err == nil:
		t.Fatal("client pop succeeded against a dead server")
	}

	// Rebirth: same MAC, same IP, same listening QD.
	if err := srvNode.Restart(); err != nil {
		t.Fatal(err)
	}
	cqd2, err := cliNode.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := cliNode.Connect(cqd2, c.AddrOf(srvNode, 7070)); err != nil {
		t.Fatalf("redial after restart: %v", err)
	}
	sqd2, err := srvNode.Accept(lqd)
	if err != nil {
		t.Fatalf("pre-crash listener refused a post-restart dial: %v", err)
	}
	echoOnce(t, cliNode, cqd2, srvNode, sqd2, "again")
}

// TestKVFailoverAcrossCrash drives the single-connection KV client
// through a server death: with failover armed, the operation in flight
// when the server dies must be transparently replayed onto the reborn
// server — the caller never sees the crash.
func TestKVFailoverAcrossCrash(t *testing.T) {
	c := NewCluster(62)
	srvNode := c.MustSpawn(Catnip, WithHost(1))
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{
		Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4,
	}))
	cliNode.WaitTimeout = 200 * time.Millisecond

	_, stopSrv, err := kv.Serve(srvNode.Libs(), srvNode.Mesh(), srvNode.Shards(), &c.Model, 6379)
	if err != nil {
		t.Fatal(err)
	}
	defer stopSrv()
	cli, stopCli, err := kv.Dial(cliNode.LibOS, 1, c.Router().Dialer(cliNode, srvNode, 6379))
	if err != nil {
		t.Fatal(err)
	}
	defer stopCli()
	pol := failover.DefaultPolicy()
	pol.MaxAttempts = 60
	cli.EnableFailover(pol, nil) // redial with the dialer the client was staged with
	if _, err := cli.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	if _, err := srvNode.Crash(); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(15 * time.Millisecond)
		if err := srvNode.Restart(); err != nil {
			t.Error(err)
		}
	}()

	// This Set spans the outage: detect, back off, redial, replay.
	if _, err := cli.Set("k", []byte("v2")); err != nil {
		t.Fatalf("failover did not absorb the crash: %v", err)
	}
	recon, replays := cli.FailoverStats()
	if recon == 0 || replays == 0 {
		t.Fatalf("FailoverStats = %d, %d; the crash should have forced both", recon, replays)
	}
	got, _, found, err := cli.Get("k")
	if err != nil || !found || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("post-failover Get = %q, %v, %v", got, found, err)
	}
}

// TestChaosShardedKVCrashRestart is the full gauntlet the issue asks
// for: loss, then an asymmetric partition, then a crash of the node
// owning all four KV shards, then restart and heal — against a sharded
// KV server with a failover-armed RSS-aligned client. Requirements: no
// untyped error ever surfaces, the client fully recovers, every
// successful read returns the value written, and the frame-conservation
// laws (including the crash-time RxFlushed bucket) hold at the end.
func TestChaosShardedKVCrashRestart(t *testing.T) {
	const shards = 4
	const port = 6380
	c := NewCluster(45)
	node := c.MustSpawn(Catnip, WithHost(1), WithShards(shards))
	srvNode := node.Sharded
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{
		Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4,
	}))
	cliNode.WaitTimeout = 250 * time.Millisecond

	server := kv.NewShardedServer(srvNode.Libs, &c.Model, srvNode.Mesh())
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

	// RSS-aligned dial; the redial flavor rotates the source-port seed
	// by attempt so a replacement flow never collides with its corpse.
	cli, err := kv.NewShardedClient(cliNode.LibOS, shards, func(i int) (QD, error) {
		return c.Router().DialShard(cliNode, srvNode, port, i, uint16(4000*i+11))
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := failover.DefaultPolicy()
	pol.MaxAttempts = 80
	pol.Max = 40 * time.Millisecond
	cli.EnableFailover(pol, func(shard, attempt int) (QD, error) {
		return c.Router().DialShard(cliNode, srvNode, port, shard, uint16(4000*shard+11+attempt*131))
	})

	// The schedule: loss, one-way partition (client→server dies while
	// server→client flows — the gray failure), whole-node crash, rebirth.
	eng := chaos.New(45, cliNode.Clock()).
		ImpairAll(0, c.Switch, fabric.Impairments{LossRate: 0.03}).
		ImpairAll(20*time.Millisecond, c.Switch, fabric.Impairments{}).
		AsymmetricPartition(25*time.Millisecond, 15*time.Millisecond, c.Switch,
			cliNode.FabricPort(), srvNode.Set.Device().PortID()).
		NodeCrashRestart(55*time.Millisecond, 20*time.Millisecond, "kv", node)
	// The engine runs on its own goroutine: the workload loop below can
	// block inside failover backoff, and the restart event must fire on
	// schedule regardless.
	engDone := make(chan struct{})
	go func() {
		eng.Run(100 * time.Millisecond)
		close(engDone)
	}()
	done := func() bool {
		select {
		case <-engDone:
			return true
		default:
			return false
		}
	}

	expected := make(map[string][]byte)
	var successes, failures, postHealOK int
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; postHealOK < 20; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no recovery: %d successes, %d typed failures, %d post-heal",
				successes, failures, postHealOK)
		}
		key := fmt.Sprintf("cr-k%02d", i%16)
		val := bytes.Repeat([]byte{byte(i)}, 32+i%97)
		if _, err := cli.Set(key, val); err != nil {
			if !typedErr(err) {
				t.Fatalf("set %d failed with untyped error: %v", i, err)
			}
			failures++
			continue
		}
		expected[key] = val
		got, _, found, err := cli.Get(key)
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("get %d failed with untyped error: %v", i, err)
			}
			failures++
			continue
		}
		if !found || !bytes.Equal(got, expected[key]) {
			t.Fatalf("iteration %d: corrupted response for %q: got %d bytes, want %d",
				i, key, len(got), len(expected[key]))
		}
		successes++
		if done() {
			postHealOK++
		}
	}

	// The schedule must have fired completely and in order.
	evs := eng.FiredEvents()
	if len(evs) != 6 {
		t.Fatalf("schedule fired %d/6 events: %v", len(evs), eng.Fired())
	}
	for _, ev := range evs {
		if ev.FiredAt < ev.At {
			t.Fatalf("event %q fired before its offset: %+v", ev.Name, ev)
		}
	}
	if evs[4].Name != "node-crash(kv)" || evs[5].Name != "node-restart(kv)" {
		t.Fatalf("lifecycle events missing or misordered: %v", eng.Fired())
	}

	// The faults must have bitten on the wire and in the client stack.
	st := c.Switch.Stats()
	if st.InjectedLoss == 0 {
		t.Fatal("no frames were lost despite LossRate")
	}
	if st.AsymDrops == 0 {
		t.Fatal("the one-way partition never dropped a frame")
	}
	// (LinkDownDrops is not asserted: whether any frame hits the downed
	// link depends on where the client's backoff sleeps fall inside the
	// 20ms crash window — the law below still accounts for the bucket.)
	recon, replays := cli.FailoverStats()
	if recon == 0 || replays == 0 {
		t.Fatalf("FailoverStats = %d, %d; the crash should have forced redials and replays", recon, replays)
	}
	if crashes, restarts := srvNode.Set.Shard(0).Lifetimes(); crashes != 1 || restarts != 1 {
		t.Fatalf("Lifetimes = %d, %d; want 1, 1", crashes, restarts)
	}
	if node.Crashed() {
		t.Fatal("server still reports crashed after the schedule completed")
	}

	// The reborn node must not be shadowed by a stale neighbor entry.
	if gen := srvNode.Set.Neighbors().Generation(); gen == 0 {
		t.Fatal("restart never generation-invalidated the shared neighbor table")
	}

	// Quiesce, then read the conservation laws — across the incarnation
	// boundary, the crash-time RxFlushed bucket included.
	c.Quiesce(200 * time.Millisecond)
	stopServer()
	stopClient()
	if err := c.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeShapesShareLifecycle puts every shape a catnip node comes in —
// each width, dedicated NIC or tenant's slice, spawned as catnip or
// promoted to it — through the one Crash/Restart path: with a per-op pop
// and a ring pop armed on every active shard, Crash resolves each exactly
// once to ErrLocalReset and counts them, Restart re-arms the same
// listening QDs, and the frame laws hold across the incarnations.
func TestNodeShapesShareLifecycle(t *testing.T) {
	const port = 7300
	tenant := WithTenant("t", TenantPolicy{})
	for _, tc := range []struct {
		name  string
		kind  Kind // spawned as; switched to Catnip with its listener armed
		shape []SpawnOption
	}{
		{"plain", Catnip, nil},
		{"shards2", Catnip, []SpawnOption{WithShards(2)}},
		{"elastic2of4", Catnip, []SpawnOption{WithShards(2), WithShardCapacity(4)}},
		{"tenant", Catnip, []SpawnOption{tenant}},
		{"tenant-shards2", Catnip, []SpawnOption{tenant, WithShards(2)}},
		{"promoted", Catnap, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(74)
			srv := c.MustSpawn(tc.kind, append([]SpawnOption{WithHost(1)}, tc.shape...)...)
			cli := c.MustSpawn(Catnip, WithHost(2))
			libs, lqds := srv.Libs()[:srv.Shards()], listenAll(t, srv, port)
			if err := srv.SwitchKind(Catnip); err != nil {
				t.Fatal(err)
			}
			if srv.Sharded == nil || srv.Sharded.Set.Shard(0) != srv.Catnip {
				t.Fatalf("catnip node without its shard set: %+v", srv)
			}
			// polled starts both nodes' pollers; the function it returns lets
			// the wire go quiet and stops them.
			polled := func() (rest func()) {
				stopSrv, stopCli := srv.Background(), cli.Background()
				return func() { c.Quiesce(5 * time.Millisecond); stopCli(); stopSrv() }
			}
			connect := func(i, attempt int) (cqd, sqd QD) {
				t.Helper()
				cqd, err := c.Router().DialShard(cli, srv.Sharded, port, i, uint16(1000*i+attempt))
				if err != nil {
					t.Fatalf("shard %d dial %d: %v", i, attempt, err)
				}
				if sqd, err = libs[i].Accept(lqds[i]); err != nil {
					t.Fatalf("shard %d accept %d: %v", i, attempt, err)
				}
				return cqd, sqd
			}

			// Arm with nothing polling, so nothing sits in a NIC ring when
			// the node dies: the count below is operations only.
			qts := make([]QToken, len(libs))
			rings := make([]*uring.Pair, len(libs))
			sqds := make([]QD, len(libs))
			rest := polled()
			for i := range libs {
				_, sqds[i] = connect(i, 0)
			}
			rest()
			for i, lib := range libs {
				var err error
				if qts[i], err = lib.Pop(sqds[i]); err != nil {
					t.Fatal(err)
				}
				rings[i] = lib.AttachRing(4)
				if n, err := lib.SubmitBatch(rings[i], []uring.SQE{{Op: queue.OpPop, QD: int32(sqds[i]), Tag: 1}}); n != 1 || err != nil {
					t.Fatalf("shard %d ring pop: n=%d err=%v", i, n, err)
				}
			}
			aborted, err := srv.Crash()
			if err != nil || aborted != 2*len(libs) || !srv.Crashed() {
				t.Fatalf("Crash = %d, %v (crashed %v), want %d aborted", aborted, err, srv.Crashed(), 2*len(libs))
			}
			for i, lib := range libs {
				if comp, ok, err := lib.TryWait(qts[i]); !ok || err != nil || !errors.Is(comp.Err, ErrLocalReset) {
					t.Errorf("shard %d per-op pop after crash: %v, %v, %v", i, comp.Err, ok, err)
				}
				if _, _, err := lib.TryWait(qts[i]); !errors.Is(err, queue.ErrUnknownToken) {
					t.Errorf("shard %d per-op pop resolved twice: %v", i, err)
				}
				cqes := make([]uring.CQE, 4)
				if n := lib.HarvestCQ(rings[i], cqes); n != 1 || !errors.Is(cqes[0].Err, ErrLocalReset) {
					t.Errorf("shard %d ring pop after crash: %d CQEs, first %v", i, n, cqes[0].Err)
				}
			}

			if err := srv.Restart(); err != nil {
				t.Fatal(err)
			}
			rest = polled()
			for i, lib := range libs {
				cqd, sqd := connect(i, 1)
				echoOnce(t, cli, cqd, lib, sqd, "again")
			}
			rest()
			if err := c.Conservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
