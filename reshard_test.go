package demikernel

// Elastic resharding and live libOS switching, end to end:
//
//   - TestReshardUnderLoad is the acceptance run: a 4-shard KV node
//     (provisioned for 8) reshards to 8 and back down to 2 while a
//     failover-armed client hammers it, and not one client request is
//     allowed to fail (redials are fine; errors are not).
//   - TestChaosReshardUnderCrashRestart layers the lifecycle gauntlet
//     on top: reshard 2→4→3 interleaved with packet loss, an
//     asymmetric partition, and a full crash/restart of the server
//     node, then checks request and frame conservation across all
//     three generations.
//   - TestSwitchKindLive promotes a kernel-libOS node to the bypass
//     stack (and back) with an established connection carrying data
//     through the switch — zero drops — and, polled step by step, does
//     it again with a frame half decoded and a frame half sent.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/apps/failover"
	"demikernel/internal/apps/kv"
	"demikernel/internal/chaos"
	"demikernel/internal/fabric"
)

// reshardVal is the deterministic value for a key index: every write of
// key k carries the same bytes, so a lost-response/applied-anyway write
// can never make the final audit ambiguous.
func reshardVal(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 64+k) }

// reshardRig spins up an elastic sharded KV node and a failover-armed
// client whose redials stay valid across generations (a redial for a
// retired shard index re-targets an active shard; the server's mesh
// forwarding absorbs the misdirection).
type reshardRig struct {
	c       *Cluster
	srvNode *Node // the sharded server, as Spawn returned it
	cliNode *Node
	server  *kv.ShardedServer
	cli     *kv.ShardedClient
	port    uint16

	stopSrv func()
	stopCli func()
}

func newReshardRig(t testing.TB, seed int64, shards, capacity int, port uint16) *reshardRig {
	t.Helper()
	c := NewCluster(seed)
	srvNode := c.MustSpawn(Catnip, WithHost(1), WithShards(shards), WithShardCapacity(capacity))
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 6}))
	cliNode.WaitTimeout = 500 * time.Millisecond

	server := kv.NewShardedServerElastic(srvNode.Sharded.Libs, &c.Model, srvNode.Sharded.Mesh(), shards)
	srvNode.SetResharder(server)
	if err := server.Listen(port); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wg := server.Run(stop)
	var srvOnce sync.Once
	stopSrv := func() { srvOnce.Do(func() { close(stop); wg.Wait() }) }
	stopCliBg := cliNode.Background()
	var cliOnce sync.Once
	stopCli := func() { cliOnce.Do(stopCliBg) }

	r := &reshardRig{
		c: c, srvNode: srvNode, cliNode: cliNode, server: server,
		port: port, stopSrv: stopSrv, stopCli: stopCli,
	}
	cli, err := kv.NewShardedClient(cliNode.LibOS, shards, r.dialFn(0))
	if err != nil {
		stopSrv()
		stopCli()
		t.Fatal(err)
	}
	var seedCtr atomic.Uint32
	cli.EnableFailover(failover.Policy{MaxAttempts: 40, Base: time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.5, Seed: seed},
		func(shard, attempt int) (QD, error) {
			// Across a shrink the shard index may name a retired worker;
			// land on an active one instead — the mesh forwards the op.
			target := shard % r.srvNode.Shards()
			return c.Router().DialShard(cliNode, srvNode.Sharded, port, target,
				uint16(1000*shard+int(seedCtr.Add(1))*131+attempt*17))
		})
	r.cli = cli
	return r
}

// dialFn returns an aligned dialer for the server's CURRENT width.
func (r *reshardRig) dialFn(round int) func(i int) (QD, error) {
	return func(i int) (QD, error) {
		return r.c.Router().DialShard(r.cliNode, r.srvNode.Sharded, r.port, i,
			uint16(2000*i+31+round*257))
	}
}

func (r *reshardRig) close() {
	r.stopSrv()
	r.stopCli()
}

// TestReshardUnderLoad is the headline acceptance test: grow 4→8, then
// shrink 8→2, with client traffic running through both transitions and
// ZERO failed requests — the failover machinery may redial, but every
// Set and Get must ultimately succeed and return the right bytes.
func TestReshardUnderLoad(t *testing.T) {
	const keys = 64
	rig := newReshardRig(t, 91, 4, 8, 6380)
	defer rig.close()

	var ops, failed atomic.Int64
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			k := i % keys
			key := fmt.Sprintf("ek%03d", k)
			if _, err := rig.cli.Set(key, reshardVal(k)); err != nil {
				failed.Add(1)
				t.Errorf("Set %s failed: %v", key, err)
				return
			}
			got, _, found, err := rig.cli.Get(key)
			if err != nil {
				failed.Add(1)
				t.Errorf("Get %s failed: %v", key, err)
				return
			}
			if !found || !bytes.Equal(got, reshardVal(k)) {
				failed.Add(1)
				t.Errorf("Get %s returned wrong value (found=%v, %d bytes)", key, found, len(got))
				return
			}
			ops.Add(2)
		}
	}()

	// Let the steady state establish, then grow under load.
	waitOps := func(n int64) {
		deadline := time.Now().Add(20 * time.Second)
		base := ops.Load()
		for ops.Load()-base < n {
			if time.Now().After(deadline) {
				t.Fatalf("load stalled: %d ops total, %d failed", ops.Load(), failed.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitOps(100)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := rig.srvNode.Reshard(ctx, 8); err != nil {
		t.Fatalf("reshard 4→8: %v", err)
	}
	if got := rig.srvNode.Shards(); got != 8 {
		t.Fatalf("active shards after grow = %d, want 8", got)
	}
	waitOps(100) // traffic must flow on the 8-wide layout
	if err := rig.cli.Resize(8, rig.dialFn(1)); err != nil {
		t.Fatalf("client resize to 8: %v", err)
	}
	waitOps(100)

	if err := rig.srvNode.Reshard(ctx, 2); err != nil {
		t.Fatalf("reshard 8→2: %v", err)
	}
	waitOps(100) // traffic through the shrink, on stale client conns
	if err := rig.cli.Resize(2, rig.dialFn(2)); err != nil {
		t.Fatalf("client resize to 2: %v", err)
	}
	waitOps(100)
	close(stopLoad)
	loadWG.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d client requests failed across two reshards", failed.Load())
	}
	if gen := rig.srvNode.Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	if got := rig.server.Active(); got != 2 {
		t.Fatalf("server active width = %d, want 2", got)
	}

	// Key conservation: every key written exists exactly once with its
	// deterministic value, and the migration ledger balances.
	if got := rig.server.Len(); got != keys {
		t.Fatalf("store holds %d keys, want %d", got, keys)
	}
	var migOut, migIn, drops int64
	for i := 0; i < rig.server.Size(); i++ {
		st := rig.server.StatsOf(i)
		migOut += st.MigratedOut
		migIn += st.MigratedIn
		drops += st.ForwardDrops
	}
	if migOut == 0 {
		t.Fatal("no records migrated despite two reshards")
	}
	if migOut != migIn {
		t.Fatalf("migration ledger unbalanced: out=%d in=%d", migOut, migIn)
	}
	if drops != 0 {
		t.Fatalf("mesh dropped %d forwards", drops)
	}
	for k := 0; k < keys; k++ {
		got, _, found, err := rig.cli.Get(fmt.Sprintf("ek%03d", k))
		if err != nil || !found || !bytes.Equal(got, reshardVal(k)) {
			t.Fatalf("post-reshard audit: key %d err=%v found=%v", k, err, found)
		}
	}
	// On the final 2-wide aligned layout the keyspace must be owned by
	// the active shards only.
	for i := 2; i < rig.server.Size(); i++ {
		if st := rig.server.StatsOf(i); st.Keys != 0 {
			t.Fatalf("retired shard %d still owns %d keys", i, st.Keys)
		}
	}
}

// TestChaosReshardUnderCrashRestart drives reshard 2→4→3 through the
// full gauntlet: loss+corruption while growing, an asymmetric partition
// of the client's path, a crash and restart of the server node between
// the reshards, and a final audit of request and frame conservation.
// Typed failures are allowed while the world burns; silent corruption
// and untyped errors are not.
func TestChaosReshardUnderCrashRestart(t *testing.T) {
	const keys = 48
	rig := newReshardRig(t, 92, 2, 4, 6381)
	defer rig.close()

	fport := rig.cliNode.FabricPort()
	sport := rig.srvNode.FabricPort()
	eng := chaos.New(92).
		ImpairAll(0, rig.c.Switch, fabric.Impairments{LossRate: 0.02, CorruptRate: 0.05}).
		ImpairAll(50*time.Millisecond, rig.c.Switch, fabric.Impairments{}).
		AsymmetricPartition(70*time.Millisecond, 0, rig.c.Switch, fport, sport)
	eng.Start()
	// The schedule fires from the load loop's Step, which is fine for the
	// partition's start but not for its end: a Set that sits out the whole
	// window starts and heals it in one Step, nothing dropped in between,
	// and a Set caught by it holds the next Step back — and the partition
	// up — through all forty of its redials. So the partition heals itself,
	// 40 ms after its first drop.
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		for rig.c.Switch.Stats().AsymDrops == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(40 * time.Millisecond)
		rig.c.Switch.SetOneWayBlock(fport, sport, false)
	}()

	var successes, failures atomic.Int64
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			eng.Step()
			k := i % keys
			key := fmt.Sprintf("ck%03d", k)
			if _, err := rig.cli.Set(key, reshardVal(k)); err != nil {
				if !typedErr(err) {
					t.Errorf("set %d failed with untyped error: %v", i, err)
					return
				}
				failures.Add(1)
				continue
			}
			successes.Add(1)
		}
	}()

	waitProgress := func(n int64, what string) {
		deadline := time.Now().Add(30 * time.Second)
		base := successes.Load()
		for successes.Load()-base < n {
			if time.Now().After(deadline) {
				t.Fatalf("%s: load stalled (%d ok, %d typed failures)",
					what, successes.Load(), failures.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitProgress(40, "warmup")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rig.srvNode.Reshard(ctx, 4); err != nil {
		t.Fatalf("reshard 2→4 under impairment: %v", err)
	}
	waitProgress(40, "post-grow")

	// Kill and resurrect the server between generations. The store is
	// application state: it survives; connections and stacks do not.
	if _, err := rig.srvNode.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := rig.srvNode.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitProgress(40, "post-restart")

	if err := rig.srvNode.Reshard(ctx, 3); err != nil {
		t.Fatalf("reshard 4→3 after restart: %v", err)
	}
	waitProgress(40, "post-shrink")
	// A loss-free run through all of the above takes less wall time than
	// the partition's start: keep the load on until it has come and gone.
	select {
	case <-healed:
	case <-time.After(30 * time.Second):
		t.Fatalf("the partition never dropped a frame: fired %v", eng.Fired())
	}
	close(stopLoad)
	loadWG.Wait()
	if t.Failed() {
		return
	}

	// Chaos must have visibly engaged the recovery machinery. Whether a
	// given op surfaces a typed failure or is absorbed by a redial is
	// timing-dependent; what is NOT optional is that the crash forced
	// reconnects and the partition dropped frames.
	if rec, rep := rig.cli.FailoverStats(); rec == 0 || rep == 0 {
		t.Fatalf("crash/restart never engaged failover: reconnects=%d replays=%d (typed failures: %d)",
			rec, rep, failures.Load())
	}
	if rig.c.Switch.Stats().AsymDrops == 0 {
		t.Fatal("asymmetric partition dropped nothing")
	}
	if gen := rig.srvNode.Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}

	// Request conservation: re-audit every key through a fresh aligned
	// client at the final width. A lost-response write applied the same
	// deterministic bytes, so presence+equality is exact.
	if err := rig.cli.Resize(3, rig.dialFn(9)); err != nil {
		t.Fatalf("final client resize: %v", err)
	}
	written := 0
	for k := 0; k < keys; k++ {
		got, _, found, err := rig.cli.Get(fmt.Sprintf("ck%03d", k))
		if err != nil {
			t.Fatalf("final audit key %d: %v", k, err)
		}
		if found {
			written++
			if !bytes.Equal(got, reshardVal(k)) {
				t.Fatalf("key %d corrupted across generations", k)
			}
		}
	}
	if written == 0 {
		t.Fatal("no keys survived the gauntlet")
	}
	var migOut, migIn int64
	for i := 0; i < rig.server.Size(); i++ {
		st := rig.server.StatsOf(i)
		migOut += st.MigratedOut
		migIn += st.MigratedIn
	}
	if migOut != migIn {
		t.Fatalf("migration ledger unbalanced across crash: out=%d in=%d", migOut, migIn)
	}

	// Frame conservation across three generations and one incarnation
	// boundary. Quiesce, then read the laws.
	rig.c.Quiesce(200 * time.Millisecond)
	rig.close()
	if err := rig.c.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchKindLive promotes a catnap node to catnip and back with an
// established connection alive the whole time — including bytes pushed
// before the switch and popped after it. Zero dropped connections, and
// the virtual cost of the kernel tax visibly disappears on promotion.
// Then, polled step by step, the switch there and back lands in the
// middle of a frame each way, at offsets inside the 12-byte header (an
// 8-byte length and count, then the first segment's 4-byte length) and
// past it (switchMidFrame).
func TestSwitchKindLive(t *testing.T) {
	c := NewCluster(93)
	srv := c.MustSpawn(Catnap, WithHost(1))
	cli := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()

	echoOnce(t, cli, cqd, srv, sqd, "before the switch")

	// Push data into the established connection, THEN switch the server
	// onto the bypass stack: the bytes must ride through the migration.
	if _, err := cli.BlockingPush(cqd, NewSGA([]byte("in-flight across the switch"))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let the frame land in the kernel stack

	if err := srv.SwitchKind(Catnip); err != nil {
		t.Fatalf("promote catnap→catnip: %v", err)
	}
	if srv.Kind() != Catnip || srv.Catnip == nil || srv.Kernel != nil {
		t.Fatalf("promotion left the node in a mixed state: kind=%s", srv.Kind())
	}

	comp, err := srv.BlockingPop(sqd)
	if err != nil || comp.Err != nil {
		t.Fatalf("pop across the switch: %v %v", err, comp.Err)
	}
	if string(comp.SGA.Bytes()) != "in-flight across the switch" {
		t.Fatalf("in-flight bytes corrupted: %q", comp.SGA.Bytes())
	}
	echoOnce(t, cli, cqd, srv, sqd, "on the bypass stack")

	// The promoted node must no longer pay kernel costs: the whole
	// syscall surface now goes straight to the user-level stack.
	if srv.Kernel != nil {
		t.Fatal("kernel survived promotion")
	}

	// And back down: the same connection demotes onto a fresh kernel.
	if err := srv.SwitchKind(Catnap); err != nil {
		t.Fatalf("demote catnip→catnap: %v", err)
	}
	if srv.Kind() != Catnap || srv.Kernel == nil || srv.Catnip != nil {
		t.Fatalf("demotion left the node in a mixed state: kind=%s", srv.Kind())
	}
	echoOnce(t, cli, cqd, srv, sqd, "back on the kernel path")
	if ctr := srv.Kernel.Counters(); ctr.SyscallCrossings == 0 {
		t.Fatalf("demoted node never crossed the kernel: %+v", ctr)
	}

	// Idempotence and gating.
	if err := srv.SwitchKind(Catnap); err != nil {
		t.Fatalf("no-op switch: %v", err)
	}

	for _, k := range []int{1, 8, 11, 12, 15, 19, 300} {
		t.Run(fmt.Sprint("mid-frame at byte ", k), func(t *testing.T) { switchMidFrame(t, k) })
	}
}

// switchMidFrame switches a catnap server to catnip and back while it has
// decoded the first k bytes of a frame from its client and sent the first k
// bytes of a frame of its own. Nothing is polled but by the test: each side
// sends a filler that ends k bytes before its first flight does — the
// client's initial congestion window of two 1 400-byte segments, the
// server's 256 KiB send buffer — then a frame of two segments, then one
// more. Every message arrives once, intact and in order, and every push
// completes.
func switchMidFrame(t *testing.T, k int) {
	const cwnd, sendBuf, header = 2 * 1400, 256 << 10, 12
	c := NewCluster(93)
	srv := c.MustSpawn(Catnap, WithHost(1))
	cli := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, stopPollers := connectNodes(t, c, cli, srv, 80)
	stopPollers()

	msgs := func(flight int, salt byte) []SGA {
		return []SGA{
			NewSGA(bytes.Repeat([]byte{salt}, flight-k-header)),
			NewSGA([]byte("seg-0"), bytes.Repeat([]byte{salt + 1}, 300)),
			NewSGA([]byte("after the switches")),
		}
	}
	up, down := msgs(cwnd, 'a'), msgs(sendBuf, 'x')
	var srvPops, cliPops, pushes []QToken
	keep := func(qt QToken, err error, to *[]QToken) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		*to = append(*to, qt)
	}
	for range up {
		qt, err := srv.Pop(sqd)
		keep(qt, err, &srvPops)
	}
	for _, m := range up {
		qt, err := cli.Push(cqd, m)
		keep(qt, err, &pushes)
	}
	for _, m := range down {
		qt, err := srv.Push(sqd, m)
		keep(qt, err, &pushes)
	}
	// The client's first flight: the filler, and k bytes of the frame
	// behind it.
	srv.Poll()
	// done reports whether qt has completed, and consumes it if so.
	done := func(n *Node, qt QToken) bool {
		_, ok, err := n.TryWait(qt)
		return ok || err != nil
	}
	if done(srv, srvPops[1]) {
		t.Fatal("set-up: the first flight did not end inside the second frame")
	}

	if err := srv.SwitchKind(Catnip); err != nil {
		t.Fatal(err)
	}
	cli.Poll() // a step on the bypass path: ACKs, and more of each stream
	srv.Poll()
	if err := srv.SwitchKind(Catnap); err != nil {
		t.Fatal(err)
	}

	for range down {
		qt, err := cli.Pop(cqd)
		keep(qt, err, &cliPops)
	}
	// arrived polls both nodes until each pop in qts has completed with its
	// message, in order.
	arrived := func(n *Node, qts []QToken, want []SGA) {
		t.Helper()
		for i, qt := range qts {
			for polls := 0; ; polls++ {
				comp, ok, err := n.TryWait(qt)
				if err != nil || (ok && comp.Err != nil) {
					t.Fatalf("pop %d: %v %v", i, err, comp.Err)
				}
				if ok {
					if !comp.SGA.Equal(want[i]) {
						t.Fatalf("message %d arrived as %d bytes in %d segments, want %d in %d",
							i, comp.SGA.Len(), len(comp.SGA.Segments), want[i].Len(), len(want[i].Segments))
					}
					comp.SGA.Free()
					break
				}
				if polls == 100_000 {
					t.Fatalf("message %d never arrived", i)
				}
				cli.Poll()
				srv.Poll()
			}
		}
	}
	arrived(srv, srvPops, up)
	arrived(cli, cliPops, down)
	for i, qt := range pushes {
		owner := cli
		if i >= len(up) {
			owner = srv
		}
		if comp, ok, err := owner.TryWait(qt); !ok || err != nil || comp.Err != nil {
			t.Fatalf("push %d: completed %v with %v %v", i, ok, err, comp.Err)
		}
	}
	// Once: nothing more arrives on either side.
	extraS, errS := srv.Pop(sqd)
	extraC, errC := cli.Pop(cqd)
	if errS != nil || errC != nil {
		t.Fatal(errS, errC)
	}
	for i := 0; i < 100; i++ {
		cli.Poll()
		srv.Poll()
	}
	if done(srv, extraS) || done(cli, extraC) {
		t.Fatal("a message arrived twice")
	}
}
