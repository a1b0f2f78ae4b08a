package experiments

import (
	"fmt"

	demi "demikernel"
	"demikernel/internal/apps/kv"
	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
)

// ShardScalePoint is one point of the multi-core scaling curve: an
// RSS-sharded KV server with Shards workers, driven by an aligned
// client, measured in virtual time.
//
// Real wall-clock scaling cannot be measured here — the simulation runs
// on however many cores the host happens to have — so the curve uses the
// cost model the same way every experiment does: each shard accumulates
// the modeled single-core cost of the work it executed (syscall, user
// netstack, NIC processing, application compute per request). A
// deployment pins one shard per core, so aggregate throughput is gated
// by the busiest shard: Throughput = TotalOps / max_i busy_i.
type ShardScalePoint struct {
	Shards       int
	Ops          int64   // requests served across all shards
	MaxBusyVirtM float64 // busiest shard's virtual busy time, ms
	ThroughputK  float64 // virtual kOps/s = Ops / max busy
	ForwardedOut int64   // mesh forwards (0 when the client is aligned)
}

// RunShardScale measures one scaling point. aligned selects whether the
// client routes each key over its owning shard's connection (the RSS
// partition working as designed) or sprays every request over shard 0's
// connection (forcing the mesh-forward slow path).
func RunShardScale(seed int64, shards, setsGets int, aligned bool) (ShardScalePoint, error) {
	rig, err := NewKVRig(demi.NewCluster(seed), demi.Catnip, shards, shards, 6379)
	if err != nil {
		return ShardScalePoint{}, err
	}
	defer rig.Close()
	if err := rig.SetGet("bench-key", setsGets, setsGets, aligned, nil); err != nil {
		return ShardScalePoint{}, err
	}
	server := rig.Server

	p := ShardScalePoint{Shards: shards, Ops: server.TotalOps()}
	var maxBusy int64
	for i := 0; i < shards; i++ {
		if b := server.BusyVirt(i); b > maxBusy {
			maxBusy = b
		}
		p.ForwardedOut += server.StatsOf(i).ForwardedOut
	}
	p.MaxBusyVirtM = float64(maxBusy) / 1e6
	if maxBusy > 0 {
		p.ThroughputK = float64(p.Ops) / (float64(maxBusy) / 1e9) / 1e3
	}
	return p, nil
}

// KVRig is a KV server node, served, and a client of it with one
// connection per active shard: every KV experiment's rig and
// `demi-stat -rig kv|reshard`'s.
type KVRig struct {
	SrvNode *demi.Node
	Server  *kv.ShardedServer
	Client  *kv.ShardedClient
	Close   func()
}

// NewKVRig spawns a kind server node of shards active shards within
// capacity on c (host 1; only catnip takes more than one) and a plain kind
// client node (host 2), both with opts, serves KV on port over every libOS
// of the first — as its resharder — and dials each active shard from the
// second.
func NewKVRig(c *demi.Cluster, kind demi.Kind, shards, capacity int, port uint16, opts ...demi.SpawnOption) (*KVRig, error) {
	srvNode, err := c.Spawn(kind, append([]demi.SpawnOption{demi.WithHost(1), demi.WithShards(shards), demi.WithShardCapacity(capacity)}, opts...)...)
	if err != nil {
		return nil, err
	}
	cliNode, err := c.Spawn(kind, append([]demi.SpawnOption{demi.WithHost(2)}, opts...)...)
	if err != nil {
		return nil, err
	}
	server, stopSrv, err := kv.Serve(srvNode.Libs(), srvNode.Mesh(), srvNode.Shards(), &c.Model, port)
	if err != nil {
		return nil, err
	}
	srvNode.SetResharder(server)
	client, stopCli, err := kv.Dial(cliNode.LibOS, srvNode.Shards(), c.Router().Dialer(cliNode, srvNode, port))
	if err != nil {
		stopSrv()
		return nil, err
	}
	return &KVRig{SrvNode: srvNode, Server: server, Client: client, Close: func() { stopCli(); stopSrv() }}, nil
}

// SetGet issues n SET+GET pairs of 32 B values, pair i on key
// prefix-(i mod keys), and requires every GET to find its key. A request
// travels over its key's owning shard, or, unless aligned, over shard 0's
// connection whatever the key. costs, when not nil, collects each SET's
// virtual cost.
func (r *KVRig) SetGet(prefix string, n, keys int, aligned bool, costs *[]simclock.Lat) error {
	val := []byte("0123456789abcdef0123456789abcdef")
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-%04d", prefix, i%keys)
		via := 0
		if aligned {
			via = kv.KeyShard(key, r.Client.Shards())
		}
		cost, err := r.Client.SetOn(via, key, val)
		if err != nil {
			return fmt.Errorf("set %s: %w", key, err)
		}
		if costs != nil {
			*costs = append(*costs, cost)
		}
		if _, found, err := r.Client.GetOn(via, key); err != nil || !found {
			return fmt.Errorf("get %s: found=%v err=%w", key, found, err)
		}
	}
	return nil
}

// runE14 reproduces the §3.1 scale-out claim: a share-nothing sharded
// server scales with cores because nothing on the per-request path is
// shared — and mis-partitioned work (requests landing on the wrong
// shard) erodes exactly that advantage.
func runE14(seed int64) (*Result, error) {
	res := &Result{}
	tbl := metrics.NewTable("Multi-core scaling: RSS-sharded KV (virtual time)",
		"shards", "ops", "busiest shard (ms)", "kOps/s (virtual)", "speedup", "mesh forwards")

	const setsGets = 256
	var points []ShardScalePoint
	for _, n := range []int{1, 2, 4, 8} {
		p, err := RunShardScale(seed, n, setsGets, true)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		points = append(points, p)
	}
	base := points[0].ThroughputK
	for _, p := range points {
		tbl.AddRow(p.Shards, p.Ops, fmt.Sprintf("%.3f", p.MaxBusyVirtM),
			fmt.Sprintf("%.1f", p.ThroughputK), fmt.Sprintf("%.2fx", p.ThroughputK/base), p.ForwardedOut)
	}
	res.Tables = append(res.Tables, tbl)

	// The counter-case: every request arrives at shard 0 and rides the
	// mesh to its owner.
	mis, err := RunShardScale(seed, 4, setsGets, false)
	if err != nil {
		return nil, fmt.Errorf("misdirected: %w", err)
	}
	mtbl := metrics.NewTable("Mis-partitioned counter-case (4 shards, all requests via shard 0)",
		"client", "kOps/s (virtual)", "mesh forwards")
	aligned4 := points[2]
	mtbl.AddRow("aligned (RSS-partitioned)", fmt.Sprintf("%.1f", aligned4.ThroughputK), aligned4.ForwardedOut)
	mtbl.AddRow("misdirected (all via shard 0)", fmt.Sprintf("%.1f", mis.ThroughputK), mis.ForwardedOut)
	res.Tables = append(res.Tables, mtbl)

	speedup4 := points[2].ThroughputK / base
	res.check("4-shard speedup >= 2.5x", speedup4 >= 2.5,
		"4 shards reach %.2fx the 1-shard virtual throughput (floor 2.5x)", speedup4)
	mono := points[1].ThroughputK > points[0].ThroughputK &&
		points[2].ThroughputK > points[1].ThroughputK &&
		points[3].ThroughputK > points[2].ThroughputK
	res.check("throughput grows with shard count", mono,
		"1->2->4->8 shards: %.1f -> %.1f -> %.1f -> %.1f kOps/s",
		points[0].ThroughputK, points[1].ThroughputK, points[2].ThroughputK, points[3].ThroughputK)
	var fwd int64
	for _, p := range points {
		fwd += p.ForwardedOut
	}
	res.check("aligned clients never cross the mesh", fwd == 0,
		"total mesh forwards under aligned load = %d", fwd)
	res.check("misdirection costs throughput", mis.ThroughputK < aligned4.ThroughputK && mis.ForwardedOut > 0,
		"aligned %.1f vs misdirected %.1f kOps/s (%d forwards)",
		aligned4.ThroughputK, mis.ThroughputK, mis.ForwardedOut)
	return res, nil
}
