package demikernel

// Spawn API tests: the unified construction surface must honor its
// options, reject nonsense kinds and kind/option mismatches with errors
// (not panics), and every spawned shape must carry the full *Node
// surface (the per-kind constructors are gone; Spawn is the only door).

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/queue"
	"demikernel/internal/telemetry"
	"demikernel/internal/uring"
)

func TestSpawnHonorsOptions(t *testing.T) {
	c := NewCluster(71)
	reg := telemetry.NewRegistry()
	n := c.MustSpawn(Catnip,
		WithConfig(NodeConfig{RTO: 3 * time.Millisecond, MaxRetransmits: 2}),
		WithHost(7), // later WithHost wins over WithConfig's Host
		WithTelemetry(reg),
	)
	if n.Catnip == nil || n.Sharded == nil || len(n.Libs()) != 1 || n.Shards() != 1 {
		t.Fatalf("spawned the wrong shape: %+v", n)
	}
	if n.IP != c.ip(7) || n.MAC != c.mac(7) {
		t.Fatalf("WithHost lost to WithConfig: ip=%v mac=%v", n.IP, n.MAC)
	}
	if len(reg.Snapshot().Samples) == 0 {
		t.Fatal("WithTelemetry registered nothing")
	}

	sharded := c.MustSpawn(Catnip, WithHost(8), WithShards(4))
	if len(sharded.Libs()) != 4 || sharded.Shards() != 4 {
		t.Fatalf("WithShards(4) produced %+v", sharded.Sharded)
	}

	// Every node of every kind has its one clock from spawn, shared by
	// all its libOSes, and SwitchKind keeps it.
	for i, k := range []Kind{Catnip, Catnap, Catmint, Catfish} {
		if m := c.MustSpawn(k, WithHost(byte(9+i))); m.Clock() == nil {
			t.Errorf("a %s node has no clock", k)
		}
	}
	for i, l := range sharded.Libs() {
		if l.Clock() != sharded.Clock() {
			t.Errorf("shard %d reads a clock of its own", i)
		}
	}
	clock := n.Clock()
	for _, k := range []Kind{Catnap, Catnip} {
		if err := n.SwitchKind(k); err != nil {
			t.Fatal(err)
		}
		if n.Clock() != clock {
			t.Fatalf("SwitchKind to %s changed the node's clock", k)
		}
	}
}

// WithTelemetry gives every shard of a sharded node the names an
// unsharded node gets — everything beside the NIC, which the shards share
// — so ring traffic on a sharded server is as visible as on a plain one;
// and nothing else but its mesh rows, so the two shapes stay one. Which
// of the two a node is goes by its capacity: WithShards(1) is the plain
// node, flat names and process-wide frame pool included.
func TestSpawnWithTelemetryShardedShape(t *testing.T) {
	c := NewCluster(73)
	reg := telemetry.NewRegistry()
	plain := c.MustSpawn(Catnip, WithHost(1), WithTelemetry(reg))
	sharded := c.MustSpawn(Catnip, WithHost(2), WithShards(2), WithTelemetry(reg))
	one := c.MustSpawn(Catnip, WithHost(3), WithShards(1), WithTelemetry(reg))
	if plain.Catnip.Pool() != fabric.DefaultFramePool || one.Catnip.Pool() != fabric.DefaultFramePool {
		t.Error("a catnip node of one shard left the process-wide frame pool")
	}
	if sharded.Catnip.Pool() == fabric.DefaultFramePool {
		t.Error("a shard of two shares the process-wide frame pool")
	}

	// One ring operation per shard: a push to a memory queue.
	for _, l := range sharded.Libs() {
		p, qd := l.AttachRing(8), l.Queue()
		if n, err := l.SubmitBatch(p, []uring.SQE{{Op: queue.OpPush, QD: int32(qd), SGA: NewSGA([]byte("x"))}}); n != 1 || err != nil {
			t.Fatalf("submit: n=%d err=%v", n, err)
		}
	}
	snap := reg.Snapshot()
	// names lists, in registry order, what is registered under prefix,
	// less the names that begin with except.
	names := func(prefix, except string) (out []string) {
		for _, sm := range snap.Samples {
			if name, ok := strings.CutPrefix(sm.Name, prefix); ok && (except == "" || !strings.HasPrefix(name, except)) {
				out = append(out, name)
			}
		}
		return out
	}
	if got, want := names("host3.", ""), names("host1.", ""); !slices.Equal(got, want) {
		t.Errorf("WithShards(1) registers %v, no option %v", got, want)
	}
	for i := range sharded.Libs() {
		prefix := fmt.Sprintf("host2.shard.%d.", i)
		if v, _ := snap.Get(prefix + "uring.sq_posted"); v != 1 {
			t.Errorf("%suring.sq_posted = %d after one ring op, want 1", prefix, v)
		}
		if got, want := names(prefix, "xs_"), names("host1.", "nic."); !slices.Equal(got, want) {
			t.Errorf("beside its mesh rows %s* registers %v, a plain node beside its NIC %v", prefix, got, want)
		}
	}
}

func TestSpawnRejectsBadRequests(t *testing.T) {
	c := NewCluster(72)
	if _, err := c.Spawn(Kind("catzilla"), WithHost(1)); err == nil {
		t.Fatal("unknown kind spawned")
	}
	if _, err := c.Spawn(Catmint, WithHost(1), WithShards(2)); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("WithShards on catmint = %v, want ErrNotSupported", err)
	}
}

// Every spawned shape reports its kind and shard width, and refuses the
// reconfigurations it cannot do (TestNodeShapesShareLifecycle crashes and
// restarts them).
func TestSpawnShapesSatisfyInstance(t *testing.T) {
	c := NewCluster(73)

	nip := c.MustSpawn(Catnip, WithConfig(NodeConfig{Host: 1}))
	if nip.Catnip == nil || nip.IP != c.ip(1) {
		t.Fatalf("catnip shape: %+v", nip)
	}
	nap := c.MustSpawn(Catnap, WithConfig(NodeConfig{Host: 2}))
	if nap.Kernel == nil {
		t.Fatal("catnap spawned no kernel")
	}
	mint := c.MustSpawn(Catmint, WithConfig(NodeConfig{Host: 3}))
	if mint.Catmint == nil {
		t.Fatal("catmint spawned no RDMA transport")
	}
	fish, err := c.Spawn(Catfish, WithBlocks(64))
	if err != nil || fish.Catfish == nil {
		t.Fatalf("catfish: %v %+v", err, fish)
	}
	sharded := c.MustSpawn(Catnip, WithHost(4), WithShards(2))

	for _, tc := range []struct {
		node   *Node
		kind   Kind
		shards int
	}{
		{nip, Catnip, 1},
		{nap, Catnap, 1},
		{mint, Catmint, 1},
		{fish, Catfish, 1},
		{sharded, Catnip, 2},
	} {
		if tc.node.Kind() != tc.kind || tc.node.Shards() != tc.shards || len(tc.node.Libs()) != tc.shards {
			t.Fatalf("node reports kind=%s shards=%d libs=%d, want %s/%d",
				tc.node.Kind(), tc.node.Shards(), len(tc.node.Libs()), tc.kind, tc.shards)
		}
		if tc.node.Generation() != 0 {
			t.Fatalf("fresh node at generation %d", tc.node.Generation())
		}
		if (tc.node.Sharded != nil) != (tc.kind == Catnip) {
			t.Fatalf("%s node: Sharded set = %v", tc.kind, tc.node.Sharded != nil)
		}
	}

	// Reshard is bounded by capacity on every catnip node and gated to
	// them, SwitchKind to Catnap/Catnip nodes of one libOS.
	if err := nip.Reshard(t.Context(), 2); err == nil || errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("Reshard past a plain node's capacity = %v, want a range error", err)
	}
	if err := nip.Reshard(t.Context(), 1); err != nil {
		t.Fatalf("Reshard of a plain node to its own width: %v", err)
	}
	if err := nap.Reshard(t.Context(), 1); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("Reshard on catnap node = %v, want ErrNotSupported", err)
	}
	if err := sharded.SwitchKind(Catnap); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("SwitchKind on sharded node = %v, want ErrNotSupported", err)
	}
	if err := mint.SwitchKind(Catnip); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("SwitchKind catmint→catnip = %v, want ErrNotSupported", err)
	}
}
