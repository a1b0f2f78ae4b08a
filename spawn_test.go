package demikernel

// Spawn API tests: the unified construction surface must honor its
// options, reject nonsense kinds and kind/option mismatches with errors
// (not panics), and every spawned shape must carry the full Instance
// surface (the per-kind constructors are gone; Spawn is the only door).

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"demikernel/internal/core"
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
		WithLifecycle(),
	)
	if n.Catnip == nil || n.Sharded != nil {
		t.Fatalf("spawned the wrong shape: %+v", n)
	}
	if n.IP != c.ip(7) || n.MAC != c.mac(7) {
		t.Fatalf("WithHost lost to WithConfig: ip=%v mac=%v", n.IP, n.MAC)
	}
	if n.Clock == nil {
		t.Fatal("WithLifecycle attached no drift clock")
	}
	if len(reg.Snapshot().Samples) == 0 {
		t.Fatal("WithTelemetry registered nothing")
	}

	sharded := c.MustSpawn(Catnip, WithHost(8), WithShards(4))
	if sharded.Sharded == nil || sharded.Sharded.Size() != 4 {
		t.Fatalf("WithShards(4) produced %+v", sharded.Sharded)
	}
	if sharded.Catnip != sharded.Sharded.Set.Shard(0) {
		t.Fatal("sharded node's Catnip is not shard 0")
	}
}

// WithTelemetry gives every shard of a sharded node the names an
// unsharded node gets — everything beside the NIC, which the shards share
// — so ring traffic on a sharded server is as visible as on a plain one.
func TestSpawnWithTelemetryShardedShape(t *testing.T) {
	c := NewCluster(73)
	reg := telemetry.NewRegistry()
	c.MustSpawn(Catnip, WithHost(1), WithTelemetry(reg))
	sharded := c.MustSpawn(Catnip, WithHost(2), WithShards(2), WithTelemetry(reg))

	// One ring operation per shard: a push to a memory queue.
	for _, l := range sharded.Sharded.Libs {
		p, qd := l.AttachRing(8), l.Queue()
		if n, err := l.SubmitBatch(p, []uring.SQE{{Op: queue.OpPush, QD: int32(qd), SGA: NewSGA([]byte("x"))}}); n != 1 || err != nil {
			t.Fatalf("submit: n=%d err=%v", n, err)
		}
		l.Poll()
	}
	snap := reg.Snapshot()
	for i := range sharded.Sharded.Libs {
		prefix := fmt.Sprintf("host2.shard.%d.", i)
		if v, _ := snap.Get(prefix + "uring.sq_posted"); v != 1 {
			t.Errorf("%suring.sq_posted = %d after one ring op, want 1", prefix, v)
		}
		for _, sm := range snap.Samples {
			suffix, plain := strings.CutPrefix(sm.Name, "host1.")
			if !plain || strings.HasPrefix(suffix, "nic.") {
				continue
			}
			if _, ok := snap.Get(prefix + suffix); !ok {
				t.Errorf("host1.%s has no %s%s", suffix, prefix, suffix)
			}
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

// Every spawned shape satisfies Instance, reports its kind and shard
// width, and carries the lifecycle surface.
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
	if sharded.Sharded == nil || sharded.Sharded.Size() != 2 {
		t.Fatalf("sharded shape: %+v", sharded.Sharded)
	}

	// The unified Instance surface reports each shape faithfully.
	for _, tc := range []struct {
		inst   Instance
		kind   Kind
		shards int
	}{
		{nip, Catnip, 1},
		{nap, Catnap, 1},
		{mint, Catmint, 1},
		{fish, Catfish, 1},
		{sharded, Catnip, 2},
	} {
		if tc.inst.Kind() != tc.kind || tc.inst.Shards() != tc.shards {
			t.Fatalf("Instance reports kind=%s shards=%d, want %s/%d",
				tc.inst.Kind(), tc.inst.Shards(), tc.kind, tc.shards)
		}
		if tc.inst.Generation() != 0 {
			t.Fatalf("fresh instance at generation %d", tc.inst.Generation())
		}
	}

	// Reshard is gated to sharded runtimes, SwitchKind to Catnap/Catnip.
	if err := nip.Reshard(t.Context(), 2); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("Reshard on unsharded node = %v, want ErrNotSupported", err)
	}
	if err := sharded.SwitchKind(Catnap); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("SwitchKind on sharded node = %v, want ErrNotSupported", err)
	}
	if err := mint.SwitchKind(Catnip); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("SwitchKind catmint→catnip = %v, want ErrNotSupported", err)
	}

	// A spawned node still has the full lifecycle surface.
	if _, err := nip.Crash(); err != nil {
		t.Fatalf("Crash on spawned node: %v", err)
	}
	if err := nip.Restart(); err != nil {
		t.Fatalf("Restart on spawned node: %v", err)
	}
}
