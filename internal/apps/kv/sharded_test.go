package kv

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/failover"
	"demikernel/internal/telemetry"
)

func TestKeyShardPartition(t *testing.T) {
	// Deterministic, full-range, and roughly balanced.
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		s := KeyShard(fmt.Sprintf("key-%d", i), 4)
		if s < 0 || s >= 4 {
			t.Fatalf("KeyShard out of range: %d", s)
		}
		counts[s]++
	}
	for i, n := range counts {
		if n < 600 || n > 1400 {
			t.Fatalf("shard %d owns %d of 4000 keys: partition too skewed", i, n)
		}
	}
	if KeyShard("anything", 1) != 0 || KeyShard("anything", 0) != 0 {
		t.Fatal("degenerate shard counts must map to 0")
	}
}

// TestShardedKVAligned drives an RSS-aligned workload: every request
// travels over the connection of its key's owning shard, so no request
// should ever cross the mesh.
func TestShardedKVAligned(t *testing.T) {
	h := newHarness(t, demi.Catnip, 4, 1)

	const n = 64
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if _, err := h.client.Set(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
	}
	if got := h.server.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, _, found, err := h.client.Get(k)
		if err != nil || !found {
			t.Fatalf("get %s: found=%v err=%v", k, found, err)
		}
		if want := []byte(fmt.Sprintf("val-%d", i)); !bytes.Equal(v, want) {
			t.Fatalf("get %s = %q, want %q", k, v, want)
		}
	}

	// Share-nothing checks: ops landed on every shard, keys live on
	// their owners, and the mesh stayed silent.
	totalOps, totalKeys := int64(0), int64(0)
	for i := 0; i < h.server.Size(); i++ {
		s := h.server.StatsOf(i)
		if s.ForwardedOut != 0 || s.ForwardedIn != 0 {
			t.Fatalf("shard %d forwarded (out=%d in=%d) under an aligned workload", i, s.ForwardedOut, s.ForwardedIn)
		}
		if s.Connections != 1 {
			t.Fatalf("shard %d accepted %d conns, want exactly its own", i, s.Connections)
		}
		if s.Gets == 0 || s.Sets == 0 {
			t.Fatalf("shard %d served no traffic: RSS alignment is broken (stats=%+v)", i, s)
		}
		if s.BusyVirtNS == 0 {
			t.Fatalf("shard %d accumulated no virtual busy time", i)
		}
		totalOps += s.Gets + s.Sets
		totalKeys += s.Keys
	}
	if totalOps != 2*n {
		t.Fatalf("total ops = %d, want %d", totalOps, 2*n)
	}
	if totalKeys != n {
		t.Fatalf("total keys = %d, want %d", totalKeys, n)
	}

	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("key-%d", i)
		if found, err := h.client.Del(k); err != nil || !found {
			t.Fatalf("del %s: found=%v err=%v", k, found, err)
		}
	}
}

// TestShardedKVForwarding sends requests over deliberately wrong
// connections: the receiving shard must relay them across the mesh to
// the owner and return the owner's answer.
func TestShardedKVForwarding(t *testing.T) {
	h := newHarness(t, demi.Catnip, 4, 2)

	const n = 32
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("fwd-%d", i)
		wrong := (KeyShard(k, 4) + 1) % 4
		if _, err := h.client.SetOn(wrong, k, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("misdirected set %s: %v", k, err)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("fwd-%d", i)
		wrong := (KeyShard(k, 4) + 2) % 4
		v, found, err := h.client.GetOn(wrong, k)
		if err != nil || !found {
			t.Fatalf("misdirected get %s: found=%v err=%v", k, found, err)
		}
		if want := []byte(fmt.Sprintf("v-%d", i)); !bytes.Equal(v, want) {
			t.Fatalf("misdirected get %s = %q, want %q", k, v, want)
		}
	}

	var out, in, drops int64
	for i := 0; i < 4; i++ {
		s := h.server.StatsOf(i)
		out += s.ForwardedOut
		in += s.ForwardedIn
		drops += s.ForwardDrops
	}
	if out != 2*n || in != 2*n {
		t.Fatalf("forwards out=%d in=%d, want both %d", out, in, 2*n)
	}
	if drops != 0 {
		t.Fatalf("forward drops = %d in a healthy run", drops)
	}
	// Keys must live on their owners regardless of the arrival shard.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("fwd-%d", i)
		owner := KeyShard(k, 4)
		if h.server.StatsOf(owner).Keys == 0 {
			t.Fatalf("owner shard %d of %s holds no keys", owner, k)
		}
	}
	// And a direct aligned read still sees the forwarded write.
	v, _, found, err := h.client.Get("fwd-0")
	if err != nil || !found || !bytes.Equal(v, []byte("v-0")) {
		t.Fatalf("aligned read of forwarded write: %q found=%v err=%v", v, found, err)
	}
}

// TestShardedKVTelemetry spot-checks the per-shard registry surface
// demi-stat's shard.* roll-up relies on.
func TestShardedKVTelemetry(t *testing.T) {
	h := newHarness(t, demi.Catnip, 2, 3)
	if _, err := h.client.Set("a", []byte("1")); err != nil {
		t.Fatalf("set: %v", err)
	}

	reg := telemetry.NewRegistry()
	h.node.RegisterTelemetry(reg, "demi")
	h.server.RegisterTelemetry(reg, "demi.shard")
	snap := reg.Snapshot()
	for _, name := range []string{
		"demi.nic.rx_frames",
		"demi.shard.0.netstack.frames_in",
		"demi.shard.1.netstack.frames_in",
		"demi.shard.0.xs_sent",
		"demi.shard." + fmt.Sprint(KeyShard("a", 2)) + ".kv_sets",
		"demi.shard.0.completer.wakeups",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("telemetry missing %q; have:\n%s", name, snap.String())
		}
	}
	shardIdx := KeyShard("a", 2)
	if v, _ := snap.Get(fmt.Sprintf("demi.shard.%d.kv_sets", shardIdx)); v != 1 {
		t.Fatalf("kv_sets = %d, want 1", v)
	}
}

// TestShardedClientResizeUnderOps shrinks and regrows the client while
// another goroutine runs ops. A shrink closes surplus connections, and an
// op that took one of them a moment earlier finds its descriptor gone:
// that is a dead connection to replay past, never a failed request.
func TestShardedClientResizeUnderOps(t *testing.T) {
	h := newHarness(t, demi.Catnip, 4, 7)
	var dials atomic.Uint32
	dial := func(i int) (demi.QD, error) {
		return h.cluster.Router().DialShard(h.cliNode, h.node.Sharded, 6379, i,
			uint16(2000*i+31+int(dials.Add(1))*67))
	}
	h.client.EnableFailover(failover.Policy{MaxAttempts: 20, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 7},
		func(shard, _ int) (demi.QD, error) { return dial(shard) })

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			k := fmt.Sprintf("key-%d", i%32)
			if _, err := h.client.Set(k, []byte(k)); err != nil {
				done <- fmt.Errorf("set %s: %w", k, err)
				return
			}
			if v, _, found, err := h.client.Get(k); err != nil || !found || string(v) != k {
				done <- fmt.Errorf("get %s = %q, found=%v: %v", k, v, found, err)
				return
			}
		}
	}()
	for r := 0; r < 60; r++ {
		for _, n := range []int{2, 4} {
			if err := h.client.Resize(n, dial); err != nil {
				t.Fatalf("round %d: resize to %d: %v", r, n, err)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
