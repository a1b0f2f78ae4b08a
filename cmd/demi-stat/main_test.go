package main

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/telemetry"
)

// TestEveryRig runs each rig at a small n: it must return nil (the laws
// held), print the law result, and move a name that only it moves.
func TestEveryRig(t *testing.T) {
	const n = 60 // not a multiple of the ring rig's batch of 8
	for _, tc := range []struct{ rig, moves, still string }{
		// The per-op token path submits nothing to a ring.
		{"echo", "host2.netstack.tcp_segs_sent", "host2.uring.sq_posted"},
		{"ring", "host2.uring.sq_posted", ""},
		{"chaos", "host1.lifecycle.crashes", ""},
		{"kv", "host1.shard.*.kv_sets", ""},
		{"reshard", "host1.shard.kv_gen", ""},
		{"http", "host1.shard.*.httpd.requests", ""},
		{"tenants", "tenant.mal.", ""},
		{"storage", "lookup.pushdown.crossings", ""},
	} {
		t.Run(tc.rig, func(t *testing.T) {
			var b strings.Builder
			if err := observe(&b, rigs[tc.rig], n, 1, ""); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, "\nlaws: ") {
				t.Fatalf("no law result in:\n%s", out)
			}
			if !strings.Contains(out, "\n"+tc.moves) {
				t.Fatalf("%q did not move:\n%s", tc.moves, out)
			}
			if tc.still != "" && strings.Contains(out, "\n"+tc.still) {
				t.Fatalf("%q moved:\n%s", tc.still, out)
			}
			if tc.rig != "ring" {
				return
			}
			// A round trip is two ring operations, a push and a pop.
			m := regexp.MustCompile(`\nhost2\.uring\.sq_posted +(\d+)\n`).FindStringSubmatch(out)
			if got, _ := strconv.Atoi(m[1]); got != 2*n {
				t.Fatalf("client ring took %d operations, want %d for %d round trips", got, 2*n, n)
			}
		})
	}
}

func TestRollupSumsShards(t *testing.T) {
	got := rollup(telemetry.Snapshot{Samples: []telemetry.Sample{
		{Name: "fabric.delivered", Value: 9},
		{Name: "host1.shard.0.kv_sets", Value: 2},
		{Name: "host1.shard.1.kv_sets", Value: 3},
		{Name: "host1.shard.10.netstack.frames_in", Value: 4},
		{Name: "host1.shard.kv_gen", Value: 1},
		{Name: "host2.shard.0.kv_sets", Value: 7},
	}})
	want := []telemetry.Sample{
		{Name: "host1.shard.*.kv_sets", Value: 5},
		{Name: "host1.shard.*.netstack.frames_in", Value: 4},
		{Name: "host2.shard.*.kv_sets", Value: 7},
	}
	if !slices.Equal(got.Samples, want) {
		t.Fatalf("rollup = %v, want %v", got.Samples, want)
	}
}

func TestUnknownRigExits2(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := stat([]string{"-rig", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for name := range rigs {
		if !strings.Contains(stderr.String(), name) {
			t.Fatalf("usage does not list %q: %s", name, stderr.String())
		}
	}
}

// TestLawViolationExits1 stages a reader outside the stack: it takes
// frames off a node's receive ring that the NIC counted and no stack
// will, which the node law must catch.
func TestLawViolationExits1(t *testing.T) {
	rigs["leak"] = func(seed int64, _ *telemetry.Registry) (*rig, error) {
		c := demi.NewCluster(seed)
		a, b := c.MustSpawn(demi.Catnip, demi.WithHost(1)), c.MustSpawn(demi.Catnip, demi.WithHost(2))
		a.WaitTimeout = 20 * time.Millisecond
		return &rig{c: c, close: func() {}, run: func(int) error {
			qd, err := a.Socket()
			if err != nil {
				return err
			}
			_ = a.Connect(qd, c.AddrOf(b, 9)) // b never polls, so this times out
			for _, f := range b.Catnip.Device().RxBurst(0, 64) {
				f.Release()
			}
			return nil
		}}, nil
	}
	defer delete(rigs, "leak")
	var stdout, stderr strings.Builder
	if code := stat([]string{"-rig", "leak"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stack conservation violated") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}
