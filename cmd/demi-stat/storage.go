package main

// The -storage view: run the storage-pushdown workload — a block-resident
// sorted index over the catfish blob store, GETs issued through the
// lookup queue both with the step function pushed into the NVMe
// completion path and with the host-CPU fallback — and render what the
// telemetry saw: crossings per GET in each mode, the spdk.pushdown.*
// counter diff, and the pooled-buffer accounting underneath it.
//
// The panel is also an invariant audit (tier1 runs it): a pushdown GET
// must cost exactly one app↔libOS crossing at any depth, the fallback
// must pay one per hop, both modes must return byte-identical values,
// and after quiesce no traversal may be left device-side and no pooled
// buffer may be outstanding. It exits non-zero on any violation.

import (
	"bytes"
	"fmt"

	"demikernel/internal/experiments"
	"demikernel/internal/metrics"
	"demikernel/internal/spdk"
	"demikernel/internal/telemetry"
)

// runStorage drives n GETs over a depth-`depth` index in both lookup
// modes, renders the dashboard, and audits the pushdown invariants.
func runStorage(seed int64, n, depth int) error {
	pd, err := experiments.NewLookupRig(seed, depth, true)
	if err != nil {
		return err
	}
	host, err := experiments.NewLookupRig(seed+1, depth, false)
	if err != nil {
		return err
	}
	pairs, nKeys := pd.Pairs, len(pd.Pairs)
	reg := telemetry.NewRegistry()
	pd.Transport.RegisterTelemetry(reg, "catfish")

	before := reg.Snapshot()
	var pdH, hostH metrics.Histogram
	var miscompares int
	for i := 0; i < n; i++ {
		k := pairs[i%nKeys].Key
		v1, c1, err := pd.Get(k)
		if err != nil {
			return fmt.Errorf("pushdown GET %d: %w", i, err)
		}
		v2, c2, err := host.Get(k)
		if err != nil {
			return fmt.Errorf("host GET %d: %w", i, err)
		}
		if !bytes.Equal(v1, v2) || !bytes.Equal(v1, pairs[i%nKeys].Val) {
			miscompares++
		}
		pdH.Record(c1)
		hostH.Record(c2)
	}
	// A miss must be typed, not a hang or a zero-value hit.
	if _, _, err := pd.Get([]byte("no-such-key")); err != spdk.ErrNotFound {
		return fmt.Errorf("pushdown miss returned %v, want spdk.ErrNotFound", err)
	}
	if _, _, err := host.Get([]byte("no-such-key")); err != spdk.ErrNotFound {
		return fmt.Errorf("host miss returned %v, want spdk.ErrNotFound", err)
	}
	after := reg.Snapshot()

	fmt.Printf("storage run: %d GETs over a depth-%d index (%d keys, fanout 2, seed %d)\n\n",
		n, depth, nKeys, seed)

	ps, hs := pd.Queue.Stats(), host.Queue.Stats()
	pdCross := float64(ps.Crossings) / float64(ps.Lookups)
	hostCross := float64(hs.Crossings) / float64(hs.Lookups)
	s1, s2 := pdH.Summarize(), hostH.Summarize()
	tbl := metrics.NewTable("Lookup modes: device pushdown vs host-CPU traversal",
		"mode", "GETs", "crossings/GET", "p50", "p99")
	tbl.AddRow("pushdown", ps.Lookups, fmt.Sprintf("%.2f", pdCross), s1.P50, s1.P99)
	tbl.AddRow("host fallback", hs.Lookups, fmt.Sprintf("%.2f", hostCross), s2.P50, s2.P99)
	fmt.Println(tbl.String())

	dev := pd.Transport.Device().PushdownStats()
	pool := pd.Transport.Pool().Stats()
	tbl2 := metrics.NewTable("Device + pool accounting (pushdown node)",
		"counter", "value", "meaning")
	tbl2.AddRow("pushdown.resubmits", dev.Resubmits, "device-internal hops that never crossed to the host")
	tbl2.AddRow("pushdown.hops_saved", dev.HopsSaved, "host round trips avoided vs app-level traversal")
	tbl2.AddRow("pushdown.hits", dev.Hits, "lookups that returned a value")
	tbl2.AddRow("pushdown.misses", dev.Misses, "lookups that returned key-not-found")
	tbl2.AddRow("pushdown.inflight", dev.Inflight, "traversals still device-side (must be 0)")
	tbl2.AddRow("pool.pooled", pool.Pooled, "SGA allocations served from recycled storage")
	tbl2.AddRow("pool.outstanding", pool.Outstanding, "live pooled buffers (must be 0)")
	fmt.Println(tbl2.String())

	fmt.Println("== catfish counters, pushdown node (delta over the run) ==")
	fmt.Print(after.Diff(before).NonZero().String())
	fmt.Println()

	// The invariant audit — any failure here means the protection
	// boundary or the accounting is broken.
	expected := float64(depth + 1)
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	if miscompares != 0 {
		fail("%d GETs returned different bytes across modes", miscompares)
	}
	if pdCross != 1 {
		fail("pushdown crossings/GET = %.2f, want exactly 1", pdCross)
	}
	if hostCross != expected {
		fail("host crossings/GET = %.2f, want %.0f (depth+1)", hostCross, expected)
	}
	if depth >= 4 && hostCross < 3*pdCross {
		fail("crossing fence: host %.2f vs pushdown %.2f is below 3x", hostCross, pdCross)
	}
	if dev.Resubmits != int64(depth)*dev.Lookups {
		fail("resubmits = %d, want depth*lookups = %d", dev.Resubmits, int64(depth)*dev.Lookups)
	}
	if dev.Inflight != 0 {
		fail("%d traversals leaked device-side", dev.Inflight)
	}
	for name, r := range map[string]*experiments.LookupRig{"pushdown": pd, "host": host} {
		if out := r.Transport.Pool().Outstanding(); out != 0 {
			fail("%s node leaked %d pooled buffers", name, out)
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Printf("VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d storage invariant(s) violated", len(violations))
	}
	fmt.Printf("storage invariants hold: 1 crossing/GET pushed down vs %.0f host-side (%.1fx), values byte-identical, nothing leaked\n",
		expected, hostCross/pdCross)
	return nil
}
