package spdk

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"demikernel/internal/telemetry"
)

// seqAlloc returns a block allocator handing out ascending LBAs from
// base, for index builds that bypass the blob store.
func seqAlloc(base int) func(n int) (int, error) {
	next := base
	return func(n int) (int, error) {
		lba := next
		next += n
		return lba, nil
	}
}

// buildTestIndex builds an index with enough keys for the given depth at
// fanout 2 and returns it with the key set. Key i maps to value
// "val-i".
func buildTestIndex(t testing.TB, d *Device, depth int) (*Index, [][]byte) {
	return buildIndexAt(t, d, depth, 2, "key-%04d", "val-%d")
}

// buildIndexAt builds an index of the given depth at the given fanout:
// 2*fanout^depth keys, key i formatted by keyFmt and its value by valFmt.
func buildIndexAt(t testing.TB, d *Device, depth, fanout int, keyFmt, valFmt string) (*Index, [][]byte) {
	t.Helper()
	n := 2
	for i := 0; i < depth; i++ {
		n *= fanout
	}
	var kvs []KV
	var keys [][]byte
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf(keyFmt, i))
		kvs = append(kvs, KV{Key: k, Val: []byte(fmt.Sprintf(valFmt, i))})
		keys = append(keys, k)
	}
	idx, err := BuildIndex(d, seqAlloc(100), kvs, fanout)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Depth != depth {
		t.Fatalf("Depth = %d, want %d (levels %d)", idx.Depth, depth, idx.Levels)
	}
	return idx, keys
}

// runLookup drives one pushdown lookup to completion.
func runLookup(t testing.TB, d *Device, handle, root int, key []byte) LookupResult {
	t.Helper()
	var r LookupResult
	got := false
	err := d.SubmitLookup(handle, root, key, func(res LookupResult) {
		r = res
		got = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !got; i++ {
		d.Pump()
		if i > 1000 {
			t.Fatal("lookup never completed")
		}
	}
	return r
}

func TestPushdownLookupDepth3(t *testing.T) {
	d := newDev(Config{})
	idx, keys := buildTestIndex(t, d, 3)
	h, err := d.InstallPushdown(IndexProg{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		r := runLookup(t, d, h, idx.Root, k)
		if r.Err != nil {
			t.Fatalf("key %q: %v", k, r.Err)
		}
		if !r.Found || r.Value != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %q: found=%v value=%q", k, r.Found, r.Value)
		}
		if r.Hops != idx.Levels {
			t.Fatalf("key %q: hops = %d, want %d", k, r.Hops, idx.Levels)
		}
		if r.Cost == 0 {
			t.Fatal("no cost accounted")
		}
	}
	st := d.PushdownStats()
	n := int64(len(keys))
	if st.Lookups != n || st.Hits != n {
		t.Fatalf("lookups/hits = %d/%d, want %d", st.Lookups, st.Hits, n)
	}
	// Each depth-3 lookup resubmits 3 device-internal reads that never
	// surface: those are the saved host crossings.
	if want := n * int64(idx.Depth); st.Resubmits != want || st.HopsSaved != want {
		t.Fatalf("resubmits/hopsSaved = %d/%d, want %d", st.Resubmits, st.HopsSaved, want)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after all lookups done", st.Inflight)
	}
	// No host DMA for internal hops: only the device's own reads.
	if got := d.Stats().DMABytes; got != 0 {
		// BuildIndex wrote nodes (DMA), so compare against write traffic only.
		writes := d.Stats().Writes * BlockSize
		if got != writes {
			t.Fatalf("DMABytes = %d, want only the %d build-write bytes", got, writes)
		}
	}
}

func TestPushdownMiss(t *testing.T) {
	d := newDev(Config{})
	idx, _ := buildTestIndex(t, d, 2)
	h, _ := d.InstallPushdown(IndexProg{})
	r := runLookup(t, d, h, idx.Root, []byte("key-9999~nope"))
	if r.Err != nil || r.Found {
		t.Fatalf("miss: err=%v found=%v", r.Err, r.Found)
	}
	// A key below the whole tree misses at the root in one hop.
	r = runLookup(t, d, h, idx.Root, []byte("aaa"))
	if r.Err != nil || r.Found || r.Hops != 1 {
		t.Fatalf("below-range miss: err=%v found=%v hops=%d", r.Err, r.Found, r.Hops)
	}
	if st := d.PushdownStats(); st.Misses != 2 || st.Inflight != 0 {
		t.Fatalf("misses/inflight = %d/%d", st.Misses, st.Inflight)
	}
}

// loopProg descends forever: every block points back at itself.
type loopProg struct{ lba int }

func (p loopProg) Name() string                 { return "loop" }
func (p loopProg) Step(_ []byte, _ *Block) Step { return Step{Kind: StepNext, NextLBA: p.lba} }

func TestPushdownHopBudgetTerminates(t *testing.T) {
	d := newDev(Config{})
	h, err := d.InstallPushdown(loopProg{lba: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := runLookup(t, d, h, 5, []byte("k"))
	if !errors.Is(r.Err, ErrHopBudget) {
		t.Fatalf("err = %v, want ErrHopBudget", r.Err)
	}
	if r.Hops != MaxHops {
		t.Fatalf("hops = %d, want the full budget %d", r.Hops, MaxHops)
	}
	if st := d.PushdownStats(); st.BudgetExceeded != 1 || st.Inflight != 0 {
		t.Fatalf("budgetExceeded/inflight = %d/%d", st.BudgetExceeded, st.Inflight)
	}
}

func TestPushdownInstallValidation(t *testing.T) {
	d := newDev(Config{})
	if _, err := d.InstallPushdown(nil); !errors.Is(err, ErrBadProg) {
		t.Fatalf("nil prog: err = %v", err)
	}
	if err := d.SubmitLookup(0, 0, []byte("k"), func(LookupResult) {}); !errors.Is(err, ErrNoProg) {
		t.Fatalf("no prog installed: err = %v", err)
	}
	h, _ := d.InstallPushdown(IndexProg{})
	long := make([]byte, MaxKeyLen+1)
	if err := d.SubmitLookup(h, 0, long, func(LookupResult) {}); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key: err = %v", err)
	}
	d.UninstallPushdown(h)
	if err := d.SubmitLookup(h, 0, []byte("k"), func(LookupResult) {}); !errors.Is(err, ErrNoProg) {
		t.Fatalf("uninstalled: err = %v", err)
	}
}

func TestPushdownCorruptBlock(t *testing.T) {
	d := newDev(Config{})
	// Block 3 is not an index node (zeroes: bad magic).
	h, _ := d.InstallPushdown(IndexProg{})
	r := runLookup(t, d, h, 3, []byte("k"))
	if !errors.Is(r.Err, ErrCorruptIndex) {
		t.Fatalf("err = %v, want ErrCorruptIndex", r.Err)
	}
	if st := d.PushdownStats(); st.CorruptBlocks != 1 || st.Inflight != 0 {
		t.Fatalf("corruptBlocks/inflight = %d/%d", st.CorruptBlocks, st.Inflight)
	}
}

// wildProg emits out-of-range verdicts to probe the runtime re-checks.
type wildProg struct{ s Step }

func (p wildProg) Name() string                 { return "wild" }
func (p wildProg) Step(_ []byte, _ *Block) Step { return p.s }

func TestPushdownRuntimeValidation(t *testing.T) {
	d := newDev(Config{NumBlocks: 64})
	// Next LBA outside the namespace: rejected in the completion path.
	h, _ := d.InstallPushdown(wildProg{s: Step{Kind: StepNext, NextLBA: 64}})
	if r := runLookup(t, d, h, 0, []byte("k")); !errors.Is(r.Err, ErrCorruptIndex) {
		t.Fatalf("wild next: err = %v", r.Err)
	}
	// Oversized value: rejected.
	h2, _ := d.InstallPushdown(wildProg{s: Step{Kind: StepDone, Value: strings.Repeat("v", MaxValueLen+1)}})
	if r := runLookup(t, d, h2, 0, []byte("k")); !errors.Is(r.Err, ErrCorruptIndex) {
		t.Fatalf("wild value: err = %v", r.Err)
	}
	if st := d.PushdownStats(); st.Inflight != 0 {
		t.Fatalf("inflight = %d", st.Inflight)
	}
}

func TestPushdownResetMidTraversal(t *testing.T) {
	d := newDev(Config{})
	idx, keys := buildTestIndex(t, d, 3)
	h, _ := d.InstallPushdown(IndexProg{})

	var results []LookupResult
	if err := d.SubmitLookup(h, idx.Root, keys[0], func(r LookupResult) {
		results = append(results, r)
	}); err != nil {
		t.Fatal(err)
	}
	// Advance exactly two hops, then reset while the third read is queued.
	d.Pump()
	d.Pump()
	if st := d.PushdownStats(); st.Inflight != 1 {
		t.Fatalf("inflight = %d mid-traversal", st.Inflight)
	}
	d.ControllerReset(0)
	if len(results) != 1 {
		t.Fatalf("surfaced %d completions, want exactly 1", len(results))
	}
	r := results[0]
	if !errors.Is(r.Err, ErrDeviceReset) {
		t.Fatalf("err = %v, want ErrDeviceReset", r.Err)
	}
	if r.Hops != 2 {
		t.Fatalf("hops = %d, want the 2 completed before the abort", r.Hops)
	}
	st := d.PushdownStats()
	if st.ResetAborts != 1 || st.Inflight != 0 {
		t.Fatalf("resetAborts/inflight = %d/%d", st.ResetAborts, st.Inflight)
	}
	// Further pumping surfaces nothing more.
	for i := 0; i < 10; i++ {
		d.Pump()
	}
	if len(results) != 1 {
		t.Fatalf("late extra completion: %d", len(results))
	}
	// The device recovers: the same lookup succeeds afterwards.
	if r := runLookup(t, d, h, idx.Root, keys[0]); r.Err != nil || !r.Found {
		t.Fatalf("post-reset lookup: err=%v found=%v", r.Err, r.Found)
	}
}

// Satellite: Poll must reuse the CQ backing array — zero allocations per
// submit+poll cycle in the steady state.
func TestPollSteadyStateAllocFree(t *testing.T) {
	d := newDev(Config{})
	// Warm the ring.
	for i := 0; i < 4; i++ {
		if _, err := d.submit(Command{Op: OpFlush}, nil, toHost); err != nil {
			t.Fatal(err)
		}
		d.Poll(0)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := d.submit(Command{Op: OpFlush}, nil, toHost); err != nil {
			t.Fatal(err)
		}
		if cs := d.Poll(0); len(cs) != 1 {
			t.Fatalf("polled %d completions", len(cs))
		}
	})
	if avg != 0 {
		t.Fatalf("submit+poll allocates %v/op in steady state, want 0", avg)
	}
}

// Satellite: Execute must not scan or re-queue foreign CQ completions —
// entries queued for Poll survive an interleaved Execute untouched.
func TestExecuteLeavesForeignCompletionsAlone(t *testing.T) {
	d := newDev(Config{})
	id, err := d.submit(Command{Op: OpFlush}, nil, toHost)
	if err != nil {
		t.Fatal(err)
	}
	// Execute drives the device to completion; the plain submission's
	// completion must still be waiting in the CQ afterwards.
	if c := d.Execute(Command{Op: OpWrite, LBA: 1, Data: block('e')}); c.Err != nil {
		t.Fatal(c.Err)
	}
	cs := d.Poll(0)
	if len(cs) != 1 || cs[0].ID != id {
		t.Fatalf("Poll = %+v, want the foreign flush completion %d", cs, id)
	}
}

// Execute itself is allocation-free in the steady state (pooled wait
// state, continuation-carried completion).
func TestExecuteSteadyStateAllocFree(t *testing.T) {
	d := newDev(Config{})
	d.Execute(Command{Op: OpFlush}) // warm the exec-state pool
	avg := testing.AllocsPerRun(100, func() {
		if c := d.Execute(Command{Op: OpFlush}); c.Err != nil {
			t.Fatal(c.Err)
		}
	})
	if avg != 0 {
		t.Fatalf("Execute allocates %v/op in steady state, want 0", avg)
	}
}

// steadyGet builds a depth-deep index on d, installs the index program
// and returns its keys and a GET that drives one pushdown lookup to its
// hit with no allocation of its own.
func steadyGet(tb testing.TB, d *Device, depth int) (func(key []byte), [][]byte) {
	idx, keys := buildTestIndex(tb, d, depth)
	return indexGet(tb, d, idx), keys
}

// indexGet installs the index program and returns a GET over idx that
// drives one pushdown lookup to its hit with no allocation of its own.
func indexGet(tb testing.TB, d *Device, idx *Index) func(key []byte) {
	h, _ := d.InstallPushdown(IndexProg{})
	var r LookupResult
	got := false
	done := func(res LookupResult) { r = res; got = true }
	return func(key []byte) {
		got = false
		if err := d.SubmitLookup(h, idx.Root, key, done); err != nil {
			tb.Fatal(err)
		}
		for !got {
			d.Pump()
		}
		if r.Err != nil || !r.Found {
			tb.Fatalf("key %q: err=%v found=%v", key, r.Err, r.Found)
		}
	}
}

// The full device-side GET is allocation-free once warm: pooled
// traversals, blocks read in place, reused continuation batches.
func TestPushdownLookupSteadyStateAllocFree(t *testing.T) {
	d := newDev(Config{})
	get, keys := steadyGet(t, d, 2)
	run := func() { get(keys[1]) }
	run() // warm pools
	avg := testing.AllocsPerRun(100, run)
	if avg != 0 {
		t.Fatalf("pushdown GET allocates %v/op in steady state, want 0", avg)
	}
}

// fullFanout is the fanout at which a leaf of 9-byte keys and 9-byte
// values fills its block.
const fullFanout = (BlockSize - indexHdrLen) / (4 + 9 + 9)

// BenchmarkSPDK_PushdownGet is one pushdown GET, from SubmitLookup to its
// single completion, driven by the device pump alone: over a depth-4
// index at fanout 2 (hops/op, the block reads per GET, 5), and over a
// depth-2 index whose leaves fill their blocks (hops/op 3), where the
// search within a node is most of a hop. An allocation fails it.
func BenchmarkSPDK_PushdownGet(b *testing.B) {
	for _, fanout := range []int{2, fullFanout} {
		b.Run(fmt.Sprint("fanout", fanout), func(b *testing.B) {
			d := newDev(Config{})
			var idx *Index
			var keys [][]byte
			if fanout == 2 {
				idx, keys = buildTestIndex(b, d, 4)
			} else {
				idx, keys = buildIndexAt(b, d, 2, fanout, "key-%05d", "val-%05d")
			}
			get := indexGet(b, d, idx)
			if a := testing.AllocsPerRun(100, func() { get(keys[1]) }); a != 0 {
				b.Fatalf("%v allocs per GET", a)
			}
			reads := d.Stats().Reads
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(keys[i%len(keys)])
			}
			b.ReportMetric(float64(d.Stats().Reads-reads)/float64(b.N), "hops/op")
		})
	}
}

// TestPushdownReadsBlockAsOfItsRead: a program sees its block as it was
// when the read was processed. A write to the root, processed after the
// lookup's root read but in the same Pump and so before the program
// runs, does not reach that traversal; the next lookup reads the new
// node.
func TestPushdownReadsBlockAsOfItsRead(t *testing.T) {
	d := newDev(Config{})
	key := []byte("k")
	oldIdx, err := BuildIndex(d, seqAlloc(100), []KV{{Key: key, Val: []byte("old")}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	newIdx, err := BuildIndex(d, seqAlloc(200), []KV{{Key: key, Val: []byte("new")}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	newRoot := d.Execute(Command{Op: OpRead, LBA: newIdx.Root})
	if newRoot.Err != nil {
		t.Fatal(newRoot.Err)
	}
	h, _ := d.InstallPushdown(IndexProg{})

	var got []LookupResult
	if err := d.SubmitLookup(h, oldIdx.Root, key, func(r LookupResult) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if _, err := d.submit(Command{Op: OpWrite, LBA: oldIdx.Root, Data: newRoot.Data}, nil, toHost); err != nil {
		t.Fatal(err)
	}
	if n := d.Pump(); n != 1 || len(got) != 1 {
		t.Fatalf("one Pump ran %d continuations and finished %d lookups, want 1 and 1", n, len(got))
	}
	if cs := d.Poll(0); len(cs) != 1 || cs[0].Op != OpWrite || cs[0].Err != nil {
		t.Fatalf("the write's completion = %+v", cs)
	}
	if r := got[0]; r.Err != nil || r.Value != "old" {
		t.Fatalf("lookup racing the write: value %q err %v, want the old node's %q", r.Value, r.Err, "old")
	}
	if r := runLookup(t, d, h, oldIdx.Root, key); r.Err != nil || r.Value != "new" {
		t.Fatalf("lookup after the write: value %q err %v, want the new node's %q", r.Value, r.Err, "new")
	}
}

func TestPushdownTelemetry(t *testing.T) {
	d := newDev(Config{})
	idx, keys := buildTestIndex(t, d, 2)
	h, _ := d.InstallPushdown(IndexProg{})
	runLookup(t, d, h, idx.Root, keys[0])

	reg := telemetry.NewRegistry()
	d.RegisterTelemetry(reg, "nvme")
	snap := make(map[string]int64)
	for _, s := range reg.Snapshot().Samples {
		snap[s.Name] = s.Value
	}
	for _, key := range []string{
		"nvme.pushdown.installs", "nvme.pushdown.lookups", "nvme.pushdown.hits",
		"nvme.pushdown.resubmits", "nvme.pushdown.hops_saved", "nvme.pushdown.inflight",
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("telemetry key %q missing", key)
		}
	}
	if snap["nvme.pushdown.lookups"] != 1 || snap["nvme.pushdown.hits"] != 1 {
		t.Fatalf("lookups/hits = %d/%d", snap["nvme.pushdown.lookups"], snap["nvme.pushdown.hits"])
	}
	if snap["nvme.pushdown.hops_saved"] != int64(idx.Depth) {
		t.Fatalf("hops_saved = %d, want %d", snap["nvme.pushdown.hops_saved"], idx.Depth)
	}
}
