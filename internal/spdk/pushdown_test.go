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
func runLookup(t testing.TB, d *Device, prog Prog, root int, key []byte) LookupResult {
	t.Helper()
	var r LookupResult
	got := false
	err := d.SubmitLookup(prog, root, key, func(res LookupResult) {
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
	h := IndexProg{}
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
	h := IndexProg{}
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
	h := loopProg{lba: 5}
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

// TestPushdownInstallValidation: a lookup with no program or with a key
// past MaxKeyLen is refused in both modes before it reads a block.
func TestPushdownInstallValidation(t *testing.T) {
	d := newDev(Config{})
	long := make([]byte, MaxKeyLen+1)
	for _, c := range []struct {
		prog Prog
		key  []byte
		want error
	}{
		{nil, []byte("k"), ErrBadProg},
		{IndexProg{}, long, ErrKeyTooLong},
	} {
		if err := d.SubmitLookup(c.prog, 0, c.key, func(LookupResult) {}); !errors.Is(err, c.want) {
			t.Fatalf("pushdown, prog %v, %d-byte key: err = %v, want %v", c.prog, len(c.key), err, c.want)
		}
		if r, reads := d.HostLookup(c.prog, 0, c.key); !errors.Is(r.Err, c.want) || reads != 0 {
			t.Fatalf("host, prog %v, %d-byte key: err = %v after %d reads, want %v", c.prog, len(c.key), r.Err, reads, c.want)
		}
	}
	if st := d.Stats(); st.Reads != 0 {
		t.Fatalf("%d reads for refused lookups", st.Reads)
	}
	if st := d.PushdownStats(); st.Lookups != 0 || st.Inflight != 0 {
		t.Fatalf("lookups/inflight = %d/%d after refusals", st.Lookups, st.Inflight)
	}
}

func TestPushdownCorruptBlock(t *testing.T) {
	d := newDev(Config{})
	// Block 3 is not an index node (zeroes: bad magic).
	h := IndexProg{}
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
	h := wildProg{s: Step{Kind: StepNext, NextLBA: 64}}
	if r := runLookup(t, d, h, 0, []byte("k")); !errors.Is(r.Err, ErrCorruptIndex) {
		t.Fatalf("wild next: err = %v", r.Err)
	}
	// Oversized value: rejected.
	h2 := wildProg{s: Step{Kind: StepDone, Value: strings.Repeat("v", MaxValueLen+1)}}
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
	h := IndexProg{}

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

// Execute itself is allocation-free in the steady state.
func TestExecuteSteadyStateAllocFree(t *testing.T) {
	d := newDev(Config{})
	d.Execute(Command{Op: OpFlush})
	avg := testing.AllocsPerRun(100, func() {
		if c := d.Execute(Command{Op: OpFlush}); c.Err != nil {
			t.Fatal(c.Err)
		}
	})
	if avg != 0 {
		t.Fatalf("Execute allocates %v/op in steady state, want 0", avg)
	}
}

// steadyGet builds a depth-deep index on d and returns its keys and a GET that drives one pushdown lookup to its
// hit with no allocation of its own.
func steadyGet(tb testing.TB, d *Device, depth int) (func(key []byte), [][]byte) {
	idx, keys := buildTestIndex(tb, d, depth)
	return indexGet(tb, d, idx), keys
}

// indexGet returns a GET over idx that drives one pushdown lookup of the
// index program to its hit with no allocation of its own.
func indexGet(tb testing.TB, d *Device, idx *Index) func(key []byte) {
	var r LookupResult
	got := false
	done := func(res LookupResult) { r = res; got = true }
	return func(key []byte) {
		got = false
		if err := d.SubmitLookup(IndexProg{}, idx.Root, key, done); err != nil {
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
// when the read was processed. A write to the root, issued after the
// lookup, runs the lookup's queued root hop first and only then replaces
// the root; it does not reach that traversal, and the next lookup reads
// the new node.
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
	h := IndexProg{}

	var got []LookupResult
	if err := d.SubmitLookup(h, oldIdx.Root, key, func(r LookupResult) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if c := d.Execute(Command{Op: OpWrite, LBA: oldIdx.Root, Data: newRoot.Data}); c.Err != nil {
		t.Fatal(c.Err)
	}
	if len(got) != 1 {
		t.Fatalf("the write finished %d lookups, want the 1 whose root hop it ran", len(got))
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
	runLookup(t, d, IndexProg{}, idx.Root, keys[0])

	reg := telemetry.NewRegistry()
	d.RegisterTelemetry(reg, "nvme")
	snap := make(map[string]int64)
	for _, s := range reg.Snapshot().Samples {
		snap[s.Name] = s.Value
	}
	for _, key := range []string{
		"nvme.pushdown.lookups", "nvme.pushdown.hits",
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

// TestExecuteAdvancesQueuedTraversalOneHop: a host command runs the
// pushdown reads queued before it, as a pump would, so each Execute
// issued while a traversal is queued advances it by exactly one hop.
func TestExecuteAdvancesQueuedTraversalOneHop(t *testing.T) {
	d := newDev(Config{})
	idx, keys := buildTestIndex(t, d, 3)
	var got []LookupResult
	if err := d.SubmitLookup(IndexProg{}, idx.Root, keys[0], func(r LookupResult) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	for hop := 1; hop <= idx.Levels; hop++ {
		reads := d.Stats().Reads
		if c := d.Execute(Command{Op: OpFlush}); c.Err != nil {
			t.Fatal(c.Err)
		}
		if n := d.Stats().Reads - reads; n != 1 {
			t.Fatalf("Execute %d ran %d pushdown reads, want 1", hop, n)
		}
		if want := min(hop, idx.Depth); d.PushdownStats().Resubmits != int64(want) {
			t.Fatalf("after Execute %d: %d hops queued, want %d", hop, d.PushdownStats().Resubmits, want)
		}
		if done := hop == idx.Levels; (len(got) == 1) != done {
			t.Fatalf("after Execute %d of %d: %d results", hop, idx.Levels, len(got))
		}
	}
	if r := got[0]; r.Err != nil || r.Value != "val-0" || r.Hops != idx.Levels {
		t.Fatalf("lookup: value %q err %v hops %d", r.Value, r.Err, r.Hops)
	}
	if n := d.Pump(); n != 0 {
		t.Fatalf("Pump after the lookup ended advanced %d hops", n)
	}
}

// TestQueuesHoldNoFinishedTraversal: once a GET ends, no slot of either
// queue's backing array still points at a traversal, so a recycled one
// is reachable only from the freelist.
func TestQueuesHoldNoFinishedTraversal(t *testing.T) {
	d := newDev(Config{})
	idx, keys := buildTestIndex(t, d, 4)
	if r := runLookup(t, d, IndexProg{}, idx.Root, keys[1]); r.Err != nil || !r.Found {
		t.Fatalf("lookup: err=%v found=%v", r.Err, r.Found)
	}
	d.Pump()
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, q := range map[string][]sqe{"sq": d.sq, "next": d.next} {
		for i, e := range q[:cap(q)] {
			if e.t != nil {
				t.Fatalf("%s[%d] still holds a traversal", name, i)
			}
		}
	}
}
