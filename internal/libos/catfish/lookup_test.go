package catfish

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/offload"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

func newTransport(t *testing.T) (*Transport, *spdk.Device) {
	t.Helper()
	model := simclock.Datacenter2019()
	dev := spdk.New(&model, spdk.Config{})
	tr, err := New(&model, dev)
	if err != nil {
		t.Fatal(err)
	}
	return tr, dev
}

func testPairs(n int) []spdk.KV {
	var kvs []spdk.KV
	for i := 0; i < n; i++ {
		kvs = append(kvs, spdk.KV{
			Key: []byte(fmt.Sprintf("key-%04d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		})
	}
	return kvs
}

// get runs one Push+Pop round trip against a lookup queue.
func get(t *testing.T, tr *Transport, q *LookupQueue, key []byte) ([]byte, error) {
	t.Helper()
	ks := tr.AllocSGA(len(key))
	copy(ks.Segments[0].Buf, key)
	var pushErr error
	q.Push(ks, 0, func(c queue.Completion) { pushErr = c.Err })
	if pushErr != nil {
		t.Fatal(pushErr)
	}
	var res queue.Completion
	got := false
	q.Pop(func(c queue.Completion) { res = c; got = true })
	for i := 0; !got; i++ {
		tr.Poll()
		if i > 10000 {
			t.Fatal("lookup never completed")
		}
	}
	if res.Err != nil {
		return nil, res.Err
	}
	v := append([]byte(nil), res.SGA.Bytes()...)
	res.SGA.Free()
	return v, nil
}

func openLookup(t *testing.T, tr *Transport, kvs []spdk.KV, cfg LookupConfig) (*LookupQueue, *spdk.Index) {
	t.Helper()
	idx, err := tr.BuildIndex(kvs, 2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := tr.OpenLookup(idx, offload.IndexLookup(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q, idx
}

// The central equivalence: pushdown and host-fallback modes return
// byte-identical results for every key, but pushdown crosses once per
// GET while fallback crosses once per hop.
func TestLookupQueueModesAgree(t *testing.T) {
	kvs := testPairs(32) // depth 4 at fanout 2
	tr1, dev1 := newTransport(t)
	pd, idx := openLookup(t, tr1, kvs, LookupConfig{Pushdown: true})
	tr2, _ := newTransport(t)
	host, idx2 := openLookup(t, tr2, kvs, LookupConfig{Pushdown: false})
	if idx.Levels != idx2.Levels {
		t.Fatalf("index shapes differ: %d vs %d levels", idx.Levels, idx2.Levels)
	}

	probes := append(testPairs(32), spdk.KV{Key: []byte("nope"), Val: nil}, spdk.KV{Key: []byte("zzzz"), Val: nil})
	for _, kv := range probes {
		v1, err1 := get(t, tr1, pd, kv.Key)
		v2, err2 := get(t, tr2, host, kv.Key)
		if !errors.Is(err1, err2) && !errors.Is(err2, err1) {
			t.Fatalf("key %q: pushdown err %v != host err %v", kv.Key, err1, err2)
		}
		if !bytes.Equal(v1, v2) {
			t.Fatalf("key %q: pushdown %q != host %q", kv.Key, v1, v2)
		}
	}

	n := int64(len(probes))
	ps, hs := pd.Stats(), host.Stats()
	if ps.Lookups != n || hs.Lookups != n {
		t.Fatalf("lookups = %d/%d, want %d", ps.Lookups, hs.Lookups, n)
	}
	if ps.Crossings != n {
		t.Fatalf("pushdown crossings = %d, want exactly 1 per GET (%d)", ps.Crossings, n)
	}
	if want := n * int64(idx.Levels); hs.Crossings > want || hs.Crossings < n*int64(1) {
		t.Fatalf("host crossings = %d, want up to %d (one per hop)", hs.Crossings, want)
	}
	// The 32 hits each took Levels hops host-side.
	if hs.Crossings < 32*int64(idx.Levels) {
		t.Fatalf("host crossings = %d, want >= %d", hs.Crossings, 32*idx.Levels)
	}
	if st := dev1.PushdownStats(); st.Inflight != 0 {
		t.Fatalf("inflight = %d after drain", st.Inflight)
	}
	// No storage buffers leaked by either mode.
	if out := tr1.Pool().Outstanding(); out != 0 {
		t.Fatalf("pushdown transport leaks %d pooled buffers", out)
	}
	if out := tr2.Pool().Outstanding(); out != 0 {
		t.Fatalf("host transport leaks %d pooled buffers", out)
	}
}

func TestLookupQueueMissIsTyped(t *testing.T) {
	for _, pushdown := range []bool{true, false} {
		tr, _ := newTransport(t)
		q, _ := openLookup(t, tr, testPairs(8), LookupConfig{Pushdown: pushdown})
		if _, err := get(t, tr, q, []byte("absent")); !errors.Is(err, spdk.ErrNotFound) {
			t.Fatalf("pushdown=%v: err = %v, want ErrNotFound", pushdown, err)
		}
	}
}

func TestLookupQueueClosedAndUninstall(t *testing.T) {
	tr, dev := newTransport(t)
	q, idx := openLookup(t, tr, testPairs(8), LookupConfig{Pushdown: true})
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	var res queue.Completion
	q.Pop(func(c queue.Completion) { res = c })
	if !errors.Is(res.Err, queue.ErrClosed) {
		t.Fatalf("pop after close: %v", res.Err)
	}
	// The pushdown slot was uninstalled with the queue.
	err := dev.SubmitLookup(0, idx.Root, []byte("k"), func(spdk.LookupResult) {})
	if !errors.Is(err, spdk.ErrNoProg) {
		t.Fatalf("slot not uninstalled: %v", err)
	}
}

// A controller reset mid-traversal surfaces exactly one typed error on
// the Pop side; the queue and its pool stay leak-free.
func TestLookupQueueResetMidTraversal(t *testing.T) {
	tr, dev := newTransport(t)
	q, _ := openLookup(t, tr, testPairs(32), LookupConfig{Pushdown: true})

	key := tr.AllocSGA(8)
	copy(key.Segments[0].Buf, "key-0000")
	q.Push(key, 0, func(queue.Completion) {})
	dev.Pump() // one hop in
	dev.ControllerReset(0)

	var res queue.Completion
	got := false
	q.Pop(func(c queue.Completion) { res = c; got = true })
	for i := 0; !got; i++ {
		tr.Poll()
		if i > 10000 {
			t.Fatal("typed error completion never surfaced")
		}
	}
	if !errors.Is(res.Err, spdk.ErrDeviceReset) {
		t.Fatalf("err = %v, want ErrDeviceReset", res.Err)
	}
	st := dev.PushdownStats()
	if st.ResetAborts != 1 || st.Inflight != 0 {
		t.Fatalf("resetAborts/inflight = %d/%d", st.ResetAborts, st.Inflight)
	}
	if out := tr.Pool().Outstanding(); out != 0 {
		t.Fatalf("%d pooled buffers leaked across the reset", out)
	}
}

// TestLookupQueueDevicePumpStress: pushdown GETs complete on a goroutine
// that polls the transport, while the application pushes, pops and, with
// GETs still in flight, closes the queue. Every pop completes exactly
// once, with a value or ErrClosed, and every pooled buffer comes back.
func TestLookupQueueDevicePumpStress(t *testing.T) {
	tr, dev := newTransport(t)
	kvs := testPairs(32)
	q, _ := openLookup(t, tr, kvs, LookupConfig{Pushdown: true})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			tr.Poll()
			runtime.Gosched()
		}
	}()

	const gets, depth = 2000, 8
	answers := make([]atomic.Int32, gets)
	var answered, values atomic.Int64
	pushDone := func(c queue.Completion) {
		if c.Err != nil {
			t.Errorf("push: %v", c.Err)
		}
	}
	for i := range gets {
		for int64(i)-answered.Load() >= depth {
			runtime.Gosched()
		}
		key := kvs[i%len(kvs)].Key
		ks := tr.AllocSGA(len(key))
		copy(ks.Segments[0].Buf, key)
		q.Push(ks, 0, pushDone)
		q.Pop(func(c queue.Completion) {
			answers[i].Add(1)
			switch {
			case c.Err == nil:
				if !bytes.HasPrefix(c.SGA.Bytes(), []byte("value-")) {
					t.Errorf("pop %d: %q", i, c.SGA.Bytes())
				}
				c.SGA.Free()
				values.Add(1)
			case !errors.Is(c.Err, queue.ErrClosed):
				t.Errorf("pop %d: %v", i, c.Err)
			}
			answered.Add(1)
		})
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); dev.PushdownStats().Inflight != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d lookups still in flight", dev.PushdownStats().Inflight)
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	for i := range answers {
		if n := answers[i].Load(); n != 1 {
			t.Fatalf("pop %d completed %d times", i, n)
		}
	}
	if values.Load() < gets-depth {
		t.Fatalf("%d of %d pops got a value, want all but the last %d", values.Load(), gets, depth)
	}
	if out := tr.Pool().Outstanding(); out != 0 {
		t.Fatalf("%d pooled buffers outstanding after close", out)
	}
}

// AllocSGA + durable push: the libOS consumes the staging buffer once
// the record is on media, so the pool gauge returns to zero without the
// app ever freeing it.
func TestAllocSGAConsumedByDurablePush(t *testing.T) {
	tr, _ := newTransport(t)
	fq, err := tr.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s := tr.AllocSGA(64)
		copy(s.Segments[0].Buf, fmt.Sprintf("record-%d", i))
		var pushErr error
		fq.Push(s, 0, func(c queue.Completion) { pushErr = c.Err })
		if pushErr != nil {
			t.Fatal(pushErr)
		}
	}
	if out := tr.Pool().Outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after 10 durable pushes, want 0", out)
	}
	st := tr.Pool().Stats()
	if st.Pooled == 0 {
		t.Fatal("staging buffers never recycled")
	}
	// The records are intact (the pool freed staging copies, not data).
	var rec queue.Completion
	fq.Pop(func(c queue.Completion) { rec = c })
	if rec.Err != nil || string(rec.SGA.Bytes()[:8]) != "record-0" {
		t.Fatalf("pop: %q, %v", rec.SGA.Bytes(), rec.Err)
	}
}

// TestFailedPopKeepsItsRecord: a pop that a read error fails, once the
// retry budget is spent, leaves the cursor on its record, so the next pop
// reads that record instead of skipping it.
func TestFailedPopKeepsItsRecord(t *testing.T) {
	tr, dev := newTransport(t)
	fq, err := tr.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"r0", "r1"} {
		fq.Push(sga.New([]byte(rec)), 0, func(c queue.Completion) { err = c.Err })
		if err != nil {
			t.Fatal(err)
		}
	}
	dev.SetErrorRate(1, 1) // outlasts the retry budget
	var failed queue.Completion
	fq.Pop(func(c queue.Completion) { failed = c })
	if !errors.Is(failed.Err, spdk.ErrIO) {
		t.Fatalf("pop under injected errors: %v, want ErrIO", failed.Err)
	}
	dev.SetErrorRate(0, 0)
	for _, want := range []string{"r0", "r1"} {
		var c queue.Completion
		fq.Pop(func(got queue.Completion) { c = got })
		if c.Err != nil || string(c.SGA.Bytes()) != want {
			t.Fatalf("popped %q, %v; want %q", c.SGA.Bytes(), c.Err, want)
		}
	}
}

// TestPushAcrossResetReturnsAtOnce: a push that a controller reset fails
// DefaultMaxRetries times is retried at once, not after a backoff, and a
// pop parked on another open of the path completes with its record.
func TestPushAcrossResetReturnsAtOnce(t *testing.T) {
	tr, dev := newTransport(t)
	reader, err := tr.Open("/p")
	if err != nil {
		t.Fatal(err)
	}
	writer, err := tr.Open("/p")
	if err != nil {
		t.Fatal(err)
	}
	var popped queue.Completion
	parked := true
	reader.Pop(func(c queue.Completion) { popped, parked = c, false })
	if !parked {
		t.Fatalf("pop on an empty path completed: %v", popped.Err)
	}

	dev.ControllerReset(DefaultMaxRetries)
	before := tr.Retries()
	pushErr := errors.New("push never completed")
	start := time.Now()
	writer.Push(sga.New([]byte("after the reset")), 0, func(c queue.Completion) { pushErr = c.Err })
	took := time.Since(start)
	if pushErr != nil {
		t.Fatalf("push across a reset of %d commands: %v", DefaultMaxRetries, pushErr)
	}
	if got := tr.Retries() - before; got != DefaultMaxRetries {
		t.Fatalf("push absorbed %d failures, want %d", got, DefaultMaxRetries)
	}
	if took >= 10*time.Millisecond {
		t.Fatalf("push across the reset took %v, want < 10ms: the retry loop waited", took)
	}
	if parked || popped.Err != nil || string(popped.SGA.Bytes()) != "after the reset" {
		t.Fatalf("parked pop: parked %v, %q, %v; want the pushed record", parked, popped.SGA.Bytes(), popped.Err)
	}
}

// TestBuildIndexRetryLeaksNoBlocks: a build that a controller reset makes
// retry writes the regions its first attempt allocated, so the store's
// next free block is where a build without the reset leaves it.
func TestBuildIndexRetryLeaksNoBlocks(t *testing.T) {
	nextFree := func(resetFor int) int {
		tr, dev := newTransport(t)
		if resetFor > 0 {
			dev.ControllerReset(resetFor)
		}
		idx, err := tr.BuildIndex(testPairs(64), 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Retries(); got != int64(resetFor) {
			t.Fatalf("build absorbed %d failures, want %d", got, resetFor)
		}
		q, err := tr.OpenLookup(idx, offload.IndexLookup(), LookupConfig{Pushdown: true})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := get(t, tr, q, []byte("key-0042")); err != nil || string(v) != "value-42" {
			t.Fatalf("GET after a build across a reset of %d: %q, %v", resetFor, v, err)
		}
		lo, err := tr.Store().AllocBlocks(1)
		if err != nil {
			t.Fatal(err)
		}
		return lo
	}
	if got, want := nextFree(3), nextFree(0); got != want {
		t.Fatalf("next free block after a build across ControllerReset(3) = %d, want %d: %d blocks leaked",
			got, want, want-got)
	}
}

// The steady-state GET through the whole catfish face is allocation
// free at every index depth: pooled key staging, pooled value buffers,
// recycled results and traversals.
func TestLookupQueueSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc fences are not meaningful under -race (sync.Pool drops Puts)")
	}
	for _, depth := range []int{1, 2, 4, 8} {
		tr, _ := newTransport(t)
		q, idx := openLookup(t, tr, testPairs(1<<(depth+1)), LookupConfig{Pushdown: true}) // fanout 2
		if idx.Depth != depth {
			t.Fatalf("index depth = %d, want %d", idx.Depth, depth)
		}
		key := []byte("key-0003")
		var res queue.Completion
		got := false
		popDone := func(c queue.Completion) { res = c; got = true }
		pushDone := func(c queue.Completion) {}
		run := func() {
			got = false
			ks := tr.AllocSGA(len(key))
			copy(ks.Segments[0].Buf, key)
			q.Push(ks, 0, pushDone)
			q.Pop(popDone)
			for !got {
				tr.Poll()
			}
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			res.SGA.Free()
		}
		run() // warm every pool
		if avg := testing.AllocsPerRun(200, run); avg != 0 {
			t.Fatalf("depth %d: steady-state GET allocates %v/op, want 0", depth, avg)
		}
	}
}

// TestClosedQueuesLeavePoll: a push pumps every queue open on its path,
// so a closed one has to leave the path's list, or every push would pump
// dead queues. 1 000 open → pop → close cycles leave the list where it
// started, and an idle poll afterwards allocates nothing.
func TestClosedQueuesLeavePoll(t *testing.T) {
	tr, _ := newTransport(t)
	keep, err := tr.Open("/log") // the base: one queue stays open
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()
	base := tr.files.Opens("/log")
	for i := 0; i < 1000; i++ {
		fq, err := tr.Open("/log")
		if err != nil {
			t.Fatal(err)
		}
		fq.Pop(func(queue.Completion) {}) // fails with ErrClosed at the close
		if err := fq.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.files.Opens("/log"); got != base {
		t.Fatalf("%d queues open on the path after 1 000 cycles, %d before", got, base)
	}
	tr.Poll()
	if avg := testing.AllocsPerRun(1000, func() { tr.Poll() }); avg != 0 && !raceEnabled {
		t.Fatalf("idle Poll after 1 000 cycles allocates %.1f objects/op, want 0", avg)
	}
}
