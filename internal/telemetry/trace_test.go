package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestTracerDisabledRecordsNothing: the disabled tracer must be inert —
// call sites stay compiled into the datapath, so "off" has to mean off.
func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer(32)
	tr.Instant("cat", "ev", 1, 2)
	tr.Span("cat", "sp", 1, 100, 50, 0)
	if tr.Len() != 0 || tr.total != 0 {
		t.Fatalf("disabled tracer recorded: len=%d total=%d", tr.Len(), tr.total)
	}
	if evs := tr.Events(); len(evs) != 0 {
		t.Fatalf("disabled tracer has events: %v", evs)
	}
}

// TestTracerRingWraparound pins the bounded-ring contract: emitting more
// events than capacity keeps only the newest `cap` events, Total still
// counts every emission, and Events() returns oldest-first.
func TestTracerRingWraparound(t *testing.T) {
	const capacity = 16 // NewTracer's minimum
	tr := NewTracer(capacity)
	tr.Enable()
	const emitted = capacity*2 + 5 // wrap twice and change
	for i := 0; i < emitted; i++ {
		tr.Instant("wrap", "ev", int32(i), int64(i))
	}
	if got := tr.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d (ring must stay bounded)", got, capacity)
	}
	if got := tr.total; got != emitted {
		t.Fatalf("Total = %d, want %d (overwritten events still count)", got, emitted)
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("Events returned %d, want %d", len(evs), capacity)
	}
	// The survivors are exactly the newest `capacity` emissions, in order.
	for i, e := range evs {
		want := int64(emitted - capacity + i)
		if e.Arg != want {
			t.Fatalf("Events[%d].Arg = %d, want %d (not oldest-first after wrap)", i, e.Arg, want)
		}
	}
}

// TestTracerResetClears: Reset empties the ring and the total without
// touching the enable state.
func TestTracerResetClears(t *testing.T) {
	tr := NewTracer(16)
	tr.Enable()
	for i := 0; i < 40; i++ {
		tr.Instant("c", "e", 0, int64(i))
	}
	tr.Reset()
	if tr.Len() != 0 || tr.total != 0 {
		t.Fatalf("after Reset: len=%d total=%d", tr.Len(), tr.total)
	}
	if !tr.Enabled() {
		t.Fatal("Reset disabled the tracer")
	}
	tr.Instant("c", "e", 0, 99)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Arg != 99 {
		t.Fatalf("post-Reset emission lost: %v", evs)
	}
}

// TestTracerSpanClampsNegativeDur: a negative duration (clock skew between
// the caller's stamps) must clamp to zero, not poison the export.
func TestTracerSpanClampsNegativeDur(t *testing.T) {
	tr := NewTracer(16)
	tr.Enable()
	tr.Span("c", "s", 0, 1000, -50, 0)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Dur != 0 {
		t.Fatalf("negative dur not clamped: %v", evs)
	}
}

// TestTracerChromeJSONExport: the export must be valid JSON in the
// chrome://tracing array format — "X" complete events with ts/dur in
// microseconds rebased to the earliest event, "i" instants — so a trace
// from any run loads in chrome://tracing or Perfetto unmodified.
func TestTracerChromeJSONExport(t *testing.T) {
	tr := NewTracer(16)
	tr.Enable()
	tr.Span("queue", "op", 7, 5_000_000, 2_000, 123) // starts at 5ms, 2µs long
	tr.Instant("nic", "drop", 2, 9)
	tr.Span("queue", "op", 8, 5_004_000, 1_000, 456) // 4µs after the first

	var sb strings.Builder
	if err := tr.ExportChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 3 {
		t.Fatalf("exported %d events, want 3", len(events))
	}
	first := events[0]
	if first["ph"] != "X" {
		t.Fatalf(`first event ph = %v, want "X"`, first["ph"])
	}
	if ts := first["ts"].(float64); ts != 0 {
		t.Fatalf("ts not rebased: first event ts = %v, want 0", ts)
	}
	if dur := first["dur"].(float64); dur != 2 {
		t.Fatalf("dur = %vµs, want 2 (2000ns)", dur)
	}
	if tid := first["tid"].(float64); tid != 7 {
		t.Fatalf("tid = %v, want 7", tid)
	}
	if arg := first["args"].(map[string]any)["v"].(float64); arg != 123 {
		t.Fatalf("args.v = %v, want 123", arg)
	}
	if events[1]["ph"] != "i" {
		t.Fatalf(`instant ph = %v, want "i"`, events[1]["ph"])
	}
	if ts := events[2]["ts"].(float64); ts != 4 {
		t.Fatalf("third event ts = %vµs, want 4 (rebased from +4000ns)", ts)
	}
}

// TestTracerEmptyExportIsValidJSON: exporting an empty ring still yields
// a parseable (empty) array.
func TestTracerEmptyExportIsValidJSON(t *testing.T) {
	var sb strings.Builder
	if err := NewTracer(16).ExportChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("empty export is not valid JSON: %v\n%q", err, sb.String())
	}
	if len(events) != 0 {
		t.Fatalf("empty tracer exported %d events", len(events))
	}
}

// TestTracerConcurrentEmit: many goroutines emitting and toggling while a
// reader snapshots — meaningful under -race; also checks no emission is
// lost while continuously enabled.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64)
	tr.Enable()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Instant("c", "e", int32(w), int64(i))
				if i%100 == 0 {
					_ = tr.Events()
					_ = tr.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.total; got != workers*per {
		t.Fatalf("Total = %d, want %d (emissions lost under contention)", got, workers*per)
	}
	if got := tr.Len(); got != 64 {
		t.Fatalf("Len = %d, want full ring (64)", got)
	}
}
