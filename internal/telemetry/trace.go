package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the bounded ring-buffer event tracer: a Dapper-ish
// always-compiled-in trace facility whose disabled cost is one atomic
// load and zero allocations — cheap enough to leave the call sites on
// every datapath layer (fabric fault injection, NIC ring drops, netstack
// retransmits, qtoken spans, event-loop dispatch).
//
// Events land in a fixed ring; when the ring wraps, the oldest events are
// overwritten (always-on tracing must be bounded, never a leak). Export
// renders the ring in the chrome://tracing JSON array format, so a trace
// from any run drops straight into chrome://tracing or Perfetto.

// EventKind discriminates tracer event shapes.
type EventKind uint8

// Event kinds.
const (
	// KindInstant is a point event ("i" phase in chrome trace).
	KindInstant EventKind = iota
	// KindSpan is a complete duration event ("X" phase).
	KindSpan
)

// Event is one trace record. Name and Cat must be string constants (or
// otherwise long-lived strings): the tracer stores the header only, so
// emitting allocates nothing.
type Event struct {
	TS   int64 // wall-clock nanoseconds
	Dur  int64 // span duration in nanoseconds (spans only)
	Name string
	Cat  string
	TID  int32 // logical track: queue descriptor, port, or ring index
	Arg  int64 // one numeric payload (virtual cost, burst size, ...)
	Kind EventKind
}

// DefaultTraceCap is the ring capacity of the package-level Trace.
const DefaultTraceCap = 16384

// Tracer is a bounded ring of events. Emission is guarded by an atomic
// enable flag (the only cost when disabled) and a mutex when enabled; the
// ring never grows, so always-on tracing is memory-bounded by
// construction.
type Tracer struct {
	on atomic.Bool

	mu      sync.Mutex
	buf     []Event
	next    int   // slot the next event lands in
	wrapped bool  // ring has overwritten at least one event
	total   int64 // events emitted since Reset (includes overwritten)
}

// NewTracer returns a disabled tracer with the given ring capacity
// (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Trace is the process-wide tracer the datapath layers emit into.
// Disabled by default; `demi-stat -trace` and tests enable it around a run.
var Trace = NewTracer(DefaultTraceCap)

// Enable turns event recording on.
func (t *Tracer) Enable() { t.on.Store(true) }

// Disable turns event recording off; the ring's contents survive for
// export.
func (t *Tracer) Disable() { t.on.Store(false) }

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool { return t.on.Load() }

// Reset clears the ring (recording state is unchanged).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = 0
	t.wrapped = false
	t.total = 0
	for i := range t.buf {
		t.buf[i] = Event{}
	}
}

// Instant records a point event. A no-op (one atomic load) when the
// tracer is disabled.
func (t *Tracer) Instant(cat, name string, tid int32, arg int64) {
	if !t.on.Load() {
		return
	}
	t.emit(Event{TS: time.Now().UnixNano(), Name: name, Cat: cat, TID: tid, Arg: arg, Kind: KindInstant})
}

// Span records a complete duration event starting at startNS wall time.
// A no-op (one atomic load) when the tracer is disabled.
func (t *Tracer) Span(cat, name string, tid int32, startNS, durNS, arg int64) {
	if !t.on.Load() {
		return
	}
	if durNS < 0 {
		durNS = 0
	}
	t.emit(Event{TS: startNS, Dur: durNS, Name: name, Cat: cat, TID: tid, Arg: arg, Kind: KindSpan})
}

func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
	t.total++
	t.mu.Unlock()
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wrapped {
		return len(t.buf)
	}
	return t.next
}

// Events returns the ring's contents oldest-first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// ExportChromeJSON writes the ring's events as a chrome://tracing JSON
// array. Timestamps are rebased to the earliest event so the trace
// starts near zero; chrome's "ts"/"dur" unit is microseconds.
func (t *Tracer) ExportChromeJSON(w io.Writer) error {
	events := t.Events()
	var base int64
	for i, e := range events {
		if i == 0 || e.TS < base {
			base = e.TS
		}
	}
	var b strings.Builder
	b.WriteString("[\n")
	for i, e := range events {
		if i > 0 {
			b.WriteString(",\n")
		}
		ts := float64(e.TS-base) / 1e3
		switch e.Kind {
		case KindSpan:
			fmt.Fprintf(&b,
				`  {"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"v":%d}}`,
				e.Name, e.Cat, ts, float64(e.Dur)/1e3, e.TID, e.Arg)
		default:
			fmt.Fprintf(&b,
				`  {"name":%q,"cat":%q,"ph":"i","s":"g","ts":%.3f,"pid":1,"tid":%d,"args":{"v":%d}}`,
				e.Name, e.Cat, ts, e.TID, e.Arg)
		}
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Package-level helpers over the process-wide Trace, so datapath call
// sites stay one line. All are single-atomic-load no-ops when tracing is
// off.

// TraceInstant records a point event on the process-wide tracer.
func TraceInstant(cat, name string, tid int32, arg int64) { Trace.Instant(cat, name, tid, arg) }
