package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
)

// This file implements per-qtoken operation spans: every queue operation
// is timestamped at four stages of its life —
//
//	issue   : the application called Push/Pop (a qtoken was allocated)
//	submit  : the libOS handed the operation to the device-side queue
//	done    : the completion arrived in the token table
//	consume : the application collected the completion (Wait/TryWait/
//	          event-loop dispatch)
//
// — and the record is attributed to the operation's queue descriptor.
// The latency fed into the per-queue histograms is the operation's
// accumulated *virtual* (simclock) cost, so the distributions line up
// with every other number the reproduction reports; the wall-clock stage
// stamps feed the event tracer timeline and the stage-delay averages
// (where completions sit before an event loop picks them up).
//
// The storage actually stamped per token lives inside the completer's
// token state (a small sidecar allocated only while spans are enabled),
// so the disabled hot path pays one atomic load and zero allocations.

// Span op kinds; values mirror queue.OpKind (which this package cannot
// import without a cycle).
const (
	SpanPush = 0
	SpanPop  = 1
)

// SpanRecord is one finished operation span, handed to a SpanTable by
// the completer at consume time. All *NS fields are wall-clock
// nanoseconds; zero means the stage was never stamped (e.g. spans were
// enabled mid-flight, or the op completed inline before submit).
type SpanRecord struct {
	QD   int32 // owning queue descriptor; -1 when unattributed
	Kind int   // SpanPush or SpanPop
	Err  bool  // the operation completed with an error

	IssueNS   int64
	SubmitNS  int64
	DoneNS    int64
	ConsumeNS int64

	// VirtCost is the operation's accumulated virtual latency.
	VirtCost simclock.Lat
}

// queueKey identifies one per-queue, per-kind latency series.
type queueKey struct {
	qd   int32
	kind int
}

type queueLat struct {
	hist   metrics.Histogram // virtual cost per completed op
	errs   int64
	waitNS int64 // total done→consume wall delay
	opNS   int64 // total submit→done wall delay
	n      int64
}

// SpanTable aggregates operation spans for one completer (one libOS).
// Recording is gated on an atomic enable flag; when disabled every entry
// point returns after a single atomic load.
type SpanTable struct {
	enabled atomic.Bool

	mu     sync.Mutex
	name   string
	queues map[queueKey]*queueLat
}

// NewSpanTable returns a disabled span table labelled name (the label
// becomes the tracer category for this table's span events).
func NewSpanTable(name string) *SpanTable {
	return &SpanTable{name: name, queues: make(map[queueKey]*queueLat)}
}

// SetName relabels the table (core.LibOS names it after its transport).
func (t *SpanTable) SetName(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.name = name
}

// Name returns the table's label.
func (t *SpanTable) Name() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.name
}

// Enable turns span recording on.
func (t *SpanTable) Enable() { t.enabled.Store(true) }

// Disable turns span recording off. Aggregates survive for reporting.
func (t *SpanTable) Disable() { t.enabled.Store(false) }

// Enabled reports whether spans are being recorded. It is the hot-path
// gate: one atomic load.
func (t *SpanTable) Enabled() bool { return t.enabled.Load() }

// Record folds one finished span into the per-queue aggregates and, when
// the process tracer is live, emits the matching timeline events.
func (t *SpanTable) Record(r SpanRecord) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	name := t.name
	k := queueKey{r.QD, r.Kind}
	q := t.queues[k]
	if q == nil {
		q = &queueLat{}
		t.queues[k] = q
	}
	q.n++
	if r.Err {
		q.errs++
	} else {
		q.hist.Record(r.VirtCost)
	}
	if r.DoneNS > 0 && r.ConsumeNS >= r.DoneNS {
		q.waitNS += r.ConsumeNS - r.DoneNS
	}
	start := r.SubmitNS
	if start == 0 {
		start = r.IssueNS
	}
	if start > 0 && r.DoneNS >= start {
		q.opNS += r.DoneNS - start
	}
	t.mu.Unlock()

	if Trace.Enabled() && start > 0 && r.DoneNS >= start {
		opName := "push"
		if r.Kind == SpanPop {
			opName = "pop"
		}
		Trace.Span(name, opName, r.QD, start, r.DoneNS-start, int64(r.VirtCost))
	}
}

// QueueSummary digests one queue's latency series.
type QueueSummary struct {
	QD   int32
	Kind int // SpanPush or SpanPop
	// Ops counts finished operations (including errors); Errs the subset
	// that completed with an error.
	Ops  int64
	Errs int64
	// Virtual-latency digest of the successful operations.
	Lat metrics.Summary
	// AvgOpWallNS is the mean wall-clock submit→done delay;
	// AvgConsumeWallNS the mean done→consume delay (how long completions
	// waited to be collected).
	AvgOpWallNS      int64
	AvgConsumeWallNS int64
}

// KindString names a span kind.
func KindString(kind int) string {
	if kind == SpanPop {
		return "pop"
	}
	return "push"
}

// Summaries returns one digest per (queue, kind) series, sorted by queue
// descriptor then kind, so reports are deterministic.
func (t *SpanTable) Summaries() []QueueSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]QueueSummary, 0, len(t.queues))
	for k, q := range t.queues {
		s := QueueSummary{QD: k.qd, Kind: k.kind, Ops: q.n, Errs: q.errs, Lat: q.hist.Summarize()}
		if q.n > 0 {
			s.AvgOpWallNS = q.opNS / q.n
			s.AvgConsumeWallNS = q.waitNS / q.n
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].QD != out[j].QD {
			return out[i].QD < out[j].QD
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Table renders the per-queue latency summaries as a metrics table
// (what Cluster.Observe renders after the counter diff).
func (t *SpanTable) Table() *metrics.Table {
	tbl := metrics.NewTable("per-queue operation latency ("+t.Name()+")",
		"qd", "op", "ops", "errs", "p50", "p99", "mean", "max")
	for _, s := range t.Summaries() {
		tbl.AddRow(s.QD, KindString(s.Kind), s.Ops, s.Errs, s.Lat.P50, s.Lat.P99, s.Lat.Mean, s.Lat.Max)
	}
	return tbl
}

// Reset drops all aggregates (recording state unchanged).
func (t *SpanTable) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queues = make(map[queueKey]*queueLat)
}
