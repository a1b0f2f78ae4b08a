// Package telemetry is the unified observability layer of the
// reproduction: the OS introspection services (profiling, tracing,
// resource accounting) that §2 of the paper lists among the first
// casualties of kernel-bypass, re-provided above the device by the libOS.
//
// It has three parts:
//
//   - a Registry of named sampled metrics that unifies the per-component
//     stats (fabric drops, frame-pool recycling, NIC ring occupancy,
//     netstack retransmits, completer wakeups, event-loop dispatch depth)
//     behind one snapshot/diff view;
//   - per-qtoken operation spans (see span.go) that attribute latency to
//     individual queue operations as they move issue → device submit →
//     completion → consume, feeding per-queue latency histograms;
//   - a bounded ring-buffer event tracer (see trace.go) with
//     chrome://tracing JSON export, disabled by default and near-zero-cost
//     (one atomic load, zero allocations) when off.
//
// The whole layer is Dapper-shaped: always compiled in, cheap enough to
// leave on in production for counters, and opt-in for the higher-volume
// span/trace machinery.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is a name → metric table. Each metric is a sample function
// that the component registers over its own counters (atomics, or a
// mutex-guarded stats struct) and that runs at snapshot time, so the
// component's hot path never touches the registry.
//
// All methods are safe for concurrent use. Snapshot is the only reader
// of sample functions, so components may take their own locks inside
// them.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: make(map[string]func() int64)}
}

// RegisterFunc registers (or replaces) a sampled metric: fn is invoked at
// snapshot time.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Sample is one named value inside a Snapshot.
type Sample struct {
	Name  string
	Value int64
}

// Snapshot is a point-in-time reading of every metric in a registry,
// sorted by name so renders and diffs are deterministic.
type Snapshot struct {
	When    time.Time
	Samples []Sample
}

// Snapshot reads every sample function. They run outside the
// registry's write path but inside its read lock; they must not re-enter
// the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	out := Snapshot{When: time.Now()}
	out.Samples = make([]Sample, 0, len(r.funcs))
	for name, fn := range r.funcs {
		out.Samples = append(out.Samples, Sample{name, fn()})
	}
	r.mu.RUnlock()
	sort.Slice(out.Samples, func(i, j int) bool { return out.Samples[i].Name < out.Samples[j].Name })
	return out
}

// Get returns the value of name in the snapshot.
func (s Snapshot) Get(name string) (int64, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i].Value, true
	}
	return 0, false
}

// Diff returns s - prev, name-wise: the deltas accumulated between the
// two snapshots. Names present only in s keep their value (prev reads as
// zero); names present only in prev are dropped. The result is sorted,
// so Diff composes with Get and Render.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{When: s.When, Samples: make([]Sample, 0, len(s.Samples))}
	for _, sm := range s.Samples {
		v, _ := prev.Get(sm.Name)
		out.Samples = append(out.Samples, Sample{sm.Name, sm.Value - v})
	}
	return out
}

// NonZero returns only the samples with non-zero values (dashboards use
// it so idle counters do not drown the interesting ones).
func (s Snapshot) NonZero() Snapshot {
	out := Snapshot{When: s.When}
	for _, sm := range s.Samples {
		if sm.Value != 0 {
			out.Samples = append(out.Samples, sm)
		}
	}
	return out
}

// String renders the snapshot as an aligned two-column table.
func (s Snapshot) String() string {
	if len(s.Samples) == 0 {
		return "(no metrics)\n"
	}
	w := 0
	for _, sm := range s.Samples {
		if len(sm.Name) > w {
			w = len(sm.Name)
		}
	}
	var b strings.Builder
	for _, sm := range s.Samples {
		fmt.Fprintf(&b, "%-*s  %d\n", w, sm.Name, sm.Value)
	}
	return b.String()
}
