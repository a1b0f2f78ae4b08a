// Package telemetry is the unified observability layer of the
// reproduction: the OS introspection services (profiling, tracing,
// resource accounting) that §2 of the paper lists among the first
// casualties of kernel-bypass, re-provided above the device by the libOS.
//
// It has three parts:
//
//   - a process-wide counter/gauge Registry that unifies the previously
//     ad-hoc per-component stats (fabric drops, frame-pool recycling, NIC
//     ring occupancy, netstack retransmits, completer wakeups, event-loop
//     dispatch depth) behind named handles with snapshot/diff support;
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
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing named value. It is a hot-path
// handle: Add/Inc are single atomic adds with no map lookups.
type Counter struct{ v atomic.Int64 }

// Add adds d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a named level that can move both ways (ring occupancy,
// outstanding tokens).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a name → metric table. Components either allocate atomic
// Counter/Gauge handles through it (new code) or register sample
// functions that read their existing mutex-guarded stats structs at
// snapshot time (the adapter path that absorbs the pre-existing ad-hoc
// counters without touching their hot paths).
//
// All methods are safe for concurrent use. Snapshot is the only reader
// of sample functions, so components may take their own locks inside
// them.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
	}
}

// Default is the process-wide registry that commands and apps report
// from. Tests that need isolation build their own with NewRegistry.
var Default = NewRegistry()

// Counter returns the named counter handle, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge handle, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterFunc registers (or replaces) a sampled metric: fn is invoked at
// snapshot time. This is the adapter that lifts existing Stats() structs
// into the registry without converting their fields to atomics.
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

// Snapshot reads every counter, gauge, and sample function. Sample
// functions run outside the registry's write path but inside its read
// lock; they must not re-enter the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	out := Snapshot{When: time.Now()}
	out.Samples = make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.funcs))
	for name, c := range r.counters {
		out.Samples = append(out.Samples, Sample{name, c.Load()})
	}
	for name, g := range r.gauges {
		out.Samples = append(out.Samples, Sample{name, g.Load()})
	}
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
