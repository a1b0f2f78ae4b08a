package telemetry

import (
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// value registers name on r as a sample of a fresh atomic and returns
// the atomic.
func value(r *Registry, name string) *atomic.Int64 {
	v := new(atomic.Int64)
	r.RegisterFunc(name, v.Load)
	return v
}

// TestSnapshotDeterminism: snapshots are sorted by name and two
// snapshots of unchanged state are identical, so diffs are stable no
// matter the registration order.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	value(r, "zzz").Add(1)
	value(r, "aaa").Add(2)
	value(r, "mmm").Store(3)
	r.RegisterFunc("fff", func() int64 { return 4 })

	s1 := r.Snapshot()
	s2 := r.Snapshot()

	names := make([]string, len(s1.Samples))
	for i, smp := range s1.Samples {
		names[i] = smp.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	if !reflect.DeepEqual(s1.Samples, s2.Samples) {
		t.Fatalf("snapshots of unchanged state differ:\n%v\n%v", s1.Samples, s2.Samples)
	}
	if v, ok := s1.Get("mmm"); !ok || v != 3 {
		t.Fatalf("Get(mmm) = %d,%v", v, ok)
	}
	if _, ok := s1.Get("nope"); ok {
		t.Fatal("Get of unknown sample reported ok")
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	ops := value(r, "ops")
	depth := value(r, "depth")
	ops.Add(10)
	depth.Store(5)
	before := r.Snapshot()
	ops.Add(7)
	depth.Store(2)
	value(r, "late").Add(3) // registered after the first snapshot
	after := r.Snapshot()

	d := after.Diff(before)
	want := map[string]int64{"ops": 7, "depth": -3, "late": 3}
	if len(d.Samples) != len(want) {
		t.Fatalf("diff has %d samples, want %d: %v", len(d.Samples), len(want), d.Samples)
	}
	for _, smp := range d.Samples {
		if want[smp.Name] != smp.Value {
			t.Errorf("diff[%s] = %d, want %d", smp.Name, smp.Value, want[smp.Name])
		}
	}
}

func TestSnapshotNonZeroAndString(t *testing.T) {
	r := NewRegistry()
	value(r, "hot").Add(2)
	value(r, "cold") // stays zero
	s := r.Snapshot().NonZero()
	if len(s.Samples) != 1 || s.Samples[0].Name != "hot" {
		t.Fatalf("NonZero = %v", s.Samples)
	}
	out := s.String()
	if !strings.Contains(out, "hot") || strings.Contains(out, "cold") {
		t.Fatalf("String() = %q", out)
	}
}

// TestRegistryConcurrency: registrations and snapshots from many
// goroutines, meaningful under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	shared := value(r, "shared")
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				shared.Add(1)
				r.RegisterFunc("g", func() int64 { return int64(i) })
				_ = r.Snapshot()
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got, _ := r.Snapshot().Get("shared"); got != 2000 {
		t.Fatalf("shared = %d, want 2000", got)
	}
}
