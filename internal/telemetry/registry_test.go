package telemetry

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestCounterGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c1.Add(1)
	c1.Add(4)
	if c2 := r.Counter("a.b"); c2 != c1 {
		t.Fatal("Counter(\"a.b\") returned a different handle on second call")
	}
	if got := r.Counter("a.b").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(9)
	g.Add(-2)
	if got := r.Gauge("depth").Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestSnapshotDeterminism: snapshots are sorted by name and two
// snapshots of unchanged state are identical, so diffs are stable no
// matter the registration order.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz").Add(1)
	r.Counter("aaa").Add(2)
	r.Gauge("mmm").Set(3)
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
	c := r.Counter("ops")
	g := r.Gauge("depth")
	c.Add(10)
	g.Set(5)
	before := r.Snapshot()
	c.Add(7)
	g.Set(2)
	r.Counter("late").Add(3) // registered after the first snapshot
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
	r.Counter("hot").Add(2)
	r.Counter("cold") // stays zero
	s := r.Snapshot().NonZero()
	if len(s.Samples) != 1 || s.Samples[0].Name != "hot" {
		t.Fatalf("NonZero = %v", s.Samples)
	}
	out := s.String()
	if !strings.Contains(out, "hot") || strings.Contains(out, "cold") {
		t.Fatalf("String() = %q", out)
	}
}

// TestRegistryConcurrency: handles and snapshots from many goroutines,
// meaningful under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Add(1)
				r.Gauge("g").Set(int64(i))
				_ = r.Snapshot()
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := r.Counter("shared").Load(); got != 2000 {
		t.Fatalf("shared = %d, want 2000", got)
	}
}
