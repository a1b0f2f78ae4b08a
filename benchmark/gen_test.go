package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestOpStreamRepeatsForASeed(t *testing.T) {
	for _, w := range workloads {
		a, err := encodeOps(w.name, 42, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := encodeOps(w.name, 42, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave two different op streams", w.name)
		}
		c, _ := encodeOps(w.name, 43, 5000)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same op stream", w.name)
		}
	}
}

func draw(t *testing.T, name string, n int) []op {
	t.Helper()
	g, err := newGenerator(name, 7)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// zipfShare is the probability of rank k (0-based) of n under the
// distribution rand.NewZipf(r, s, 1, n-1) draws: P(k) ~ (1+k)^-s.
func zipfShare(k, n int, s float64) float64 {
	var z float64
	for i := 0; i < n; i++ {
		z += math.Pow(float64(1+i), -s)
	}
	return math.Pow(float64(1+k), -s) / z
}

func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f +- %.4f", what, got, want, tol)
	}
}

func TestKVMixMatchesItsParameters(t *testing.T) {
	const n = 400000
	var gets, sets, small, misdirected int
	hits := make([]int, kvKeys)
	for _, o := range draw(t, "kv_mix", n) {
		hits[o.key]++
		if o.misdirect {
			misdirected++
		}
		switch o.kind {
		case opKVGet:
			gets++
		case opKVSet:
			sets++
			if o.size == kvSmallVal {
				small++
			} else if o.size != kvLargeVal {
				t.Fatalf("value size %d is neither mode", o.size)
			}
		default:
			t.Fatalf("kv_mix drew op kind %d", o.kind)
		}
	}
	near(t, "GET share", float64(gets)/n, kvGetShare, 0.005)
	near(t, "small-value share of SETs", float64(small)/float64(sets), kvSmallShare, 0.005)
	near(t, "misdirected share", float64(misdirected)/n, 1.0/kvMisdirectOne, 0.005)
	for _, k := range []int{0, 1, 9} {
		near(t, "Zipf share of a hot key", float64(hits[k])/n, zipfShare(k, kvKeys, httpZipfS), 0.005)
	}
}

func TestHTTPMixMatchesItsParameters(t *testing.T) {
	const n = 400000
	var large int
	hits := make([]int, httpObjects)
	for _, o := range draw(t, "http_get_b32", n) {
		hits[o.key]++
		if int(o.size) != httpBodySize(int(o.key)) {
			t.Fatalf("object %d drawn with body size %d", o.key, o.size)
		}
		if o.size == httpLargeBody {
			large++
		}
	}
	for _, k := range []int{0, 1, 5, 63} {
		near(t, "Zipf share of an object", float64(hits[k])/n, zipfShare(k, httpObjects, httpZipfS), 0.005)
	}
	var objects, wantLarge float64
	for i := 0; i < httpObjects; i++ {
		if httpBodySize(i) == httpLargeBody {
			objects++
			wantLarge += zipfShare(i, httpObjects, httpZipfS)
		}
	}
	near(t, "large share of objects", objects/httpObjects, 0.10, 0.01)
	near(t, "large share of requests", float64(large)/n, wantLarge, 0.005)
}

func TestStorageKeysAreUniform(t *testing.T) {
	const n = 409600
	hits := make([]int, storageKeys)
	for _, o := range draw(t, "storage_get_d4", n) {
		hits[o.key]++
	}
	for k, h := range hits {
		if h < 50 || h > 160 { // mean 100, sd 10
			t.Fatalf("key %d drawn %d times of %d", k, h, n)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3], n=4) and ([1, 2, 4, 7, 11], n=4)
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{11, 1, 7, 2, 4}, []float64{1.5, 4, 9}},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.want[0] || med != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// metric and workload tables in this package from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program says %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, program says %+v", i, b.Workloads[i], w)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, program has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounded && g.Bound != d.bound) {
				t.Errorf("%s metric %d is %+v, program says %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
}
