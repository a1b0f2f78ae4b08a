package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSmokeEveryWorkload runs every workload end to end with a 200 ms
// timed pass, one set-up and a tenth of the warm-up, so that `go test
// ./...` fails on a broken rig or a failed output check.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		cfg := runConfig{workload: w.name, seed: 3, seconds: 0.2, segments: 1, warmDiv: 10}
		out, err := runOnce(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.attempted == 0 || out.failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", w.name, out.attempted, out.failed)
		}
		for _, d := range append(slices.Clone(endToEnd), gatedHere[0]) {
			if v, ok := out.metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: metric %s = %v", w.name, d.name, v)
			}
		}
	}
}

// TestSmokePerLayer runs the traced pass and the ladder once, briefly,
// and checks every per-layer metric is reported and the trace is written.
func TestSmokePerLayer(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	cfg := runConfig{workload: "echo64", seed: 3, seconds: 0.4, trace: 1, traceOut: trace, segments: 1, warmDiv: 10}
	out, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if _, ok := out.metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
	for _, name := range []string{"fabric.self_ns", "netstack.self_ns", "core.push_ns", "app.step_ns", "core.idle_poll_ns"} {
		if out.metrics[name] <= 0 {
			t.Errorf("%s = %v on echo64", name, out.metrics[name])
		}
	}
	if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
