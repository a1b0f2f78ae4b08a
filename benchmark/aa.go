package main

// A/A mode: the same code measured in interleaved sets, each run a
// fresh process of this binary (as the driver runs it), so the
// benchmark can be judged by its own bounds: for every end-to-end
// metric the run-to-run spread of each set, and the gap between set
// medians, must stay inside the metric's bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// quartiles returns the first quartile, median and third quartile of
// values as Python's statistics.quantiles(values, n=4) computes them
// (the "exclusive" method), the statistic the benchmark contract names.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*(len(d)+1)/n, 1), len(d)-1)
		delta := i*(len(d)+1) - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// runChild runs one workload once in a child process, exactly as the
// driver does, and returns every metric it printed: the "name value
// unit" lines, which carry the metrics the JSON result line may not.
func runChild(self, workload string, seed int, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	m := make(map[string]float64)
	for _, line := range lines[:len(lines)-1] {
		if f := bytes.Fields(line); len(f) == 3 {
			if v, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
				m[string(f[0])] = v
			}
		}
	}
	return m, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's bad direction (negative when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runAA(sets, runs int, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if sets < 2 || runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs -sets >= 2 and -runs >= 1")
		return 2
	}
	defs := slices.Concat(endToEnd, gatedHere, diagnostics)
	breaches := 0
	for _, w := range workloads {
		// values[set][metric] = one value per run; run k uses seed k+1 in
		// every set, and the sets are interleaved run by run.
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = make(map[string][]float64)
		}
		for run := 0; run < runs; run++ {
			for s := 0; s < sets; s++ {
				m, err := runChild(self, w.name, run+1, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for _, d := range defs {
					v, ok := m[d.name]
					if !ok {
						fmt.Fprintf(os.Stderr, "benchmark: %s seed %d printed no %s\n", w.name, run+1, d.name)
						return 1
					}
					values[s][d.name] = append(values[s][d.name], v)
				}
			}
		}
		fmt.Printf("\n%s: %d sets x %d runs of %.3g s\n", w.name, sets, runs, seconds)
		fmt.Printf("  %-16s %-6s %3s %14s %14s %14s %8s %8s %7s  %s\n",
			"metric", "unit", "set", "q1", "median", "q3", "spread", "gap", "bound", "verdict")
		// The virtual clock must repeat for a seed, set against set.
		for run, v := range values[0]["virt_ns_per_op"] {
			for s := 1; s < sets; s++ {
				if o := values[s]["virt_ns_per_op"][run]; relDiff(v, o) > w.virtTolerance() {
					fmt.Printf("  virt_ns_per_op of seed %d: %v in set 0, %v in set %d  BREACH\n", run+1, v, o, s)
					breaches++
				}
			}
		}
		for i, d := range defs {
			bound := d.bound
			_, base, _ := quartiles(values[0][d.name])
			for s := 0; s < sets; s++ {
				q1, med, q3 := quartiles(values[s][d.name])
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				gap := worseBy(d, base, med)
				verdict := "ok"
				switch {
				case i >= len(endToEnd)+len(gatedHere):
					verdict = "diagnostic"
				// set-up time is gated on its median only
				case (spread > bound && d.name != "setup_s") || gap > bound:
					verdict = "BREACH"
					breaches++
				}
				fmt.Printf("  %-16s %-6s %3d %14.4f %14.4f %14.4f %7.2f%% %7.2f%% %6.1f%%  %s\n",
					d.name, d.unit, s, q1, med, q3, 100*spread, 100*gap, 100*bound, verdict)
			}
		}
	}
	if breaches > 0 {
		fmt.Printf("\nA/A: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("\nA/A: every metric within its bound")
	return 0
}
