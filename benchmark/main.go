// Command benchmark is the repo's one benchmark: seven named workloads
// over the real stack, driven closed-loop from one manually pumped
// goroutine, reported on both clocks (wall time and the simclock virtual
// cost model) with a per-layer budget. See README.md in this directory.
//
//	go run ./benchmark -workload echo64 -seed 1 -seconds 8 -trace 0
//	go run ./benchmark -workload echo64 -seed 1 -seconds 8 -trace 1
//	go run ./benchmark -aa -sets 2 -runs 3
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; any failed output check or
// validity check exits non-zero without printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// metricDef describes one reported metric. bound is the share of the
// baseline median by which the metric may worsen before a change counts
// as a regression (end-to-end metrics only).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics BENCHMARK.json gates: what a user of the
// libOS sees, all wall clock, none ever zero. The defining issue asked
// for 7 % on the first three. The contract this benchmark is run under
// refuses it outright when ten runs of one workload spread by more than
// a bound, or when two such sets differ by more in their medians, and
// names a third of the bound as the spread to get under. The host's slow
// spells can outlast a run: it was refused once at 25 %, for a 37 %
// spread of lat_p50_us on echo64_idle1k. Since a pass takes turns on the
// CPUs (affinity_linux.go) two sets of ten runs spread by 1 to 8.4 % on
// these three and their medians differ by under 4 % (README, A/A); the
// bound stays the widest the contract allows, for the hour in which
// every CPU is slow.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"goodput_mb_s", "MB/s", "higher", 0.25},
	{"mem_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// gatedHere are the end-to-end metrics BENCHMARK.json cannot carry as
// such: virt_ns_per_op, in "vns", virtual nanoseconds, reads the same on
// every run of a seed by design, which the contract rejects in a time,
// and fail_share is zero at the baseline, which it rejects too. Every
// run gates them itself instead: an op that fails ends it with a
// non-zero exit, and so does a virt_ns_per_op more than 1 % above the
// workload's recorded baseline. A -trace 0 run prints them as text, a
// -trace 1 run lists them with the per-layer metrics, and -aa compares
// them across sets.
var gatedHere = []metricDef{
	{"virt_ns_per_op", "vns", "lower", 0.01},
	{"fail_share", "ratio", "lower", 0},
}

// diagnostics are reported where gatedHere are and gate nothing.
// lat_p99_us could not hold its 15 % bound in the A/A runs on this
// machine (spreads of 4 to 37 %), so by the defining issue's rule it is
// not a gate. The whole.* numbers are the run as a whole, every window
// and sample, where the gated ones cover the host's fast state only (see
// summarize): a slowdown that strikes more rarely than once a window
// moves these and not those.
var diagnostics = []metricDef{
	{"lat_p99_us", "us", "lower", 0},
	{"whole.ops_per_s", "ops/s", "higher", 0},
	{"whole.lat_p50_us", "us", "lower", 0},
	{"whole.fast_share", "ratio", "higher", 0},
}

var perLayer = append(slices.Concat(gatedHere, diagnostics), []metricDef{
	{"fabric.self_ns", "ns", "lower", 0},
	{"fabric.frames_per_op", "count", "lower", 0},
	{"fabric.drops", "count", "lower", 0},
	{"fabric.pool_miss_share", "ratio", "lower", 0},
	{"nic.self_ns", "ns", "lower", 0},
	{"nic.rx_burst_mean", "count", "higher", 0},
	{"nic.dma_bytes_per_op", "B", "lower", 0},
	{"nic.rx_dropped", "count", "lower", 0},
	{"netstack.self_ns", "ns", "lower", 0},
	{"netstack.segs_tx_per_op", "count", "lower", 0},
	{"netstack.segs_rx_per_op", "count", "lower", 0},
	{"netstack.retransmits", "count", "lower", 0},
	{"netstack.dup_acks", "count", "lower", 0},
	{"netstack.ooo_segs", "count", "lower", 0},
	{"netstack.bytes_per_conn", "B", "lower", 0},
	{"catnip.self_ns", "ns", "lower", 0},
	{"catnip.rx_stalls", "count", "lower", 0},
	{"core.self_ns", "ns", "lower", 0},
	{"core.push_ns", "ns", "lower", 0},
	{"core.pop_ns", "ns", "lower", 0},
	{"core.trywait_ns", "ns", "lower", 0},
	{"core.poll_cli_ns", "ns", "lower", 0},
	{"core.poll_srv_ns", "ns", "lower", 0},
	{"core.idle_poll_ns", "ns", "lower", 0},
	{"core.polls_per_op", "count", "lower", 0},
	{"core.empty_poll_share", "ratio", "lower", 0},
	{"uring.submit_ns", "ns", "lower", 0},
	{"uring.harvest_ns", "ns", "lower", 0},
	{"uring.sqe_per_submit", "count", "higher", 0},
	{"uring.cqe_per_harvest", "count", "higher", 0},
	{"uring.sq_full_spins", "count", "lower", 0},
	{"app.self_ns", "ns", "lower", 0},
	{"app.step_ns", "ns", "lower", 0},
	{"app.client_ns", "ns", "lower", 0},
	{"shard.mesh_forwards_per_op", "count", "lower", 0},
	{"shard.mesh_full_retries", "count", "lower", 0},
	{"catfish.push_ns", "ns", "lower", 0},
	{"catfish.poll_ns", "ns", "lower", 0},
	{"spdk.crossings_per_get", "count", "lower", 0},
	{"spdk.hops_per_get", "count", "lower", 0},
	{"catfish.pool_outstanding", "count", "lower", 0},
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.bytes_per_op", "B", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"ladder.residual_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}...)

// runSeconds is the run length BENCHMARK.json hands the driver.
const runSeconds = 14

type runConfig struct {
	workload string
	def      workloadDef // looked up from workload by runOnce
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	segments int // set-ups (and timed segments) of a -trace 0 run
	warmDiv  int // divides the warm-up op counts (the smoke test's knob)
}

// warmOps is the op count of one warm-up round of this run.
func (cfg runConfig) warmOps() int64 { return max(cfg.def.warmOps/int64(cfg.warmDiv), 64) }

// fullRun is the configuration of everything but the smoke test.
func fullRun(cfg runConfig) runConfig {
	cfg.segments, cfg.warmDiv = 7, 1
	return cfg
}

// runOutput is one run's result; report lines are the human-readable
// part printed above the JSON line. A run an op failed in returns its
// counts beside the error.
type runOutput struct {
	attempted int64 // ops verified, plus the one that failed
	failed    int64
	metrics   map[string]float64
	report    []string
}

// workloadDef is one workload: its name and reason (BENCHMARK.json
// carries both), how to build its rig, and what the harness needs to
// know about it.
type workloadDef struct {
	name, why string
	build     func(seed int64) (rig, error)
	// warmOps is the op count of one warm-up round: about a tenth of a
	// second on this class of machine.
	warmOps int64
	// virt is the baseline of virt_ns_per_op: what the first warm-up
	// round of a fresh rig read when the benchmark was defined, the same
	// for every seed to within 0.1 %. A run that reads more than
	// virtBound above it is invalid.
	virt float64
	// probes marks a workload on which zero-window probes against the
	// 64 KiB RxWindow are legitimate: retransmits are reported but not
	// asserted, and the wall-clock persist timer that sends them may
	// move the virtual clock by up to 1 %.
	probes bool
	// ladder is set on the workloads the layer ladder runs on.
	ladder *ladderSpec
}

var workloads = []workloadDef{
	{
		name: "echo64", warmOps: 16000, virt: 5624,
		why:    "smallest message on one connection, per-op tokens: per-packet cost of every network layer dominates, and the layer ladder must reconcile here",
		build:  func(seed int64) (rig, error) { return newEchoRig(seed, 0, true) },
		ladder: &ladderSpec{payload: echoPayload, top: func(seed int64, app bool) (stepper, error) { return newEchoRig(seed, 0, app) }},
	},
	{
		name: "echo64_idle1k", warmOps: 1500, virt: 5624,
		why:    "echo64 beside 1024 idle established connections: Stack.Poll timer scans and LibOS.Poll QD walks grow with connection count",
		build:  func(seed int64) (rig, error) { return newEchoRig(seed, idleConns, true) },
		ladder: &ladderSpec{payload: echoPayload, idle: idleConns, top: func(seed int64, app bool) (stepper, error) { return newEchoRig(seed, idleConns, app) }},
	},
	{
		name: "ring_echo64_b32", warmOps: ringBatch * 1500, virt: 5774,
		why:   "same pair over the SQ/CQ rings, 32 round trips per batch: uring work with transport sweeps amortised 32x",
		build: func(seed int64) (rig, error) { return newRingRig(seed) },
	},
	{
		name: "stream16k", warmOps: 1500, virt: 2917.93, probes: true,
		why:    "one-way bulk, 8 x 16 KiB pushes outstanding: MSS segmentation, cwnd, window updates and per-byte copy cost",
		build:  func(seed int64) (rig, error) { return newStreamRig(seed, true) },
		ladder: &ladderSpec{payload: streamMsg, oneWay: true, top: func(seed int64, verify bool) (stepper, error) { return newStreamRig(seed, verify) }},
	},
	{
		name: "http_get_b32", warmOps: ringBatch * 600, virt: 5837.7,
		why:   "httpd on its ring, 32 pipelined GETs per batch, Zipf objects, bimodal bodies: parse, route and response build dominate",
		build: func(seed int64) (rig, error) { return newHTTPRig(seed) },
	},
	{
		name: "kv_mix", warmOps: 8000, virt: 7753.9,
		why:   "2-shard KV, 4 RSS-aligned connections, 70/30 GET/SET, 1 in 8 misdirected: writes beside reads plus the cross-shard mesh",
		build: func(seed int64) (rig, error) { return newKVRig(seed) },
	},
	{
		name: "storage_get_d4", warmOps: storageGroup * 3000, virt: 40643,
		why:   "catfish depth-4 pushdown GETs: no network layer at all, the control on which network changes must read unchanged",
		build: func(seed int64) (rig, error) { return newStorageRig(seed) },
	},
}

// warmRounds is how many rounds of warmOps a set-up runs; pools stop
// missing within the first.
const warmRounds = 2

// setUp builds the rig and warms it. It returns the set-up time, and
// the virtual cost per op of the first warm-up round — a fixed op count
// from a fresh state, so for one seed it repeats exactly. That value is
// the reported virt_ns_per_op: a mean over the timed pass would cover a
// different number of ops on every run. The n-th set-up of a run runs on
// the n-th CPU, for the reason the windows of a timed pass do: setup_s is
// the fastest of them.
func setUp(cfg runConfig, n int) (r rig, seconds, virtPerOp float64, err error) {
	if hopper != nil {
		hopper.hop(n)
		defer hopper.release()
	}
	start := time.Now()
	if r, err = cfg.def.build(cfg.seed); err != nil {
		return nil, 0, 0, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
	}
	for round := 0; round < warmRounds; round++ {
		res, err := newPass(0, cfg.warmOps(), 0, nil).run(r)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("warm-up of %s: %w", cfg.workload, err)
		}
		if round == 0 {
			virtPerOp = res.virtPerOp
		}
	}
	return r, time.Since(start).Seconds(), virtPerOp, nil
}

// virtTolerance is how far virt_ns_per_op may differ between two
// same-seed passes: nothing, unless a wall-clock timer can add a probe.
func (w workloadDef) virtTolerance() float64 {
	if w.probes {
		return 0.01
	}
	return 0
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return max(a-b, b-a) / max(a, b)
}

// virtBound is the bound of virt_ns_per_op: the share of the workload's
// baseline by which it may rise before the run is invalid.
const virtBound = 0.01

// timedPass is one timed pass and what was observed around it.
type timedPass struct {
	*pass
	res           passResult
	before, after observed
}

// runTimed drives r for seconds, books the pass's op counts on out and
// applies the validity checks.
func runTimed(cfg runConfig, r rig, seconds float64, tr *tracer, out *runOutput) (timedPass, error) {
	t := timedPass{pass: newPass(seconds, 0, int(seconds*1e6)+1024, tr)}
	t.before = observe(r)
	var err error
	t.res, err = t.run(r)
	out.attempted += t.res.ops + t.res.failed
	out.failed += t.res.failed
	if err != nil {
		return t, err
	}
	t.after = observe(r)
	return t, checkPass(cfg.def.probes, t.before, t.after, t.pass)
}

// runEndToEnd is a -trace 0 run. The timed pass is cfg.segments equal
// segments, each on a freshly set-up rig replaying the seed's op stream
// from its start: the set-ups are the "several set-ups in a run" that
// setup_s needs, they spread over the run so that some see the host's
// fast state, they average the heap layouts a single rig would freeze,
// and they are the same-seed passes virt_ns_per_op is checked across.
func runEndToEnd(cfg runConfig) (runOutput, error) {
	var (
		out          runOutput
		results      []passResult
		setups, mems []float64
		virtFirst    float64
		virt         float64
		maxLat       time.Duration
		dropped      int64
		held         uint64 // bytes of earlier segments' sample buffers
	)
	segSeconds := cfg.seconds / float64(cfg.segments)
	for seg := 0; seg < cfg.segments; seg++ {
		r, t, v, err := setUp(cfg, seg)
		if err != nil {
			return out, err
		}
		setups = append(setups, t)
		if seg == 0 {
			virtFirst = v
			// The baselines are of a full warm-up round.
			if cfg.warmDiv == 1 && v > cfg.def.virt*(1+virtBound) {
				return out, fmt.Errorf("run invalid: virt_ns_per_op %v is more than %g %% above the baseline %v", v, 100*virtBound, cfg.def.virt)
			}
		} else if d := relDiff(v, virtFirst); d > cfg.def.virtTolerance() {
			return out, fmt.Errorf("run invalid: virt_ns_per_op of the same seed differs across set-ups: %v vs %v", v, virtFirst)
		}

		// Memory after set-up and warm-up, before this segment's sample
		// buffer exists. Earlier segments' rigs are garbage by now; their
		// sample buffers are still held, and are not the program's. Two
		// collections, so that sync.Pool victim caches are empty too.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mems = append(mems, float64(ms.HeapInuse-held)/1e6)

		tp, err := runTimed(cfg, r, segSeconds, nil, &out)
		if err != nil {
			return out, err
		}
		held += uint64(cap(tp.samples)) * 4
		results = append(results, tp.res)
		virt += tp.res.virtPerOp * float64(tp.res.ops)
		maxLat = max(maxLat, tp.res.maxLat)
		dropped += tp.res.dropped
	}
	sm := summarize(results...)
	slices.Sort(setups)
	slices.Sort(mems)

	out.metrics = map[string]float64{
		"ops_per_s":        sm.opsPerS,
		"lat_p50_us":       sm.p50us,
		"goodput_mb_s":     sm.goodput,
		"mem_mb":           mems[len(mems)/2],
		"setup_s":          setups[0],
		"virt_ns_per_op":   virtFirst,
		"fail_share":       float64(out.failed) / float64(out.attempted),
		"lat_p99_us":       sm.allP99us,
		"whole.ops_per_s":  sm.allOpsPerS,
		"whole.lat_p50_us": sm.allP50us,
		"whole.fast_share": float64(sm.fast) / float64(sm.windows),
	}
	out.report = append(out.report,
		fmt.Sprintf("%s seed %d: %d ops verified in %d segments of %.2f s; %d of %d windows fast, %d latency samples in them, %d in all (%d beyond the buffers), longest sample %v",
			cfg.workload, cfg.seed, out.attempted, cfg.segments, segSeconds, sm.fast, sm.windows, sm.samples, sm.allSamples, dropped, maxLat),
		fmt.Sprintf("virt_ns_per_op over the first %d ops (repeats across %d same-seed set-ups; %.2f over the timed ops), set-ups %.3f s",
			cfg.warmOps(), cfg.segments, virt/float64(out.attempted), setups))
	return out, nil
}

func runPerLayer(cfg runConfig) (runOutput, error) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	r, _, virtFirst, err := setUp(cfg, 0)
	if err != nil {
		return runOutput{}, err
	}
	clk := clockCost()
	quarter := cfg.seconds / 4

	// Reference pass, tracing off: the counters (C) and the rates the
	// traced pass and the ladder are compared with.
	var out runOutput
	ref, err := runTimed(cfg, r, quarter, nil, &out)
	if err != nil {
		return out, err
	}
	refRes, before, after := ref.res, ref.before, ref.after
	refSum := summarize(refRes)
	ops := float64(refRes.ops)
	m["virt_ns_per_op"] = virtFirst
	m["lat_p99_us"] = refSum.allP99us
	m["whole.ops_per_s"] = refSum.allOpsPerS
	m["whole.lat_p50_us"] = refSum.allP50us
	m["whole.fast_share"] = float64(refSum.fast) / float64(refSum.windows)
	r.layerCounters(m, after.snap.Diff(before.snap), ref.pass)
	m["go.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	m["go.bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
	m["go.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)

	// Traced pass: the spans (S).
	tr := newTracer()
	traced, err := runTimed(cfg, r, quarter, tr, &out)
	if err != nil {
		return out, err
	}
	trRes := traced.res
	m["fail_share"] = float64(out.failed) / float64(out.attempted)
	trSum := summarize(trRes)
	m["trace.overhead_share"] = 1 - trSum.opsPerS/refSum.opsPerS
	for id, name := range map[spanID]string{
		spPush: "core.push_ns", spPop: "core.pop_ns", spTryWait: "core.trywait_ns",
		spPollCli: "core.poll_cli_ns", spPollSrv: "core.poll_srv_ns",
		spSubmit: "uring.submit_ns", spHarvest: "uring.harvest_ns",
		spStep: "app.step_ns", spClient: "app.client_ns",
		spCatfishPush: "catfish.push_ns", spCatfishPoll: "catfish.poll_ns",
	} {
		m[name] = tr.mean(id, clk)
	}
	if r.idlePoll() > 0 { // the rig polls a network libOS
		m["core.polls_per_op"] = ratio(float64(traced.polls), float64(trRes.ops))
		m["core.empty_poll_share"] = ratio(float64(traced.emptyPolls), float64(traced.polls))
	}
	if cfg.traceOut != "" {
		if err := tr.writeChrome(cfg.traceOut); err != nil {
			return runOutput{}, fmt.Errorf("writing %s: %w", cfg.traceOut, err)
		}
	}

	// A LibOS.Poll with nothing to do: the fastest of several bursts.
	if n := r.idlePoll(); n > 0 {
		const bursts, rounds = 20, 1000
		best := time.Duration(1 << 62)
		for b := 0; b < bursts; b++ {
			start := time.Now()
			for i := 0; i < rounds; i++ {
				r.idlePoll()
			}
			best = min(best, time.Since(start))
		}
		m["core.idle_poll_ns"] = float64(best) / float64(rounds*n)
	}

	out.metrics = m
	out.report = append(out.report, fmt.Sprintf(
		"%s seed %d: reference pass %.0f ops/s (%d of %d windows fast), traced pass %.0f ops/s, %d spans (%d kept), clock read %.1f ns",
		cfg.workload, cfg.seed, refSum.opsPerS, refSum.fast, refSum.windows, trSum.opsPerS, spanTotal(tr), len(tr.buf), clk))

	// The ladder (L), on the workloads that define it.
	if spec := cfg.def.ladder; spec != nil {
		lad, err := runLadder(*spec, cfg.seed, cfg.seconds/8)
		if err != nil {
			return runOutput{}, err
		}
		refNS, rate := bestSlice(refRes)
		if spec.oneWay {
			refNS = 1e9 / rate
		}
		top := lad.rung[len(lad.rung)-1]
		m["ladder.residual_share"] = max(top-refNS, refNS-top) / refNS
		m["netstack.bytes_per_conn"] = lad.bytesPerConn
		out.report = append(out.report,
			fmt.Sprintf("layer budget (%s, %d B): rung and self time per op; untraced reference %.0f ns", cfg.workload, spec.payload, refNS),
			fmt.Sprintf("  %-10s %10s %10s %7s", "layer", "rung ns", "self ns", "share"))
		for i, layer := range ladderLayers {
			m[layer+".self_ns"] = lad.self(i)
			out.report = append(out.report, fmt.Sprintf("  %-10s %10.0f %10.0f %6.1f%%",
				layer, lad.rung[i], lad.self(i), 100*lad.self(i)/top))
		}
	}
	return out, nil
}

func spanTotal(t *tracer) int64 {
	var n int64
	for _, c := range t.count {
		n += c
	}
	return n
}

// runOnce is one benchmark run: -trace 0 measures the end-to-end
// metrics, -trace 1 the per-layer ones.
func runOnce(cfg runConfig) (runOutput, error) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == cfg.workload })
	if i < 0 {
		return runOutput{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	cfg.def = workloads[i]
	if cfg.seconds <= 0 {
		return runOutput{}, fmt.Errorf("-seconds must be positive")
	}
	if cfg.trace == 1 {
		return runPerLayer(cfg)
	}
	return runEndToEnd(cfg)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult writes the human-readable report, one line per metric by
// name and unit, and the JSON result as the last line. A -trace 0 run
// prints the gatedHere and diagnostics metrics as text too; its JSON
// carries the end_to_end metrics of BENCHMARK.json and no others.
func printResult(cfg runConfig, out runOutput) error {
	text, inJSON := slices.Concat(endToEnd, gatedHere, diagnostics), len(endToEnd)
	if cfg.trace == 1 {
		text, inJSON = perLayer, len(perLayer)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	res := jsonResult{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]jsonMetric, inJSON)}
	for i, d := range text {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-28s %16.4f %s\n", d.name, v, d.unit)
		if i < inJSON {
			res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "echo64", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the load generator")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed pass")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans as chrome-trace JSON to this file")
	aa := flag.Bool("aa", false, "A/A mode: run every workload in interleaved sets of the same code and compare them")
	sets := flag.Int("sets", 2, "A/A: number of interleaved sets")
	runs := flag.Int("runs", 3, "A/A: runs per set and workload, each with its own seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(*sets, *runs, cfg.seconds))
	}
	hopper = newCPUHopper()
	out, err := runOnce(fullRun(cfg))
	if err == nil {
		err = printResult(cfg, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if out.failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %d of %d ops failed, fail_share %.3g\n",
				out.failed, out.attempted, float64(out.failed)/float64(out.attempted))
		}
		os.Exit(1)
	}
}
