// Command demi-stat is the observability dashboard the paper argues a
// kernel-bypass OS still owes its operators (§2: "OS functionality" does
// not stop at the data path). It runs an instrumented E1-style echo
// workload over the catnip libOS and reports, per layer, what the
// telemetry registry, qtoken span tables, and event tracer saw:
//
//   - a before/after diff of every registered counter (fabric, NIC,
//     netstack, frame pool, qtokens),
//   - per-queue-descriptor push/pop latency percentiles from the qtoken
//     span tables on both sides of the connection,
//   - optionally (-trace) a chrome://tracing JSON timeline of device and
//     protocol events.
//
// With -chaos the run executes under fabric impairments AND a scheduled
// mid-run crash/restart of the server node (the client rides it out via
// redial-and-replay failover), so the dashboard shows retransmits,
// injected loss, corruption counters, the lifecycle.* crash/restart
// counters, and a timeline of every fired chaos event.
//
// With -selftest demi-stat instead audits counter consistency: it runs
// an impaired echo workload — including a full crash/restart of the
// server halfway through — quiesces, and checks the frame conservation
// laws that must hold if every layer counts honestly, even across a
// stack incarnation boundary (demikernel.Cluster.Conservation states
// them: fabric, NIC, and stack with the crash-time RxFlushed bucket — the
// ring frames the device reclaimed on behalf of a crashed stack, the
// safe-sharing cleanup a kernel used to do when a bypass process died).
// It exits non-zero if any law is violated; `make tier1` runs it.
//
// With -shards N the workload is the RSS-sharded KV server instead of
// the echo pair: the dashboard shows the per-shard datapath (ops, mesh
// traffic, per-stack frames, virtual busy time) and rolls every
// shard.<i>.* counter up into a shard.*.* aggregate, so a skewed
// partition or a chatty mesh is visible at a glance.
//
// With -reshard the workload is an elastic KV node that grows 2→4
// shards and shrinks back to 2 live, under client load: the dashboard
// snapshots the generation gauges (kv_gen / kv_active / kv_migrating),
// the NIC steering state (rss_queues, pinned_flows), and the per-shard
// key and migration ledgers at each generation, so an operator can
// watch ownership hand off — and verify the migrate ledger balances.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/failover"
	"demikernel/internal/chaos"
	"demikernel/internal/experiments"
	"demikernel/internal/fabric"
	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

func main() {
	n := flag.Int("n", 2000, "number of echo round trips")
	payload := flag.Int("payload", 64, "echo payload bytes")
	seed := flag.Int64("seed", 42, "deterministic seed")
	chaos := flag.Bool("chaos", false, "run under fabric impairments (loss/dup/corrupt/reorder)")
	tracePath := flag.String("trace", "", "write a chrome://tracing JSON timeline to this path")
	selftest := flag.Bool("selftest", false, "run the counter-consistency audit and exit")
	shards := flag.Int("shards", 0, "run the sharded-KV dashboard over this many catnip shards")
	tenants := flag.Bool("tenants", false, "run the multi-tenant NIC dashboard (victims + a hostile tenant)")
	ringBatch := flag.Int("ring", 0, "run the echo workload as batched submissions, this many round trips per batch")
	httpView := flag.Bool("http", false, "run the HTTP/1.1 workload dashboard (httpd counters + latency tail)")
	storageView := flag.Bool("storage", false, "run the storage-pushdown dashboard (crossings/GET, spdk.pushdown.* counters, invariant audit)")
	reshardView := flag.Bool("reshard", false, "run the elastic-resharding dashboard (live 2→4→2 reshard under load, generation + steering gauges)")
	storageDepth := flag.Int("depth", 4, "with -storage: index depth for the lookup workload")
	flag.Parse()

	if *ringBatch > 0 && *chaos {
		fmt.Fprintln(os.Stderr, "demi-stat: -ring and -chaos are mutually exclusive (ring batches carry no failover)")
		os.Exit(2)
	}

	if *selftest {
		if err := runSelftest(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "demi-stat: selftest FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("demi-stat: counter-consistency selftest passed")
		return
	}
	if *shards > 0 {
		if err := runSharded(*seed, *shards, *n); err != nil {
			fmt.Fprintf(os.Stderr, "demi-stat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *reshardView {
		if err := runReshard(*seed, *n); err != nil {
			fmt.Fprintf(os.Stderr, "demi-stat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storageView {
		if err := runStorage(*seed, *n, *storageDepth); err != nil {
			fmt.Fprintf(os.Stderr, "demi-stat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *httpView {
		if err := runHTTP(*seed, *n); err != nil {
			fmt.Fprintf(os.Stderr, "demi-stat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tenants {
		if err := runTenants(*seed, *n); err != nil {
			fmt.Fprintf(os.Stderr, "demi-stat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runDashboard(*n, *payload, *seed, *chaos, *tracePath, *ringBatch); err != nil {
		fmt.Fprintf(os.Stderr, "demi-stat: %v\n", err)
		os.Exit(1)
	}
}

// rig is one instrumented catnip echo pair. With ringBatch > 0 the client
// submits ringBatch round trips per batch and harvests them from its
// ring, instead of making the per-op token calls.
type rig struct {
	cluster *demi.Cluster
	srvNode *demi.Node
	cliNode *demi.Node
	reg     *telemetry.Registry
	*experiments.EchoRig
	ringBatch int
}

func (r *rig) rtt(payload []byte, appCost simclock.Lat) (simclock.Lat, error) {
	if r.ringBatch > 0 {
		return r.Client.RTTBatch(payload, appCost, r.ringBatch)
	}
	return r.Client.RTT(payload, appCost)
}

func newRig(seed int64, imp fabric.Impairments, ringBatch int) (*rig, error) {
	c := demi.NewCluster(seed)
	reg := telemetry.NewRegistry()
	fabric.DefaultFramePool.RegisterTelemetry(reg, "framepool")
	fabric.RegisterBurstTelemetry(reg, "burst")
	srvNode := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{Host: 1, RTO: 2 * time.Millisecond}), demi.WithTelemetry(reg))
	cliNode := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{Host: 2, RTO: 2 * time.Millisecond}), demi.WithTelemetry(reg))
	// A silent peer (crashed after ACKing a request) is only detectable
	// through the wait deadline; keep it tight so failover engages fast.
	cliNode.WaitTimeout = 250 * time.Millisecond

	pair, err := experiments.StageEcho(c, srvNode, cliNode)
	if err != nil {
		return nil, err
	}
	// Impairments go live only after the connection is up, so the
	// handshake is clean and every injected fault lands on data frames.
	c.Switch.SetImpairments(imp)
	return &rig{cluster: c, srvNode: srvNode, cliNode: cliNode, reg: reg, EchoRig: pair, ringBatch: ringBatch}, nil
}

func runDashboard(n, payload int, seed int64, underChaos bool, tracePath string, ringBatch int) error {
	var imp fabric.Impairments
	if underChaos {
		imp = fabric.Impairments{LossRate: 0.02, DupRate: 0.01, CorruptRate: 0.01, ReorderRate: 0.02}
	}
	if tracePath != "" {
		telemetry.Trace.Reset()
		telemetry.Trace.Enable()
		defer telemetry.Trace.Disable()
	}

	r, err := newRig(seed, imp, ringBatch)
	if err != nil {
		return err
	}
	defer r.Close()

	// Under -chaos the server dies and comes back mid-run; the client's
	// failover policy rides it out, and the engine's fired-event log
	// becomes the lifecycle timeline rendered below. The engine steps on
	// its own goroutine: the workload loop blocks inside failover while
	// the server is down, and the restart must fire regardless.
	var eng *chaos.Engine
	var engDone chan struct{}
	if underChaos {
		r.Client.EnableFailover(failover.Policy{
			MaxAttempts: 60, Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.5, Seed: seed,
		})
		eng = chaos.New(seed)
		eng.NodeCrashRestart(30*time.Millisecond, 25*time.Millisecond, "server", r.srvNode)
		engDone = make(chan struct{})
		go func() {
			defer close(engDone)
			eng.Run(60*time.Millisecond, time.Millisecond)
		}()
	}

	report := r.cluster.Observe(r.reg)
	buf := make([]byte, payload)
	var rtt metrics.Histogram
	step := 1
	if ringBatch > 0 {
		step = ringBatch
	}
	for i := 0; i < n; i += step {
		cost, err := r.rtt(buf, r.cluster.Model.AppRequestNS)
		if err != nil {
			return fmt.Errorf("rtt %d: %w", i, err)
		}
		rtt.Record(cost)
	}
	if eng != nil {
		<-engDone
	}
	observed := report()

	s := rtt.Summarize()
	if ringBatch > 0 {
		fmt.Printf("echo run: %d RTTs x %dB over catnip rings (seed %d, batch %d)\n", n, payload, seed, ringBatch)
	} else {
		fmt.Printf("echo run: %d RTTs x %dB over catnip (seed %d, chaos=%v)\n", n, payload, seed, underChaos)
	}
	fmt.Printf("virtual RTT: p50=%v p99=%v mean=%v max=%v\n\n", s.P50, s.P99, s.Mean, s.Max)

	if ringBatch > 0 {
		printRings(map[string]*demi.LibOS{"client": r.cliNode.LibOS, "server": r.srvNode.LibOS})
	}
	if eng != nil {
		printLifecycle(eng, r.reg.Snapshot())
	}
	fmt.Print(observed)

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := telemetry.Trace.ExportChromeJSON(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing or ui.perfetto.dev)\n",
			telemetry.Trace.Len(), tracePath)
	}
	return nil
}

// printRings renders per-pair completion-ring state for each libOS:
// counters plus live occupancy — the operator's view of whether an app is
// keeping up with its completion queue.
func printRings(libs map[string]*demi.LibOS) {
	tbl := metrics.NewTable("completion rings",
		"side", "pair", "slab", "cq occ", "submitted", "cq posted", "cq harvested", "outstanding")
	for _, side := range []string{"client", "server"} {
		l, ok := libs[side]
		if !ok {
			continue
		}
		for i, p := range l.Rings() {
			cnt := p.CountersSnapshot()
			tbl.AddRow(side, i, cnt.Slab, cnt.CQOccupancy,
				cnt.Submitted, cnt.CQPosted, cnt.CQHarvested, cnt.Outstanding)
		}
	}
	fmt.Println(tbl.String())
}

// printLifecycle renders the chaos engine's fired-event timeline plus
// every lifecycle.* counter from the final snapshot — the operator's
// view of who died, when, and how cleanly it came back.
func printLifecycle(eng *chaos.Engine, snap telemetry.Snapshot) {
	fmt.Println("== chaos lifecycle timeline ==")
	for _, ev := range eng.FiredEvents() {
		fmt.Printf("  t=%-10v %s (fired at %v)\n", ev.At, ev.Name, ev.FiredAt.Round(time.Millisecond))
	}
	for _, sm := range snap.Samples {
		if strings.Contains(sm.Name, ".lifecycle.") && sm.Value != 0 {
			fmt.Printf("  %-40s %d\n", sm.Name, sm.Value)
		}
	}
	fmt.Println()
}

// runSelftest runs an impaired echo workload — killing and restarting
// the server halfway — quiesces the world, and verifies the frame
// conservation laws across fabric, NIC, and stack incarnations.
func runSelftest(seed int64) error {
	imp := fabric.Impairments{LossRate: 0.05, DupRate: 0.03, CorruptRate: 0.03, ReorderRate: 0.05}
	r, err := newRig(seed, imp, 0)
	if err != nil {
		return err
	}
	defer r.Close()

	// The client must survive the server's death below.
	r.Client.EnableFailover(failover.Policy{
		MaxAttempts: 60, Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.5, Seed: seed,
	})

	buf := make([]byte, 64)
	for i := 0; i < 400; i++ {
		if i == 200 {
			// Kill the server mid-workload: rings flush, qtokens abort,
			// the link drops. Then bring it back and let the client's
			// failover redial. The conservation laws below must balance
			// across the incarnation boundary.
			if _, err := r.srvNode.Crash(); err != nil {
				return fmt.Errorf("crash: %w", err)
			}
			time.Sleep(5 * time.Millisecond)
			if err := r.srvNode.Restart(); err != nil {
				return fmt.Errorf("restart: %w", err)
			}
		}
		if _, err := r.rtt(buf, 0); err != nil {
			return fmt.Errorf("rtt %d: %w", i, err)
		}
	}
	recon, replays := r.Client.FailoverStats()
	if recon == 0 || replays == 0 {
		return fmt.Errorf("failover never engaged across the crash (reconnects=%d replays=%d)", recon, replays)
	}

	// Quiesce — poll across a few RTO periods, a retransmission timer may
	// still fire once — and read the laws. (The rig's pollers keep
	// running; at rest they move no counter.)
	r.cluster.Quiesce(200 * time.Millisecond)
	fs := r.cluster.Switch.Stats()
	fmt.Printf("fabric (law evaluated: %v): delivered=%d dup=%d loss=%d linkdown=%d rxfull=%d\n",
		r.cluster.FabricLawApplies(), fs.Delivered, fs.InjectedDup, fs.InjectedLoss, fs.LinkDownDrops, fs.DroppedRxFull)
	return r.cluster.Conservation()
}

// shardMetricRe matches a per-shard metric name, capturing the prefix
// up to ".shard", the shard index, and the metric suffix.
var shardMetricRe = regexp.MustCompile(`^(.*\.shard)\.(\d+)\.(.+)$`)

// aggregateShards rolls every <p>.shard.<i>.<rest> sample up into one
// <p>.shard.*.<rest> sample summed across shards, preserving samples
// that are not per-shard. The result is re-sorted by construction of
// Snapshot renders (stable map-free pass keeps first-seen order, which
// follows the sorted input).
func aggregateShards(s telemetry.Snapshot) telemetry.Snapshot {
	out := telemetry.Snapshot{When: s.When}
	idx := make(map[string]int)
	for _, sm := range s.Samples {
		name := sm.Name
		if m := shardMetricRe.FindStringSubmatch(name); m != nil {
			name = m[1] + ".*." + m[3]
		}
		if i, ok := idx[name]; ok {
			out.Samples[i].Value += sm.Value
			continue
		}
		idx[name] = len(out.Samples)
		out.Samples = append(out.Samples, telemetry.Sample{Name: name, Value: sm.Value})
	}
	return out
}

// runSharded drives an RSS-aligned KV workload over an n-shard catnip
// server and renders the per-shard datapath plus the cross-shard
// aggregate of every shard.<i>.* counter.
func runSharded(seed int64, shards, ops int) error {
	c := demi.NewCluster(seed)
	reg := telemetry.NewRegistry()
	c.Switch.RegisterTelemetry(reg, "fabric")
	rig, err := experiments.NewKVRig(c, demi.Catnip, shards, shards, 6379, demi.WithTelemetry(reg))
	if err != nil {
		return err
	}
	defer rig.Close()
	srvNode, server := rig.SrvNode, rig.Server
	server.RegisterTelemetry(reg, "host1.shard")

	before := reg.Snapshot()
	if err := rig.SetGet("stat-key", ops, ops, true, nil); err != nil {
		return err
	}
	after := reg.Snapshot()

	fmt.Printf("sharded KV run: %d SET+GET pairs over %d catnip shards (seed %d)\n\n", ops, shards, seed)

	tbl := metrics.NewTable("Per-shard datapath (cumulative)",
		"shard", "conns", "gets", "sets", "fwd out", "fwd in", "keys", "busy (virt ms)", "frames in", "xs sent", "ring occ")
	var maxBusy int64
	for i := 0; i < shards; i++ {
		s := server.StatsOf(i)
		st := srvNode.Sharded.Set.Shard(i).Stack().Stats()
		xs := srvNode.Mesh().StatsOf(i)
		if s.BusyVirtNS > maxBusy {
			maxBusy = s.BusyVirtNS
		}
		// Live CQ occupancy across the shard's attached rings: a nonzero
		// residue after quiesce means an app stopped harvesting.
		var ringOcc int64
		for _, p := range srvNode.Libs()[i].Rings() {
			ringOcc += p.CountersSnapshot().CQOccupancy
		}
		tbl.AddRow(i, s.Connections, s.Gets, s.Sets, s.ForwardedOut, s.ForwardedIn, s.Keys,
			fmt.Sprintf("%.3f", float64(s.BusyVirtNS)/1e6), st.FramesIn, xs.Sent, ringOcc)
	}
	fmt.Println(tbl.String())
	if maxBusy > 0 {
		fmt.Printf("virtual throughput (busiest shard gates): %.1f kOps/s\n\n",
			float64(server.TotalOps())/(float64(maxBusy)/1e9)/1e3)
	}

	fmt.Println("== shard.*.* aggregate across shards (delta over the run) ==")
	fmt.Print(aggregateShards(after.Diff(before)).NonZero().String())
	return nil
}
