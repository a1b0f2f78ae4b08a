// Command demi-stat gives an operator back the eyes a kernel-bypass OS
// still owes them (the paper's §2). It stages one named rig, runs n
// operations under Cluster.Observe and prints what moved: every counter
// delta, the qtoken span tables, the shard.<i> → shard.* roll-up and any
// chaos events. Then it quiesces the cluster, stops the rig and reads the
// frame-conservation laws (Cluster.Conservation); a violation exits 1.
//
//	demi-stat [-rig echo|ring|chaos|kv|reshard|http|tenants|storage] [-n N] [-seed S] [-trace out.json]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/failover"
	"demikernel/internal/chaos"
	"demikernel/internal/experiments"
	"demikernel/internal/fabric"
	"demikernel/internal/telemetry"
)

// rig is one staged scenario: its cluster, a run of n operations, the
// teardown that stops its pollers, and its chaos engine, if any. A rig
// registers its application's counters; Observe registers the rest.
type rig struct {
	c     *demi.Cluster
	run   func(n int) error
	close func()
	eng   *chaos.Engine
}

type builder func(seed int64, reg *telemetry.Registry) (*rig, error)

var rigs = map[string]builder{
	"echo":    func(seed int64, _ *telemetry.Registry) (*rig, error) { return echoRig(seed, 1, false) },
	"ring":    func(seed int64, _ *telemetry.Registry) (*rig, error) { return echoRig(seed, 8, false) },
	"chaos":   func(seed int64, _ *telemetry.Registry) (*rig, error) { return echoRig(seed, 1, true) },
	"kv":      func(seed int64, reg *telemetry.Registry) (*rig, error) { return kvRig(seed, reg, 4) },
	"reshard": func(seed int64, reg *telemetry.Registry) (*rig, error) { return kvRig(seed, reg, 2, 4, 2) },
	"http":    httpRig,
	"tenants": tenantsRig,
	"storage": storageRig,
}

func main() { os.Exit(stat(os.Args[1:], os.Stdout, os.Stderr)) }

// stat runs the command and returns its exit status: 2 for a bad command
// line, 1 for a failed run or a violated law.
func stat(args []string, stdout, stderr io.Writer) int {
	names := strings.Join(slices.Sorted(maps.Keys(rigs)), ", ")
	fs := flag.NewFlagSet("demi-stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("rig", "echo", "rig to stage: "+names)
	n := fs.Int("n", 500, "operations to run")
	seed := fs.Int64("seed", 42, "deterministic seed")
	tracePath := fs.String("trace", "", "write a chrome://tracing JSON timeline to this path")
	if fs.Parse(args) != nil {
		return 2
	}
	build, ok := rigs[*name]
	if !ok {
		fmt.Fprintf(stderr, "demi-stat: unknown rig %q (one of: %s)\n", *name, names)
		return 2
	}
	if err := observe(stdout, build, *n, *seed, *tracePath); err != nil {
		fmt.Fprintf(stderr, "demi-stat: %v\n", err)
		return 1
	}
	return 0
}

// observe builds a rig, runs it under Cluster.Observe and prints the
// window, then reads the laws as the soaks do: after Quiesce, with the
// rig stopped.
func observe(w io.Writer, build builder, n int, seed int64, tracePath string) error {
	if tracePath != "" {
		telemetry.Trace.Enable()
		defer telemetry.Trace.Disable()
	}
	reg := telemetry.NewRegistry()
	fabric.DefaultFramePool.RegisterTelemetry(reg, "framepool")
	fabric.RegisterBurstTelemetry(reg, "burst")
	r, err := build(seed, reg)
	if err != nil {
		return err
	}
	stop := sync.OnceFunc(r.close)
	defer stop()
	report := r.c.Observe(reg)
	before := reg.Snapshot()
	if err := r.run(n); err != nil {
		return err
	}
	fmt.Fprint(w, report())
	if up := rollup(reg.Snapshot().Diff(before)).NonZero(); len(up.Samples) > 0 {
		fmt.Fprintf(w, "== shard.* roll-up (delta over the window) ==\n%s\n", up)
	}
	if r.eng != nil {
		fmt.Fprintln(w, "== chaos events ==")
		for _, ev := range r.eng.FiredEvents() {
			fmt.Fprintf(w, "  t=%-10v %s (fired at %v)\n", ev.At, ev.Name, ev.FiredAt.Round(time.Millisecond))
		}
	}
	r.c.Quiesce(200 * time.Millisecond)
	stop()
	if err := r.c.Conservation(); err != nil {
		return fmt.Errorf("conservation laws violated:\n%w", err)
	}
	laws := fmt.Sprintf("hold (fabric law evaluated: %v)", r.c.FabricLawApplies())
	if r.c.Switch.NumPorts() == 0 {
		laws = "none stated (no node on the fabric)"
	}
	fmt.Fprintln(w, "laws:", laws)
	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "writing %d trace events to %s\n", telemetry.Trace.Len(), tracePath)
	return errors.Join(telemetry.Trace.ExportChromeJSON(f), f.Close())
}

var shardName = regexp.MustCompile(`^(.*\.shard)\.\d+\.(.+)$`)

// rollup sums every <p>.shard.<i>.<rest> sample of s (shardName) into one
// <p>.shard.*.<rest> sample and drops the rest, so a skewed partition or a
// chatty mesh reads at a glance.
func rollup(s telemetry.Snapshot) telemetry.Snapshot {
	sums := make(map[string]int64)
	for _, sm := range s.Samples {
		if m := shardName.FindStringSubmatch(sm.Name); m != nil {
			sums[m[1]+".*."+m[2]] += sm.Value
		}
	}
	out := telemetry.Snapshot{When: s.When}
	for _, name := range slices.Sorted(maps.Keys(sums)) {
		out.Samples = append(out.Samples, telemetry.Sample{Name: name, Value: sums[name]})
	}
	return out
}

// echoRig stages echo between two catnip nodes, the client issuing batch
// round trips per call. Impaired, the fabric loses, duplicates, corrupts
// and reorders frames, and the server crashes 30 ms in and restarts 25 ms
// later while the client fails over; the run goes on past n until the
// schedule is done.
func echoRig(seed int64, batch int, impaired bool) (*rig, error) {
	c := demi.NewCluster(seed)
	rto := 2 * time.Millisecond // recovers inside the chaos schedule
	if !impaired {
		rto = 0 // the default: node clocks keep wall time, so a poller descheduled 2 ms would retransmit
	}
	srv := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{Host: 1, RTO: rto}))
	cli := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{Host: 2, RTO: rto}))
	cli.WaitTimeout = 250 * time.Millisecond // a dead server shows only here: fail over fast
	pair, err := experiments.StageEcho(c, srv, cli)
	if err != nil {
		return nil, err
	}
	r := &rig{c: c, close: pair.Close}
	if impaired {
		pair.Client.EnableFailover(failover.Policy{MaxAttempts: 60, Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.5, Seed: seed})
		c.Switch.SetImpairments(fabric.Impairments{LossRate: 0.05, DupRate: 0.03, CorruptRate: 0.03, ReorderRate: 0.05})
		r.eng = chaos.New(seed, cli.Clock()).NodeCrashRestart(30*time.Millisecond, 25*time.Millisecond, "server", srv)
	}
	buf, cost := make([]byte, 64), c.Model.AppRequestNS
	r.run = func(n int) (err error) {
		if r.eng != nil {
			// The engine steps on its own goroutine: the run blocks in
			// failover while the server is down, and the restart must fire.
			done := make(chan struct{})
			go func() { defer close(done); r.eng.Run(60 * time.Millisecond) }()
			defer func() { <-done }()
		}
		for i := 0; err == nil && (i < n || r.eng != nil && !r.eng.Done()); i += batch {
			if batch == 1 {
				_, err = pair.Client.RTT(buf, cost)
			} else {
				_, err = pair.Client.RTTBatch(buf, cost, min(batch, n-i))
			}
		}
		return err
	}
	return r, nil
}

// kvRig is experiments.KVRig on a node of 4 catnip shards, its RSS-aligned
// client issuing the n SET+GET pairs in equal shares, one per width: the
// node starts at the first width and reshards live to each next one.
func kvRig(seed int64, reg *telemetry.Registry, widths ...int) (*rig, error) {
	c := demi.NewCluster(seed)
	kv, err := experiments.NewKVRig(c, demi.Catnip, widths[0], 4, 6379)
	if err != nil {
		return nil, err
	}
	kv.Server.RegisterTelemetry(reg, "host1.shard")
	kv.Client.EnableFailover(failover.Policy{MaxAttempts: 25, Base: time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.5, Seed: seed}, nil)
	run := func(n int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		share := n / len(widths)
		for i, width := range widths {
			if i > 0 {
				if err := kv.SrvNode.Reshard(ctx, width); err != nil {
					return fmt.Errorf("reshard to %d: %w", width, err)
				} else if err := kv.Client.Resize(width, nil); err != nil {
					return fmt.Errorf("resize client to %d: %w", width, err)
				}
			}
			if err := kv.SetGet("stat-key", share, max(share, 1), true, nil); err != nil {
				return err
			}
		}
		return nil
	}
	return &rig{c: c, close: kv.Close, run: run}, nil
}

// httpRig is experiments.HTTPSoakRig: workload.HTTPDriver's keep-alive
// clients, slow readers and churn against a 2-shard httpd, crashed and
// restarted halfway through the n requests.
func httpRig(seed int64, reg *telemetry.Registry) (*rig, error) {
	h, err := experiments.NewHTTPSoakRig(seed)
	if err != nil {
		return nil, err
	}
	for i, srv := range h.Servers {
		srv.RegisterTelemetry(reg, fmt.Sprintf("host1.shard.%d.httpd", i))
	}
	return &rig{c: h.Cluster, run: h.Run, close: h.Close}, nil
}

// tenantsRig is experiments.TenantRig: two victims' echo beside a hostile
// tenant that floods, leaks and is crashed a third of the way through.
func tenantsRig(seed int64, _ *telemetry.Registry) (*rig, error) {
	t, err := experiments.NewTenantRig(seed)
	if err != nil {
		return nil, err
	}
	r := &rig{c: t.Cluster, close: t.Close}
	r.run = func(n int) (err error) {
		r.eng, err = t.Run(n/3, n-n/3)
		return err
	}
	return r, nil
}

// storageRig sends each of n GETs to a depth-4 index in both lookup modes:
// the step function pushed into the device, and run on the host.
func storageRig(seed int64, reg *telemetry.Registry) (*rig, error) {
	c := demi.NewCluster(seed)
	var modes []*experiments.LookupRig
	for i, mode := range []string{"pushdown", "fallback"} {
		m, err := experiments.NewLookupRig(c, 4, i == 0, demi.WithHost(byte(i+1)))
		if err != nil {
			return nil, err
		}
		reg.RegisterFunc("lookup."+mode+".lookups", func() int64 { return m.Queue.Stats().Lookups })
		reg.RegisterFunc("lookup."+mode+".crossings", func() int64 { return m.Queue.Stats().Crossings })
		modes = append(modes, m)
	}
	run := func(n int) (err error) {
		for i := 0; i < 2*n && err == nil; i++ {
			m := modes[i%2]
			_, _, err = m.Get(m.Pairs[i/2%len(m.Pairs)].Key)
		}
		return err
	}
	return &rig{c: c, close: func() {}, run: run}, nil
}
