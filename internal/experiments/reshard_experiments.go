package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/failover"
	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
)

// runE19 measures the two elasticity claims behind Node.Reshard and
// Node.SwitchKind:
//
//  1. Scaling across a reshard boundary — an elastic node that grows
//     2→4 shards LIVE (keys migrating, RSS re-steered, clients
//     connected) must land on the same virtual scaling curve as a node
//     statically spawned at 4 shards, and client p99 during the
//     migration must stay within the 3x fence of steady state.
//  2. Live libOS switching — promoting a node catnap→catnip must keep
//     the established connection, shed the syscall tax from the very
//     next request, and cost at most ~one steady-state RTT of virtual
//     disturbance ("downtime") at the switch.
func runE19(seed int64) (*Result, error) {
	res := &Result{}
	if err := e19Reshard(seed, res); err != nil {
		return nil, err
	}
	if err := e19Switch(seed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// e19Phase is one measured window of the elastic run: virtual
// throughput over the ops executed in that window only.
type e19Phase struct {
	name        string
	shards      int
	ops         int64
	maxBusyMs   float64
	throughputK float64
	forwards    int64
}

func e19Reshard(seed int64, res *Result) error {
	const (
		port     = 6384
		setsGets = 256
	)
	rig, err := NewKVRig(demi.NewCluster(seed), demi.Catnip, 2, 4, port)
	if err != nil {
		return err
	}
	defer rig.Close()
	srvNode, server, cli := rig.SrvNode, rig.Server, rig.Client

	val := []byte("0123456789abcdef0123456789abcdef")
	var lastOps int64
	lastBusy := make([]int64, server.Size())
	phase := func(name string, n int, collect *[]simclock.Lat) (e19Phase, error) {
		if err := rig.SetGet("e19-key", n, setsGets, true, collect); err != nil {
			return e19Phase{}, fmt.Errorf("%s: %w", name, err)
		}
		p := e19Phase{name: name, shards: cli.Shards(), ops: server.TotalOps() - lastOps}
		var maxBusy int64
		for i := 0; i < server.Size(); i++ {
			b := server.BusyVirt(i) - lastBusy[i]
			if b > maxBusy {
				maxBusy = b
			}
			lastBusy[i] += b
			p.forwards += server.StatsOf(i).ForwardedOut
		}
		lastOps += p.ops
		p.maxBusyMs = float64(maxBusy) / 1e6
		if maxBusy > 0 {
			p.throughputK = float64(p.ops) / (float64(maxBusy) / 1e9) / 1e3
		}
		return p, nil
	}

	var steadyLats []simclock.Lat
	p2, err := phase("steady @2", setsGets, &steadyLats)
	if err != nil {
		return err
	}

	// Grow 2→4 live; keep the client on its stale 2-wide layout while
	// the migration runs, sampling per-op virtual cost the whole time.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srvNode.Reshard(ctx, 4) }()
	var duringLats []simclock.Lat
	for i := 0; (!server.Stable() || len(duringLats) < 64) && len(duringLats) < 2048; i++ {
		key := fmt.Sprintf("e19-key-%04d", i%setsGets)
		cost, err := cli.Set(key, val)
		if err != nil {
			return fmt.Errorf("during reshard: set %s: %w", key, err)
		}
		duringLats = append(duringLats, cost)
	}
	if err := <-done; err != nil {
		return fmt.Errorf("reshard 2→4: %w", err)
	}
	pm, err := phase("during+drain", 0, nil)
	if err != nil {
		return err
	}
	pm.name = fmt.Sprintf("migrating (%d ops sampled)", len(duringLats))

	if err := cli.Resize(4, nil); err != nil {
		return err
	}
	p4, err := phase("steady @4 (post-reshard)", setsGets, nil)
	if err != nil {
		return err
	}

	// The static reference: the same workload on a node born at 4.
	static4, err := RunShardScale(seed, 4, setsGets, true)
	if err != nil {
		return fmt.Errorf("static 4-shard reference: %w", err)
	}

	tbl := metrics.NewTable("E19: virtual throughput across a live 2→4 reshard",
		"phase", "client width", "ops", "busiest shard (ms)", "kOps/s (virtual)", "mesh fwds (cum)")
	for _, p := range []e19Phase{p2, pm, p4} {
		tbl.AddRow(p.name, p.shards, p.ops, fmt.Sprintf("%.3f", p.maxBusyMs),
			fmt.Sprintf("%.1f", p.throughputK), p.forwards)
	}
	tbl.AddRow("static @4 (reference)", 4, static4.Ops,
		fmt.Sprintf("%.3f", static4.MaxBusyVirtM), fmt.Sprintf("%.1f", static4.ThroughputK), static4.ForwardedOut)
	res.Tables = append(res.Tables, tbl)

	p99 := func(lats []simclock.Lat) simclock.Lat {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)*99/100]
	}
	sp99, dp99 := p99(steadyLats), p99(duringLats)
	ptbl := metrics.NewTable("E19: client SET p99 (virtual) across the boundary",
		"window", "samples", "p99", "vs steady")
	ptbl.AddRow("steady @2", len(steadyLats), simclock.Lat(sp99).String(), "1.00x")
	ptbl.AddRow("during reshard", len(duringLats), simclock.Lat(dp99).String(),
		fmt.Sprintf("%.2fx", float64(dp99)/float64(sp99)))
	res.Tables = append(res.Tables, ptbl)

	res.check("post-reshard throughput beats pre-reshard", p4.throughputK > p2.throughputK,
		"2 shards %.1f → 4 shards (live-grown) %.1f kOps/s", p2.throughputK, p4.throughputK)
	res.check("live-grown node matches static spawn (>=80%)",
		p4.throughputK >= 0.8*static4.ThroughputK,
		"live-grown %.1f vs static %.1f kOps/s", p4.throughputK, static4.ThroughputK)
	res.check("p99 during reshard within 3x fence", dp99 <= 3*sp99,
		"during %.2fx of steady (%v vs %v)", float64(dp99)/float64(sp99), dp99, sp99)
	var migOut, migIn, drops int64
	for i := 0; i < server.Size(); i++ {
		st := server.StatsOf(i)
		migOut += st.MigratedOut
		migIn += st.MigratedIn
		drops += st.ForwardDrops
	}
	res.check("migrate ledger balanced, nothing dropped", migOut == migIn && migOut > 0 && drops == 0,
		"migrated out=%d in=%d, forward drops=%d", migOut, migIn, drops)
	res.check("generation advanced exactly once", srvNode.Generation() == 1 && server.Active() == 4,
		"gen=%d active=%d", srvNode.Generation(), server.Active())
	return nil
}

func e19Switch(seed int64, res *Result) error {
	const (
		port    = 8085
		samples = rttSamples
	)
	c := demi.NewCluster(seed + 1)
	srv := c.MustSpawn(demi.Catnap, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catnip, demi.WithHost(2))
	srv.WaitTimeout = 5 * time.Millisecond

	stopS := srv.Background()
	defer stopS()
	stopC := cli.Background()
	defer stopC()

	lqd, err := srv.Socket()
	if err != nil {
		return err
	}
	if err := srv.Bind(lqd, demi.Addr{Port: port}); err != nil {
		return err
	}
	if err := srv.Listen(lqd); err != nil {
		return err
	}
	cqd, err := cli.Socket()
	if err != nil {
		return err
	}
	if err := cli.Connect(cqd, c.AddrOf(srv, port)); err != nil {
		return err
	}
	sqd, err := srv.Accept(lqd)
	if err != nil {
		return err
	}

	// The server's echo loop survives both switches on the same QD: a
	// switch moves no endpoint, so an op parked across it completes as
	// if nothing happened, and one that fails typed simply retries. A
	// wait that times out waits again on the same pop: a fresh pop would
	// park behind it, and the abandoned one would take the next request.
	stopEcho := make(chan struct{})
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		var qt demi.QToken
		parked := false
		for {
			select {
			case <-stopEcho:
				return
			default:
			}
			if !parked {
				var err error
				if qt, err = srv.Pop(sqd); err != nil {
					return
				}
				parked = true
			}
			comp, err := srv.Wait(qt)
			if errors.Is(err, demi.ErrWaitTimeout) {
				continue
			}
			parked = false
			if err != nil || comp.Err != nil {
				if failover.Retriable(err) || failover.Retriable(comp.Err) {
					continue
				}
				return
			}
			if _, err := srv.BlockingPush(sqd, comp.SGA); err != nil && !failover.Retriable(err) {
				return
			}
		}
	}()
	defer func() { close(stopEcho); <-echoDone }()

	payload := make([]byte, 256)
	rtt := func() (simclock.Lat, error) {
		qt, err := cli.PushCost(cqd, demi.NewSGA(payload), c.Model.AppRequestNS)
		if err != nil {
			return 0, err
		}
		if _, err := cli.Wait(qt); err != nil {
			return 0, err
		}
		comp, err := cli.BlockingPop(cqd)
		if err != nil {
			return 0, err
		}
		if comp.Err != nil {
			return 0, comp.Err
		}
		return comp.Cost, nil
	}
	p50 := func(n int) (simclock.Lat, error) {
		var h metrics.Histogram
		for i := 0; i < n; i++ {
			cost, err := rtt()
			if err != nil {
				return 0, err
			}
			h.Record(cost)
		}
		return h.Percentile(50), nil
	}

	kernelP50, err := p50(samples)
	if err != nil {
		return fmt.Errorf("kernel steady: %w", err)
	}
	if err := srv.SwitchKind(demi.Catnip); err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	firstAfterPromote, err := rtt()
	if err != nil {
		return fmt.Errorf("first request after promote: %w", err)
	}
	bypassP50, err := p50(samples)
	if err != nil {
		return fmt.Errorf("bypass steady: %w", err)
	}
	if err := srv.SwitchKind(demi.Catnap); err != nil {
		return fmt.Errorf("demote: %w", err)
	}
	firstAfterDemote, err := rtt()
	if err != nil {
		return fmt.Errorf("first request after demote: %w", err)
	}
	kernelP50Back, err := p50(samples)
	if err != nil {
		return fmt.Errorf("kernel steady after demote: %w", err)
	}

	tbl := metrics.NewTable("E19: live catnap↔catnip switch, one established connection (256 B echo, virtual RTT)",
		"window", "RTT")
	tbl.AddRow("catnap steady p50", kernelP50.String())
	tbl.AddRow("first request after promote", firstAfterPromote.String())
	tbl.AddRow("catnip steady p50", bypassP50.String())
	tbl.AddRow("first request after demote", firstAfterDemote.String())
	tbl.AddRow("catnap steady p50 (back)", kernelP50Back.String())
	res.Tables = append(res.Tables, tbl)

	res.check("connection survives both switches", true,
		"same QDs served %d requests across promote and demote", 3*samples+2)
	res.check("promotion sheds the syscall tax immediately", firstAfterPromote < kernelP50,
		"first bypass request %v < kernel steady %v", firstAfterPromote, kernelP50)
	res.check("switch downtime <= one steady RTT (virtual)",
		firstAfterPromote <= bypassP50+kernelP50 && firstAfterDemote <= 2*kernelP50Back,
		"promote: first %v vs steady %v; demote: first %v vs steady %v",
		firstAfterPromote, bypassP50, firstAfterDemote, kernelP50Back)
	res.check("demotion restores the kernel cost profile", kernelP50Back > bypassP50,
		"kernel %v > bypass %v after the round trip", kernelP50Back, bypassP50)
	return nil
}
