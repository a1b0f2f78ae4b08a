package experiments

import (
	"fmt"

	demi "demikernel"
	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
)

// The ablations probe the design choices DESIGN.md calls out: is the
// bypass win really about syscalls alone, and how sensitive is the
// zero-copy argument to memory bandwidth? They are not paper figures;
// they stress the *reasons* behind the paper's claims.

// echoOverModel builds an echo rig over a custom cost model and measures
// round trips.
func echoOverModel(flavor string, seed int64, model simclock.CostModel, size, n int) (*metrics.Histogram, error) {
	c := demi.NewClusterWithModel(seed, model)
	srvNode, err := newNodeOn(c, flavor, demi.NodeConfig{Host: 1})
	if err != nil {
		return nil, err
	}
	cliNode, err := newNodeOn(c, flavor, demi.NodeConfig{Host: 2})
	if err != nil {
		return nil, err
	}
	srv := echo.NewServer(srvNode.LibOS)
	srv.AppCost = c.Model.AppRequestNS
	if err := srv.Listen(7); err != nil {
		return nil, err
	}
	stopS := srvNode.Background()
	defer stopS()
	stopC := cliNode.Background()
	defer stopC()
	stopServe := make(chan struct{})
	defer close(stopServe)
	go srv.Run(stopServe)

	cli := echo.NewClient(cliNode.LibOS)
	if err := cli.Connect(c.AddrOf(srvNode, 7)); err != nil {
		return nil, err
	}
	payload := make([]byte, size)
	var h metrics.Histogram
	for i := 0; i < n; i++ {
		cost, err := cli.RTT(payload, c.Model.AppRequestNS)
		if err != nil {
			return nil, err
		}
		h.Record(cost)
	}
	return &h, nil
}

func newNodeOn(c *demi.Cluster, flavor string, cfg demi.NodeConfig) (*demi.Node, error) {
	switch flavor {
	case "catnip":
		return c.MustSpawn(demi.Catnip, demi.WithConfig(cfg)), nil
	case "catnap":
		return c.MustSpawn(demi.Catnap, demi.WithConfig(cfg)), nil
	case "catmint":
		return c.MustSpawn(demi.Catmint, demi.WithConfig(cfg)), nil
	default:
		return nil, fmt.Errorf("unknown libOS flavor %q", flavor)
	}
}

// runA1 ablates the syscall cost: if syscalls were free, would the
// kernel path catch up? The paper argues no — "the kernel's I/O
// abstraction is as much a barrier to performance as the kernel itself"
// (§3.2): the copies, the heavier stack, and the POSIX semantics remain.
func runA1(seed int64) (*Result, error) {
	res := &Result{}
	tbl := metrics.NewTable("A1: 4KB echo RTT as the syscall price varies",
		"syscall cost", "kernel p50", "bypass p50", "kernel/bypass")
	var ratioAtZero, ratioAtFull float64
	for _, syscallNS := range []simclock.Lat{0, 250, 500, 1000, 2000} {
		model := simclock.Datacenter2019()
		model.SyscallNS = syscallNS
		kh, err := echoOverModel("catnap", seed, model, 4096, rttSamples)
		if err != nil {
			return nil, err
		}
		bh, err := echoOverModel("catnip", seed, model, 4096, rttSamples)
		if err != nil {
			return nil, err
		}
		ratio := float64(kh.Percentile(50)) / float64(bh.Percentile(50))
		if syscallNS == 0 {
			ratioAtZero = ratio
		}
		if syscallNS == 500 {
			ratioAtFull = ratio
		}
		tbl.AddRow(syscallNS, kh.Percentile(50), bh.Percentile(50), fmt.Sprintf("%.2fx", ratio))
	}
	res.Tables = append(res.Tables, tbl)

	res.check("kernel path stays slower even with free syscalls (§3.2: the abstraction is the barrier)",
		ratioAtZero > 1.2, "ratio at syscall=0 is %.2f", ratioAtZero)
	res.check("syscall price widens the gap", ratioAtFull > ratioAtZero,
		"ratio grows from %.2f to %.2f", ratioAtZero, ratioAtFull)
	return res, nil
}

// runA2 ablates the copy cost (memory bandwidth): the zero-copy
// advantage must scale with the price of a byte.
func runA2(seed int64) (*Result, error) {
	res := &Result{}
	tbl := metrics.NewTable("A2: 4KB KV GET as the copy price varies",
		"copy ns/B", "copy-path p50", "zero-copy p50", "delta")
	var deltas []simclock.Lat
	for _, perByte := range []float64{0.06, 0.244, 0.5, 1.0} {
		model := simclock.Datacenter2019()
		model.CopyPerByteNS = perByte

		var p50s [2]simclock.Lat
		for i, flavor := range []string{"catnap", "catnip"} {
			c := demi.NewClusterWithModel(seed, model)
			srvNode, err := newNodeOn(c, flavor, demi.NodeConfig{Host: 1})
			if err != nil {
				return nil, err
			}
			cliNode, err := newNodeOn(c, flavor, demi.NodeConfig{Host: 2})
			if err != nil {
				return nil, err
			}
			srv := kv.NewServer(srvNode.LibOS, &c.Model)
			if err := srv.Listen(6379); err != nil {
				return nil, err
			}
			stopS := srvNode.Background()
			stopC := cliNode.Background()
			stopServe := make(chan struct{})
			srv.Run(stopServe)
			cli := kv.NewClient(cliNode.LibOS)
			if err := cli.Connect(c.AddrOf(srvNode, 6379)); err != nil {
				return nil, err
			}
			if _, err := cli.Set("k", make([]byte, 4096)); err != nil {
				return nil, err
			}
			var h metrics.Histogram
			for j := 0; j < rttSamples; j++ {
				_, cost, found, err := cli.Get("k")
				if err != nil || !found {
					return nil, fmt.Errorf("get: %v found=%v", err, found)
				}
				h.Record(cost)
			}
			close(stopServe)
			stopC()
			stopS()
			p50s[i] = h.Percentile(50)
		}
		delta := p50s[0] - p50s[1]
		deltas = append(deltas, delta)
		tbl.AddRow(fmt.Sprintf("%.3f", perByte), p50s[0], p50s[1], delta)
	}
	res.Tables = append(res.Tables, tbl)

	monotonic := true
	for i := 1; i < len(deltas); i++ {
		if deltas[i] <= deltas[i-1] {
			monotonic = false
		}
	}
	res.check("zero-copy advantage grows with copy price", monotonic,
		"deltas: %v", deltas)
	res.check("advantage persists even at DDR5-class bandwidth",
		deltas[0] > 0, "delta at 0.06 ns/B = %v", deltas[0])
	return res, nil
}
