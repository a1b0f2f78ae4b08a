package main

// The -http view: run the httpd workload (workload.HTTPDriver) — an
// HTTP/1.1 server directly on catnip queues serving a Zipf-popular object
// tree to keep-alive clients, a fraction of them deliberately slow readers
// — and render what the telemetry saw: the httpd.* counter diff, the full
// stack counter diff underneath it, the per-route service-latency table,
// and the p50..p99.9 tail CCDF the paper's head-of-line arguments are
// about. The slow readers must show up as rx_ready_stalls (the bounded
// ready list parking, turning reader stalls into TCP backpressure) rather
// than as unbounded buffering.

import (
	"fmt"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/metrics"
	"demikernel/internal/telemetry"
	"demikernel/internal/workload"
)

const httpStatPort = 8080

func runHTTP(seed int64, n int) error {
	c := demi.NewCluster(seed)
	reg := telemetry.NewRegistry()
	srvNode := c.MustSpawn(demi.Catnip, demi.WithHost(1), demi.WithTelemetry(reg))
	cliNode := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{
		Host: 2, RxReadyCap: 4,
	}), demi.WithTelemetry(reg))
	cliNode.WaitTimeout = 5 * time.Second

	prod := workload.NewHTTPProduction(64, 1e6, seed)
	tree := httpd.NewTree()
	for _, o := range prod.Objects {
		tree.Add(o.Path, o.Body)
	}

	srv, stopSrv, err := httpd.Serve(srvNode.LibOS, tree, httpStatPort)
	if err != nil {
		return err
	}
	defer stopSrv()
	srv.RegisterTelemetry(reg, "httpd")
	stopCli := cliNode.Background()
	defer stopCli()
	run, err := workload.NewHTTPDriver(prod, 1, func(int) (*httpd.Client, error) {
		cl := httpd.NewClient(cliNode.LibOS)
		return cl, cl.Connect(c.AddrOf(srvNode, httpStatPort))
	})
	if err != nil {
		return err
	}

	before := reg.Snapshot()
	if err := run.Run(n); err != nil {
		return err
	}
	after := reg.Snapshot()

	fmt.Printf("demi-stat -http: %d GETs over 4 keep-alive connections, Zipf(1.2) over %d objects, slow-read episodes\n\n",
		n, len(prod.Objects))
	fmt.Print(after.Diff(before).NonZero().String())
	fmt.Println()
	fmt.Println(srv.LatencyTable().String())
	if h := srv.RouteHistogram("obj"); h != nil && h.Count() > 0 {
		tail := metrics.NewTable("/obj service-latency tail (virtual)",
			"p50", "p90", "p99", "p99.9", "max")
		tail.AddRow(h.Percentile(50), h.Percentile(90), h.Percentile(99),
			h.Percentile(99.9), h.Max())
		fmt.Println(tail.String())
	}

	if got := srv.Stats().Requests; got != int64(n) {
		return fmt.Errorf("served %d of %d requests", got, n)
	}
	if stalls := cliNode.Catnip.RxStalls(); stalls < 1 {
		return fmt.Errorf("slow readers never parked the bounded ready list (rx_ready_stalls=%d)", stalls)
	}
	return nil
}
