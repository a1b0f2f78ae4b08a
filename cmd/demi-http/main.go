// Command demi-http drives the HTTP/1.1 server that runs directly on
// catnip queues — the paper's "real application on the bypass path"
// workload — with a production-shaped driver: a 2-shard catnip server
// serving a Zipf-popular cached object tree to keep-alive clients with
// connection churn and deliberately slow readers, with a full
// crash/restart of the server node halfway through. It prints the
// httpd.* telemetry counters per shard and the per-route service-latency
// table with the p99/p99.9 tail the paper cares about, plus the
// rx_ready_stalls count that shows the slow readers being converted into
// TCP backpressure instead of unbounded buffering.
//
// Requests per second, wall clock, is the http_get_b32 workload of the
// repo benchmark (go run ./benchmark).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/metrics"
	"demikernel/internal/telemetry"
	"demikernel/internal/workload"
)

const httpPort = 8080

func main() {
	seed := flag.Int64("seed", 42, "deterministic seed for the workload")
	n := flag.Int("n", 2000, "requests to issue")
	flag.Parse()

	if err := runDriver(*seed, *n); err != nil {
		fmt.Fprintf(os.Stderr, "demi-http: %v\n", err)
		os.Exit(1)
	}
}

func runDriver(seed int64, total int) error {
	const nshards = 2
	c := demi.NewCluster(seed)
	srvNode := c.MustSpawn(demi.Catnip, demi.WithHost(1), demi.WithShards(nshards))
	cliNode := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{
		Host: 2, RxReadyCap: 8, RTO: 2 * time.Millisecond, MaxRetransmits: 8,
	}))
	cliNode.WaitTimeout = 5 * time.Second
	sh := srvNode.Sharded

	prod := workload.NewHTTPProduction(64, 1e6, seed)
	tree := httpd.NewTree()
	for _, o := range prod.Objects {
		tree.Add(o.Path, o.Body)
	}

	reg := telemetry.NewRegistry()
	servers := make([]*httpd.Server, nshards)
	for i := 0; i < nshards; i++ {
		srv, stop, err := httpd.Serve(sh.Libs[i], tree, httpPort)
		if err != nil {
			return err
		}
		defer stop()
		srv.RegisterTelemetry(reg, fmt.Sprintf("httpd.%d", i))
		servers[i] = srv
	}
	stopCli := cliNode.Background()
	defer stopCli()

	var seedCtr uint16
	run, err := workload.NewHTTPDriver(prod, nshards, func(shard int) (*httpd.Client, error) {
		seedCtr += 8
		qd, err := c.Router().DialShard(cliNode, sh, httpPort, shard, seedCtr)
		if err != nil {
			return nil, err
		}
		cl := httpd.NewClient(cliNode.LibOS)
		cl.Adopt(qd, c.AddrOf(srvNode, httpPort))
		return cl, nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("demi-http: %d requests over 4 keep-alive conns, 2 shards, crash at midpoint\n\n", total)
	if err := run.Run(total / 2); err != nil {
		return err
	}
	if _, err := srvNode.Crash(); err != nil {
		return err
	}
	if err := srvNode.Restart(); err != nil {
		return err
	}
	if err := run.Redial(); err != nil {
		return err
	}
	if err := run.Run(total - total/2); err != nil {
		return err
	}
	issued := run.Issued()

	var served int64
	for _, s := range servers {
		served += s.Stats().Requests
	}
	fmt.Printf("issued %d, served %d (conserved across the crash/restart)\n", issued, served)
	fmt.Printf("client rx_ready_stalls: %d (slow readers parked the bounded ready list)\n\n", cliNode.Catnip.RxStalls())

	snap := reg.Snapshot()
	tbl := metrics.NewTable("httpd counters per shard", "counter", "shard0", "shard1")
	for _, name := range []string{
		"requests", "heads", "resp_200", "resp_206", "resp_400", "resp_404", "resp_416",
		"bytes_out", "conns_accepted", "conns_closed", "idle_reaped", "half_closes", "backlog_pauses",
	} {
		v0, _ := snap.Get("httpd.0." + name)
		v1, _ := snap.Get("httpd.1." + name)
		tbl.AddRow(name, v0, v1)
	}
	fmt.Println(tbl.String())
	for i, s := range servers {
		fmt.Printf("shard %d ", i)
		fmt.Println(s.LatencyTable().String())
		if h := s.RouteHistogram("obj"); h != nil && h.Count() > 0 {
			fmt.Printf("shard %d /obj tail CCDF: p50=%v p90=%v p99=%v p99.9=%v max=%v (n=%d)\n\n",
				i, h.Percentile(50), h.Percentile(90), h.Percentile(99),
				h.Percentile(99.9), h.Max(), h.Count())
		}
	}
	if served != int64(issued) {
		return fmt.Errorf("request accounting broken: issued %d, served %d", issued, served)
	}
	return nil
}
