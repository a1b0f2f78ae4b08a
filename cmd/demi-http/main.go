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
	dial := func(shard int) (*httpd.Client, error) {
		seedCtr += 8
		qd, err := c.Router().DialShard(cliNode, sh, httpPort, shard, seedCtr)
		if err != nil {
			return nil, err
		}
		cl := httpd.NewClient(cliNode.LibOS)
		cl.Adopt(qd, c.AddrOf(srvNode, httpPort))
		return cl, nil
	}

	type lane struct {
		cl        *httpd.Client
		shard     int
		pending   int
		stallLeft int
	}
	const nclients = 4
	lanes := make([]*lane, nclients)
	for i := range lanes {
		cl, err := dial(i % nshards)
		if err != nil {
			return err
		}
		lanes[i] = &lane{cl: cl, shard: i % nshards}
	}
	drain := func(l *lane) error {
		for l.pending > 0 {
			resp, err := l.cl.ReadResponse()
			if err != nil {
				return fmt.Errorf("read (shard %d): %w", l.shard, err)
			}
			if resp.Status != 200 {
				return fmt.Errorf("status %d (shard %d)", resp.Status, l.shard)
			}
			l.pending--
		}
		return nil
	}

	issued := 0
	run := func(k int) error {
		for i := 0; i < k; i++ {
			l := lanes[i%nclients]
			if err := l.cl.SendRequest(prod.Paths.Next(), false); err != nil {
				return fmt.Errorf("send (shard %d): %w", l.shard, err)
			}
			l.pending++
			issued++
			// Stall episodes make this lane a slow reader: responses
			// pile up unread (bounded) before a burst drain.
			if l.stallLeft == 0 {
				l.stallLeft = prod.Stalls.NextStall()
			} else {
				l.stallLeft--
			}
			if l.stallLeft == 0 || l.pending >= 16 {
				if err := drain(l); err != nil {
					return err
				}
				if prod.Churn.ShouldClose() {
					l.cl.Close() //nolint:errcheck
					nc, err := dial(l.shard)
					if err != nil {
						return err
					}
					l.cl = nc
				}
			}
		}
		for _, l := range lanes {
			if err := drain(l); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Printf("demi-http: %d requests over %d keep-alive conns, 2 shards, crash at midpoint\n\n", total, nclients)
	if err := run(total / 2); err != nil {
		return err
	}
	if _, err := srvNode.Crash(); err != nil {
		return err
	}
	if err := srvNode.Restart(); err != nil {
		return err
	}
	for _, l := range lanes {
		l.cl.Close() //nolint:errcheck // old QD died with the node
		l.pending = 0
		nc, err := dial(l.shard)
		if err != nil {
			return err
		}
		l.cl = nc
	}
	if err := run(total - total/2); err != nil {
		return err
	}

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
