package demikernel

// TestHTTPProductionSoak is the chaos + slow-client soak behind `make
// httpsoak`: a production-shaped HTTP workload (Zipf-popular paths over
// a bimodal object tree, keep-alive connections with churn, a fraction
// of deliberately slow readers) against a 2-shard catnip server, with
// a full node crash/restart in the middle. Every response must come
// back 200 with the right body, the slow readers must drive the bounded
// ready list into its parked state (rx_ready_stalls), and the server's
// counters must account for every request across the incarnation
// boundary.

import (
	"testing"
	"time"

	"demikernel/internal/apps/httpd"
	"demikernel/internal/workload"
)

func TestHTTPProductionSoak(t *testing.T) {
	const (
		port    = 8080
		nshards = 2
		perHalf = 300 // requests per soak half, across all clients
	)
	c := NewCluster(91)
	srvNode := c.MustSpawn(Catnip, WithHost(1), WithShards(nshards))
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{
		Host: 2, RxReadyCap: 4, RTO: 2 * time.Millisecond, MaxRetransmits: 8,
	}))
	cliNode.WaitTimeout = 5 * time.Second
	sh := srvNode.Sharded

	prod := workload.NewHTTPProduction(64, 1e6, 91)
	tree := httpd.NewTree()
	for _, o := range prod.Objects {
		tree.Add(o.Path, o.Body)
	}

	// One server per shard.
	servers := make([]*httpd.Server, nshards)
	for i := 0; i < nshards; i++ {
		srv, stop, err := httpd.Serve(sh.Libs[i], tree, port)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		servers[i] = srv
	}

	// Seeds stride by 8 so no two dials resolve to the same source port
	// (SourcePortFor scans forward from the seed; with 2 shards it moves
	// at most a step or two).
	var seedCtr uint16
	run, err := workload.NewHTTPDriver(prod, nshards, func(shard int) (*httpd.Client, error) {
		seedCtr += 8
		qd, err := c.Router().DialShard(cliNode, sh, port, shard, seedCtr)
		if err != nil {
			return nil, err
		}
		cl := httpd.NewClient(cliNode.LibOS)
		cl.Adopt(qd, c.AddrOf(srvNode, port))
		return cl, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Run(perHalf); err != nil {
		t.Fatal(err)
	}

	// Mid-soak node death: every client connection dies with the stack.
	// The soak resumes against the restarted incarnation, with no call
	// into the servers: they heal themselves.
	if _, err := srvNode.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := srvNode.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := run.Redial(); err != nil {
		t.Fatal(err)
	}
	if err := run.Run(perHalf); err != nil {
		t.Fatal(err)
	}

	if got := int(cliNode.Catnip.RxStalls()); got < 1 {
		t.Fatalf("slow readers never parked the bounded ready list (rx_ready_stalls=%d)", got)
	}
	var served, halfCloses int64
	for _, s := range servers {
		st := s.Stats()
		served += st.Requests
		halfCloses += st.HalfCloses
	}
	if served != int64(run.Issued()) {
		t.Fatalf("servers account for %d requests, issued %d", served, run.Issued())
	}
	if halfCloses != 0 {
		t.Fatalf("unexpected half-closes during soak: %d", halfCloses)
	}
}
