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
	"bytes"
	"testing"
	"time"

	"demikernel/internal/apps/httpd"
	"demikernel/internal/workload"
)

// soakClient is one keep-alive connection plus its in-order expectation
// queue (HTTP/1.1 responses come back in request order).
type soakClient struct {
	cl        *httpd.Client
	shard     int
	pending   []string // paths awaiting responses
	stallLeft int      // requests left in the current stall episode
}

func TestHTTPProductionSoak(t *testing.T) {
	const (
		port     = 8080
		nshards  = 2
		nclients = 4
		perHalf  = 300 // requests per soak half, across all clients
	)
	c := NewCluster(91)
	srvNode := c.MustSpawn(Catnip, WithHost(1), WithShards(nshards))
	cliNode := c.MustSpawn(Catnip, WithConfig(NodeConfig{
		Host: 2, RxReadyCap: 4, RTO: 2 * time.Millisecond, MaxRetransmits: 8,
	}))
	cliNode.WaitTimeout = 5 * time.Second
	sh := srvNode.Sharded

	prod := workload.NewHTTPProduction(64, 1e6, 91)
	bodies := make(map[string][]byte, len(prod.Objects))
	tree := httpd.NewTree()
	for _, o := range prod.Objects {
		tree.Add(o.Path, o.Body)
		bodies[o.Path] = o.Body
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
	dial := func(shard int) *httpd.Client {
		t.Helper()
		seedCtr += 8
		qd, err := c.Router().DialShard(cliNode, sh, port, shard, seedCtr)
		if err != nil {
			t.Fatalf("dial shard %d: %v", shard, err)
		}
		cl := httpd.NewClient(cliNode.LibOS)
		cl.Adopt(qd, c.AddrOf(srvNode, port))
		return cl
	}

	clients := make([]*soakClient, nclients)
	for i := range clients {
		clients[i] = &soakClient{cl: dial(i % nshards), shard: i % nshards}
	}

	drain := func(sc *soakClient) {
		t.Helper()
		for len(sc.pending) > 0 {
			resp, err := sc.cl.ReadResponse()
			if err != nil {
				t.Fatalf("soak read (shard %d): %v", sc.shard, err)
			}
			want := bodies[sc.pending[0]]
			sc.pending = sc.pending[1:]
			if resp.Status != 200 || !bytes.Equal(resp.Body, want) {
				t.Fatalf("soak response (shard %d): status=%d len=%d want=%d",
					sc.shard, resp.Status, len(resp.Body), len(want))
			}
		}
	}

	issued := 0
	half := func() {
		for n := 0; n < perHalf; n++ {
			sc := clients[n%nclients]
			path := prod.Paths.Next()
			if err := sc.cl.SendRequest(path, false); err != nil {
				t.Fatalf("soak send (shard %d): %v", sc.shard, err)
			}
			sc.pending = append(sc.pending, path)
			issued++

			// The stall schedule turns this connection into a slow
			// reader for a stretch of requests: responses pile up
			// unread (bounded at 16) before a burst drain. Everyone
			// else reads synchronously, so the soak cannot deadlock on
			// its own pauses.
			if sc.stallLeft == 0 {
				sc.stallLeft = prod.Stalls.NextStall()
			} else {
				sc.stallLeft--
			}
			if sc.stallLeft == 0 || len(sc.pending) >= 16 {
				drain(sc)
				// Connection churn: retire a quiesced connection and
				// redial (RSS decides the new shard).
				if prod.Churn.ShouldClose() {
					sc.cl.Close() //nolint:errcheck
					sc.cl = dial(sc.shard)
				}
			}
		}
		for _, sc := range clients {
			drain(sc)
		}
	}

	half()

	// Mid-soak node death: every client connection dies with the stack.
	// The soak resumes against the restarted incarnation, with no call
	// into the servers: they heal themselves.
	if _, err := srvNode.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := srvNode.Restart(); err != nil {
		t.Fatal(err)
	}
	for i, sc := range clients {
		sc.cl.Close() //nolint:errcheck // the old QD is already dead
		clients[i].cl = dial(sc.shard)
		clients[i].pending = clients[i].pending[:0]
	}

	half()

	if got := int(cliNode.Catnip.RxStalls()); got < 1 {
		t.Fatalf("slow readers never parked the bounded ready list (rx_ready_stalls=%d)", got)
	}
	var served, halfCloses int64
	for _, s := range servers {
		st := s.Stats()
		served += st.Requests
		halfCloses += st.HalfCloses
	}
	if served != int64(issued) {
		t.Fatalf("servers account for %d requests, issued %d", served, issued)
	}
	if halfCloses != 0 {
		t.Fatalf("unexpected half-closes during soak: %d", halfCloses)
	}
}
