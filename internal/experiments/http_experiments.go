package experiments

// E17 — a real web workload on the bypass path. An HTTP/1.1 server
// runs directly on catnip queues (no sockets, no kernel TCP), serving a
// Zipf-popular cached object tree to keep-alive clients through its
// completion ring. Then the part the paper's §2 "OS
// functionality" argument is really about: a client that stops reading.
// The libOS's bounded rx ready list must park (rx_ready_stalls), the
// TCP advertised window must close against the server, the server must
// pause the connection's pipeline instead of buffering without bound —
// and when the reader resumes, window-update ACKs and the zero-window
// persist probe must reopen the flow so every response is delivered.
// Before those fixes this scenario deadlocked; the recovery check is
// the regression fence.

import (
	"bytes"
	"fmt"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/metrics"
	"demikernel/internal/workload"
)

const e17Port = 8080

// httpRig is a served httpd server plus one connected keep-alive client.
type httpRig struct {
	cliNode *demi.Node
	srv     *httpd.Server
	cli     *httpd.Client
	close   func()
}

// newHTTPRig serves tree from one catnip node to a client on another
// whose rx ready list is bounded at rxReadyCap.
func newHTTPRig(seed int64, tree *httpd.Tree, rxReadyCap int) (*httpRig, error) {
	c := demi.NewCluster(seed)
	srvNode, err := c.Spawn(demi.Catnip, demi.WithHost(1))
	if err != nil {
		return nil, err
	}
	cliNode, err := c.Spawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{Host: 2, RxReadyCap: rxReadyCap}))
	if err != nil {
		return nil, err
	}
	cliNode.WaitTimeout = 10 * time.Second
	srv, stopSrv, err := httpd.Serve(srvNode.LibOS, tree, e17Port)
	if err != nil {
		return nil, err
	}
	cli, stopCli, err := httpd.Dial(cliNode.LibOS, c.AddrOf(srvNode, e17Port))
	if err != nil {
		stopSrv()
		return nil, err
	}
	return &httpRig{cliNode: cliNode, srv: srv, cli: cli, close: func() { stopCli(); stopSrv() }}, nil
}

// HTTPSoakRig is the production-shaped HTTP scenario, staged: a 2-shard
// catnip server serving HTTPProduction's object tree from every shard, and
// workload.HTTPDriver's keep-alive lanes dialled RSS-aligned to it from a
// client whose rx ready list is bounded at 4, so slow readers park it —
// TestHTTPProductionSoak's rig and `demi-stat -rig http`'s.
type HTTPSoakRig struct {
	Cluster *demi.Cluster
	CliNode *demi.Node
	Servers []*httpd.Server // one per shard
	Driver  *workload.HTTPDriver
	Close   func()
	srvNode *demi.Node
}

// NewHTTPSoakRig spawns and stages the scenario.
func NewHTTPSoakRig(seed int64) (*HTTPSoakRig, error) {
	const port = 8080
	c := demi.NewCluster(seed)
	r := &HTTPSoakRig{Cluster: c, srvNode: c.MustSpawn(demi.Catnip, demi.WithHost(1), demi.WithShards(2))}
	r.CliNode = c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{
		Host: 2, RxReadyCap: 4, RTO: 2 * time.Millisecond, MaxRetransmits: 8,
	}))
	r.CliNode.WaitTimeout = 5 * time.Second
	prod := workload.NewHTTPProduction(64, 1e6, seed)
	tree := prod.Tree()
	var stops []func()
	r.Close = func() {
		for _, stop := range stops {
			stop()
		}
	}
	for _, lib := range r.srvNode.Libs() {
		srv, stop, err := httpd.Serve(lib, tree, port)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.Servers, stops = append(r.Servers, srv), append(stops, stop)
	}
	// Seeds stride by 8 so no two dials resolve to the same source port
	// (SourcePortFor scans forward from the seed; with 2 shards it moves
	// at most a step or two).
	var seedCtr uint16
	var err error
	r.Driver, err = workload.NewHTTPDriver(prod, len(r.Servers), func(shard int) (*httpd.Client, error) {
		seedCtr += 8
		qd, err := c.Router().DialShard(r.CliNode, r.srvNode.Sharded, port, shard, seedCtr)
		if err != nil {
			return nil, err
		}
		cl := httpd.NewClient(r.CliNode.LibOS)
		cl.Adopt(qd, c.AddrOf(r.srvNode, port))
		return cl, nil
	})
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Run issues n requests, crashing and restarting the server node after
// the first half: every client connection dies with the stack, and the
// second half runs against the restarted incarnation with no call into
// the servers — they heal themselves.
func (r *HTTPSoakRig) Run(n int) error {
	if err := r.Driver.Run(n / 2); err != nil {
		return err
	}
	if _, err := r.srvNode.Crash(); err != nil {
		return err
	}
	if err := r.srvNode.Restart(); err != nil {
		return err
	}
	if err := r.Driver.Redial(); err != nil {
		return err
	}
	return r.Driver.Run(n - n/2)
}

func runE17(seed int64) (*Result, error) {
	const reqs = 512
	res := &Result{}

	// Part 1 — a Zipf-popular GET stream and the server-side virtual
	// service-latency CCDF.
	prod := workload.NewHTTPProduction(64, 1e6, seed)
	tree := prod.Tree()
	tbl := metrics.NewTable("HTTP GET service latency (virtual)",
		"path", "requests", "p50", "p99", "p99.9", "max")
	fast, err := newHTTPRig(seed, tree, 0)
	if err != nil {
		return nil, err
	}
	paths := workload.NewPathSet(len(prod.Objects), workload.NewZipfKeys(len(prod.Objects), 1.2, seed+2))
	for k := 0; k < reqs; k++ {
		resp, err := fast.cli.Get(paths.Next())
		if err == nil && resp.Status != 200 {
			err = fmt.Errorf("E17: status %d", resp.Status)
		}
		if err != nil {
			fast.close()
			return nil, err
		}
	}
	served := fast.srv.Stats().Requests
	h := fast.srv.RouteHistogram("obj")
	tbl.AddRow("ring", served, h.Percentile(50), h.Percentile(99), h.Percentile(99.9), h.Max())
	res.check("ring path serves every request", served == reqs,
		"served %d of %d", served, reqs)
	fast.close()
	res.Tables = append(res.Tables, tbl)

	// Part 2 — the slow client. 160 pipelined 8KiB GETs with the reader
	// frozen: the responses must fill the client's TCP receive window
	// and the server's send buffer until the server pauses the
	// connection's pipeline (backlog_pauses) — bounded buffering, not
	// OOM. Then the reader resumes slowly: the bounded rx ready list
	// parks (rx_ready_stalls), and the window-update ACK + zero-window
	// persist probe machinery must reopen the flow until every response
	// is delivered intact. This is the scenario that used to deadlock.
	const slowReqs = 160
	objs := workload.HTTPObjects(4, workload.FixedSize(8192), seed)
	slowTree := httpd.NewTree()
	for _, o := range objs {
		slowTree.Add(o.Path, o.Body)
	}
	r, err := newHTTPRig(seed+1, slowTree, 4)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for i := 0; i < slowReqs; i++ {
		if err := r.cli.SendRequest(workload.HTTPObjectPath(i%len(objs)), false); err != nil {
			return nil, fmt.Errorf("E17 slow client send: %w", err)
		}
	}
	// Frozen phase: wait (bounded) for the backpressure to reach the
	// server and pause the connection.
	deadline := time.Now().Add(10 * time.Second)
	for r.srv.Stats().Backlogs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	paused := r.srv.Stats().Backlogs
	res.check("frozen reader pauses the server pipeline (bounded buffering)",
		paused >= 1, "backlog_pauses=%d", paused)

	// Resumed phase: drain everything, verifying bodies.
	bad := 0
	for i := 0; i < slowReqs; i++ {
		resp, err := r.cli.ReadResponse()
		if err != nil {
			return nil, fmt.Errorf("E17 slow client recovery stalled at %d/%d: %w", i, slowReqs, err)
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, objs[i%len(objs)].Body) {
			bad++
		}
	}
	stalls := r.cliNode.Catnip.RxStalls()
	res.check("slow reader parks the bounded rx ready list", stalls >= 1,
		"rx_ready_stalls=%d", stalls)
	res.check("flow reopens after the stall: every response delivered intact",
		bad == 0, "%d/%d responses OK (window-update ACK + persist probe)", slowReqs-bad, slowReqs)
	return res, nil
}
