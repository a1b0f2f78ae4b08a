package demikernel

// The staging functions every rig outside the benchmark is built from —
// echo.Serve/Dial, kv.Serve/Dial, httpd.Serve/Dial — own what they start:
// after one round trip and stop(), the goroutines are gone, every pooled
// frame is back, and the same node serves the same port again.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/apps/kv"
	"demikernel/internal/fabric"
)

// framesOut counts pooled frames handed out and not yet returned, over
// the process-wide pool and the private pools of n's shards, if it has
// them.
func framesOut(n *Node) int64 {
	pools := map[*fabric.FramePool]bool{fabric.DefaultFramePool: true}
	if n.Sharded != nil {
		for i := range n.Libs() {
			pools[n.Sharded.Set.Shard(i).Pool()] = true
		}
	}
	var out int64
	for p := range pools {
		st := p.Stats()
		out += st.Pooled + st.Misses - st.Recycled
	}
	return out
}

// TestStopDrainsRing steps a server by hand until a request's pop has
// completed onto its ring, then stops it with no further step: the request
// was never served, and its pooled frame must still come back. A stop
// that closes the connections without draining the ring keeps it forever.
func TestStopDrainsRing(t *testing.T) {
	const port = 7
	for _, tc := range []struct {
		name  string
		req   SGA
		serve func(c *Cluster, lib *LibOS) (step func() int, stop func(), err error)
	}{
		{"echo", NewSGA([]byte("ping")), func(c *Cluster, lib *LibOS) (func() int, func(), error) {
			s := echo.NewServer(lib)
			return s.Step, s.Close, s.Listen(port)
		}},
		{"httpd", NewSGA([]byte("GET /obj HTTP/1.1\r\n\r\n")), func(c *Cluster, lib *LibOS) (func() int, func(), error) {
			tree := httpd.NewTree()
			tree.Add("/obj", []byte("body"))
			s := httpd.NewServer(lib, tree)
			return s.Step, s.Close, s.Listen(port)
		}},
		{"kv", NewSGA([]byte(kv.OpGet), []byte("k")), func(c *Cluster, lib *LibOS) (func() int, func(), error) {
			s := kv.NewServer(lib, &c.Model)
			return func() int { return s.Step(0) }, s.Close, s.Listen(port)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(82)
			srv := c.MustSpawn(Catnip, WithHost(1))
			cli := c.MustSpawn(Catnip, WithHost(2))
			frames := framesOut(srv)
			step, stop, err := tc.serve(c, srv.LibOS)
			if err != nil {
				t.Fatal(err)
			}
			ring := srv.Rings()[0]
			qd, err := cli.Socket()
			if err != nil {
				t.Fatal(err)
			}
			stopPoll := srv.Background()
			err = cli.Connect(qd, c.AddrOf(srv, port))
			stopPoll()
			if err != nil {
				t.Fatal(err)
			}
			until := func(what string, cond func() bool, serve bool) {
				t.Helper()
				for i := 0; !cond(); i++ {
					if i > 100_000 {
						t.Fatalf("no progress: %s", what)
					}
					cli.Poll()
					srv.Poll()
					if serve {
						step()
					}
				}
			}
			until("the accept", func() bool { return ring.CountersSnapshot().Submitted > 0 }, true)
			if _, err := cli.Push(qd, tc.req); err != nil {
				t.Fatal(err)
			}
			until("the request's pop", func() bool { return ring.CountersSnapshot().CQOccupancy > 0 }, false)
			stop()
			cli.Close(qd) //nolint:errcheck // the server closed first
			deadline := time.Now().Add(2 * time.Second)
			for framesOut(srv) != frames {
				if time.Now().After(deadline) {
					t.Fatalf("after stop %d frames out, %d before: the request's buffer stayed on the ring", framesOut(srv), frames)
				}
				c.Poll()
			}
		})
	}
}

func TestStagingStopsClean(t *testing.T) {
	const port = 7
	// batched picks the client's calls: one batch submitted at once and
	// harvested from its ring, or the per-op Push/Pop/Wait round trip.
	echoOver := func(batched bool) func(c *Cluster, srv, cli *Node) (func() error, func(), error) {
		return func(c *Cluster, srv, cli *Node) (func() error, func(), error) {
			_, stopSrv, err := echo.Serve(srv.LibOS, port, c.Model.AppRequestNS)
			if err != nil {
				return nil, nil, err
			}
			client, stopCli, err := echo.Dial(cli.LibOS, c.AddrOf(srv, port))
			if err != nil {
				stopSrv()
				return nil, nil, err
			}
			return func() error {
				if batched {
					_, err := client.RTTBatch([]byte("ping"), 0, 4)
					return err
				}
				_, err := client.RTT([]byte("ping"), 0)
				return err
			}, func() { stopCli(); stopSrv() }, nil
		}
	}
	kvOver := func(c *Cluster, srv, cli *Node) (func() error, func(), error) {
		_, stopSrv, err := kv.Serve(srv.Libs(), srv.Mesh(), srv.Shards(), &c.Model, port)
		if err != nil {
			return nil, nil, err
		}
		client, stopCli, err := kv.Dial(cli.LibOS, srv.Shards(), c.Router().Dialer(cli, srv, port))
		if err != nil {
			stopSrv()
			return nil, nil, err
		}
		return func() error {
			for i := 0; i < 2*srv.Shards(); i++ { // reach every shard
				key := fmt.Sprintf("key-%d", i)
				if _, err := client.Set(key, []byte("value")); err != nil {
					return err
				}
				if got, _, found, err := client.Get(key); err != nil || !found || !bytes.Equal(got, []byte("value")) {
					return fmt.Errorf("get %s = %q, found %v: %v", key, got, found, err)
				}
				if ok, err := client.Del(key); err != nil || !ok { // the store keeps no buffer
					return fmt.Errorf("del %s: %v %v", key, ok, err)
				}
			}
			return nil
		}, func() { stopCli(); stopSrv() }, nil
	}
	httpOver := func(batched bool) func(c *Cluster, srv, cli *Node) (func() error, func(), error) {
		return func(c *Cluster, srv, cli *Node) (func() error, func(), error) {
			tree := httpd.NewTree()
			tree.Add("/obj", []byte("body"))
			_, stopSrv, err := httpd.Serve(srv.LibOS, tree, port)
			if err != nil {
				return nil, nil, err
			}
			client, stopCli, err := httpd.Dial(cli.LibOS, c.AddrOf(srv, port))
			if err != nil {
				stopSrv()
				return nil, nil, err
			}
			return func() error {
				if batched {
					ok, _, err := client.GetBatch([]string{"/obj", "/obj", "/obj"}, 0)
					if err == nil && ok != 3 {
						err = fmt.Errorf("GetBatch: %d of 3 responses 2xx", ok)
					}
					return err
				}
				resp, err := client.Get("/obj")
				if err == nil && (resp.Status != 200 || string(resp.Body) != "body") {
					err = fmt.Errorf("GET /obj = %d %q", resp.Status, resp.Body)
				}
				return err
			}, func() { stopCli(); stopSrv() }, nil
		}
	}

	for _, tc := range []struct {
		name  string
		kind  Kind
		shape []SpawnOption // the server's; the client is a plain node of kind
		stage func(c *Cluster, srv, cli *Node) (roundTrip func() error, stop func(), err error)
	}{
		{"echo/catnip", Catnip, nil, echoOver(false)},
		{"echo/catnip-ring", Catnip, nil, echoOver(true)},
		{"echo/catnap", Catnap, nil, echoOver(false)},
		{"echo/catmint", Catmint, nil, echoOver(false)},
		{"kv/width1", Catnip, nil, kvOver},
		{"kv/width2", Catnip, []SpawnOption{WithShards(2)}, kvOver},
		{"kv/elastic2of4", Catnip, []SpawnOption{WithShards(2), WithShardCapacity(4)}, kvOver},
		{"httpd/per-op", Catnip, nil, httpOver(false)},
		{"httpd/ring", Catnip, nil, httpOver(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(81)
			srv := c.MustSpawn(tc.kind, append([]SpawnOption{WithHost(1)}, tc.shape...)...)
			cli := c.MustSpawn(tc.kind, WithHost(2))
			goroutines, frames := runtime.NumGoroutine(), framesOut(srv)

			for round := 1; round <= 2; round++ { // the second serves the same port again
				roundTrip, stop, err := tc.stage(c, srv, cli)
				if err != nil {
					t.Fatalf("round %d: stage: %v", round, err)
				}
				if err := roundTrip(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				stop()
				// Nothing polls any more; deliver the closes by hand. Fewer
				// goroutines than before is not a leak: the count taken
				// above can include the previous test's, signalled done
				// and not yet gone.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > goroutines || framesOut(srv) != frames {
					if time.Now().After(deadline) {
						t.Fatalf("round %d: after stop %d goroutines and %d frames out, %d and %d before",
							round, runtime.NumGoroutine(), framesOut(srv), goroutines, frames)
					}
					c.Poll()
					time.Sleep(100 * time.Microsecond)
				}
			}
		})
	}
}
