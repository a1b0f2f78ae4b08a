package demikernel

// The serve loop past where its ring starts. echo and httpd serve every
// connection through one completion ring that grows with what they
// submit; when a ring was a fixed number of reservations, eight armed
// pops per connection held them all past cap/8 connections and the
// server could not submit its own reply.

import (
	"bytes"
	"fmt"
	"testing"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/uring"
)

// TestRingServerManyConns opens 64 connections to a staged server before
// any carries a request, makes one verified round trip on each, twice
// over, then pipelines 64 requests down one connection, so the server's
// ring grows with connections and with depth (and the batching client's
// with the batch). Two thousand further round trips must then leave every
// ring at the size it had reached: storage follows the high-water mark
// and does not creep.
func TestRingServerManyConns(t *testing.T) {
	const (
		port    = 80
		conns   = 64
		further = 2000
	)
	// A staged app: trip i makes one verified round trip on connection i,
	// batch pipelines n requests down connection 0.
	type staged struct {
		trip  func(i int) error
		batch func(n int) error
		rings func() []*uring.Pair
		stop  func()
	}
	stageEcho := func(c *Cluster, srv, cli *Node) (*staged, error) {
		app, stop, err := echo.Serve(srv.LibOS, port, 0)
		if err != nil {
			return nil, err
		}
		clients := make([]*echo.Client, conns)
		for i := range clients {
			clients[i] = echo.NewClient(cli.LibOS)
			if err := clients[i].Connect(c.AddrOf(srv, port)); err != nil {
				stop()
				return nil, fmt.Errorf("connection %d: %w", i, err)
			}
		}
		return &staged{
			trip: func(i int) error {
				msg := []byte(fmt.Sprintf("connection %d", i))
				if _, err := cli.BlockingPush(clients[i].QD(), NewSGA(msg)); err != nil {
					return err
				}
				comp, err := cli.BlockingPop(clients[i].QD())
				if err == nil {
					err = comp.Err
				}
				if err != nil {
					return err
				}
				defer comp.SGA.Free()
				if !bytes.Equal(comp.SGA.Bytes(), msg) {
					return fmt.Errorf("echoed %q for %q", comp.SGA.Bytes(), msg)
				}
				return nil
			},
			batch: func(n int) error {
				_, err := clients[0].RTTBatch([]byte("pipelined"), 0, n)
				return err
			},
			rings: func() []*uring.Pair { return []*uring.Pair{app.Ring(), clients[0].Ring()} },
			stop:  stop,
		}, nil
	}
	stageHTTP := func(c *Cluster, srv, cli *Node) (*staged, error) {
		tree := httpd.NewTree()
		body := func(i int) []byte { return []byte(fmt.Sprintf("object %d", i)) }
		for i := 0; i < conns; i++ {
			tree.Add(fmt.Sprintf("/obj/%d", i), body(i))
		}
		app, stop, err := httpd.Serve(srv.LibOS, tree, port)
		if err != nil {
			return nil, err
		}
		clients := make([]*httpd.Client, conns)
		for i := range clients {
			clients[i] = httpd.NewClient(cli.LibOS)
			if err := clients[i].Connect(c.AddrOf(srv, port)); err != nil {
				stop()
				return nil, fmt.Errorf("connection %d: %w", i, err)
			}
		}
		return &staged{
			trip: func(i int) error {
				resp, err := clients[i].Get(fmt.Sprintf("/obj/%d", i))
				if err == nil && (resp.Status != 200 || !bytes.Equal(resp.Body, body(i))) {
					err = fmt.Errorf("GET = %d %q", resp.Status, resp.Body)
				}
				return err
			},
			batch: func(n int) error {
				paths := make([]string, n)
				for i := range paths {
					paths[i] = fmt.Sprintf("/obj/%d", i%conns)
				}
				ok, _, err := clients[0].GetBatch(paths, 0)
				if err == nil && ok != n {
					err = fmt.Errorf("%d of %d responses 2xx", ok, n)
				}
				return err
			},
			rings: func() []*uring.Pair { return []*uring.Pair{app.Ring(), clients[0].Ring()} },
			stop:  stop,
		}, nil
	}

	for _, tc := range []struct {
		name  string
		stage func(c *Cluster, srv, cli *Node) (*staged, error)
	}{
		{"echo", stageEcho},
		{"httpd", stageHTTP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(93)
			srv := c.MustSpawn(Catnip, WithHost(1))
			cli := c.MustSpawn(Catnip, WithHost(2))
			stopCli := cli.Background()
			defer stopCli()
			app, err := tc.stage(c, srv, cli)
			if err != nil {
				t.Fatal(err)
			}
			defer app.stop()

			for pass := 1; pass <= 2; pass++ {
				for i := 0; i < conns; i++ {
					if err := app.trip(i); err != nil {
						t.Fatalf("pass %d, connection %d: %v", pass, i, err)
					}
				}
			}
			// A batch of one first, so the client's ring starts small and
			// the deep batch has to grow it.
			for _, n := range []int{1, conns} {
				if err := app.batch(n); err != nil {
					t.Fatalf("%d pipelined requests on one connection: %v", n, err)
				}
			}

			sizes := func() (out [][2]int64) {
				for _, p := range app.rings() {
					cnt := p.CountersSnapshot()
					out = append(out, [2]int64{cnt.Slab, cnt.CQCap})
				}
				return out
			}
			high := sizes()
			if srvSlab := high[0][0]; srvSlab < conns*8 {
				t.Fatalf("server slab holds %d slots with %d connections' pop windows armed", srvSlab, conns)
			}
			if cliSlab := high[1][0]; cliSlab < 2*conns {
				t.Fatalf("client slab holds %d slots after a batch of %d round trips", cliSlab, conns)
			}
			for k := 0; k < further; k++ {
				if k%100 == 0 {
					err = app.batch(conns)
				} else {
					err = app.trip(k % conns)
				}
				if err != nil {
					t.Fatalf("further round trip %d: %v", k, err)
				}
			}
			// The slab's high-water mark is the protocol's: operations in
			// flight. The CQ's is how many completions scheduling let pile
			// up between harvests, which a later batch may top; what bounds
			// it is that they were all in flight first. A slot or a CQE
			// leaked per round trip would have outgrown either by now.
			for i, now := range sizes() {
				if slab, cq := now[0], now[1]; slab != high[i][0] || cq > slab {
					t.Fatalf("ring %d [slab cq] crept from %v to %v over %d round trips", i, high[i], now, further)
				}
			}
		})
	}
}
