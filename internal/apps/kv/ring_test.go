package kv

import (
	"bytes"
	"testing"

	demi "demikernel"
	"demikernel/internal/fabric"
	"demikernel/internal/sga"
)

// rawConn is a client connection driven by hand: one request pushed with
// its response's pop armed, and nothing polled but what the test polls.
type rawConn struct {
	lib  *demi.LibOS
	qd   demi.QD
	pops []demi.QToken // armed, oldest first
}

// dialRaw connects cli to the server's port; the server's libOS is polled
// in the background for the handshake only.
func dialRaw(t *testing.T, c *demi.Cluster, cli, srv *demi.Node, port uint16) *rawConn {
	t.Helper()
	stop := srv.Background()
	defer stop()
	qd, err := cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(qd, c.AddrOf(srv, port)); err != nil {
		t.Fatal(err)
	}
	return &rawConn{lib: cli.LibOS, qd: qd}
}

// send pushes one request and arms the pop of its response.
func (r *rawConn) send(t *testing.T, segs ...[]byte) {
	t.Helper()
	r.read(t)
	r.push(t, segs...)
}

// push pushes one request, reading nothing.
func (r *rawConn) push(t *testing.T, segs ...[]byte) {
	t.Helper()
	if _, err := r.lib.Push(r.qd, sga.New(segs...)); err != nil {
		t.Fatal(err)
	}
}

// read arms the pop of one response.
func (r *rawConn) read(t *testing.T) {
	t.Helper()
	pop, err := r.lib.Pop(r.qd)
	if err != nil {
		t.Fatal(err)
	}
	r.pops = append(r.pops, pop)
}

// recv returns the oldest outstanding response once it has arrived.
func (r *rawConn) recv(t *testing.T) (sga.SGA, bool) {
	t.Helper()
	c, ok, err := r.lib.TryWait(r.pops[0])
	if err != nil || (ok && c.Err != nil) {
		t.Fatalf("response: %v %v", err, c.Err)
	}
	if ok {
		r.pops = r.pops[1:]
	}
	return c.SGA, ok
}

// until polls libs and steps srv (when non-nil) until cond holds.
func until(t *testing.T, what string, srv *ShardedServer, libs []*demi.LibOS, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 100_000 {
			t.Fatalf("no progress: %s", what)
		}
		for _, l := range libs {
			l.Poll()
		}
		if srv != nil {
			srv.Step(0)
		}
	}
}

// pinned counts the stored values a worker's response pushes in flight
// hold, over every connection.
func (w *shardWorker) pinned() int {
	n := 0
	for c := range w.All() {
		n += c.Held()
	}
	return n
}

// TestKVLostResponseDoesNotStallWorker: on catmint a push completes when
// the peer acknowledges it, so a response lost on the wire never
// completes (until the OpTimeout detector, seconds later). The worker
// does not wait for it: with one client's response dropped, a request
// from another connection is served by the very next Step, while the lost
// push is still in flight.
func TestKVLostResponseDoesNotStallWorker(t *testing.T) {
	c := demi.NewCluster(31)
	srvNode := c.MustSpawn(demi.Catmint, demi.WithHost(1))
	aNode := c.MustSpawn(demi.Catmint, demi.WithHost(2))
	bNode := c.MustSpawn(demi.Catmint, demi.WithHost(3))
	srv := NewServer(srvNode.LibOS, &c.Model)
	if err := srv.Listen(6379); err != nil {
		t.Fatal(err)
	}
	w := srv.workers[0]
	a, b := dialRaw(t, c, aNode, srvNode, 6379), dialRaw(t, c, bNode, srvNode, 6379)
	libs := []*demi.LibOS{srvNode.LibOS, aNode.LibOS, bNode.LibOS}
	until(t, "accept both connections", srv, libs, func() bool { return w.Conns() == 2 })

	// arrive polls, without stepping the server, until a request is
	// waiting on its ring.
	arrive := func(what string) {
		until(t, what, nil, libs, func() bool { return w.Ring().CountersSnapshot().CQOccupancy > 0 })
	}

	// A's GET reaches the server; then everything the server sends A dies
	// on the wire, the GET's response first.
	a.send(t, []byte(OpGet), []byte("k"))
	arrive("A's request")
	c.Switch.SetOneWayBlock(srvNode.FabricPort(), aNode.FabricPort(), true)
	defer c.Switch.SetOneWayBlock(srvNode.FabricPort(), aNode.FabricPort(), false)
	srv.Step(0)
	if got := srv.StatsOf(0).Gets; got != 1 || w.pinned() != 1 {
		t.Fatalf("after A's step: %d GETs served, %d responses in flight; want 1, 1", got, w.pinned())
	}
	var toA, toB demi.QD
	for c := range w.All() {
		if c.Held() == 1 {
			toA = c.QD
		} else {
			toB = c.QD
		}
	}

	b.send(t, []byte(OpSet), []byte("k"), []byte("v"))
	arrive("B's request")
	srv.Step(0)
	if got := srv.StatsOf(0).Sets; got != 1 {
		t.Fatalf("the step after B's request arrived served %d SETs, want 1", got)
	}
	var resp sga.SGA
	until(t, "B's response, and its push's completion", srv, libs, func() bool {
		if len(b.pops) > 0 {
			var ok bool
			if resp, ok = b.recv(t); ok && string(resp.Segments[0].Buf) != StatusOK {
				t.Fatalf("B's response = %q", resp.Segments[0].Buf)
			}
			resp.Free()
		}
		return len(b.pops) == 0 && w.Conn(toB).Held() == 0
	})
	if _, ok := a.recv(t); ok || w.Conn(toA).Held() != 1 {
		t.Fatalf("A's response arrived (%v) or its push completed (%d in flight): it was dropped", ok, w.Conn(toA).Held())
	}
}

// TestKVGetResponseOutlivesOverwrite parks GET responses behind a closed
// peer window — the client stops reading, so its receive window and then
// the server's send buffer fill, and the last responses wait in catnip's
// send queue, read in place from the stored value — while a SET on another
// connection replaces the key. The old value must not be freed under those
// pushes: every response arrives intact, the old buffer is freed exactly
// once and only once no push reads it any more, and the frame pools end
// where they started.
func TestKVGetResponseOutlivesOverwrite(t *testing.T) {
	c := demi.NewCluster(32)
	srvNode := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cliNode := c.MustSpawn(demi.Catnip, demi.WithHost(2))
	srv := NewServer(srvNode.LibOS, &c.Model)
	if err := srv.Listen(6379); err != nil {
		t.Fatal(err)
	}
	w := srv.workers[0]
	a, b := dialRaw(t, c, cliNode, srvNode, 6379), dialRaw(t, c, cliNode, srvNode, 6379)
	libs := []*demi.LibOS{srvNode.LibOS, cliNode.LibOS}
	until(t, "accept both connections", srv, libs, func() bool { return w.Conns() == 2 })
	pools := map[*fabric.FramePool]bool{srvNode.Catnip.Pool(): true, cliNode.Catnip.Pool(): true}
	outstanding := func() (n int64) {
		for p := range pools {
			st := p.Stats()
			n += st.Pooled + st.Misses - st.Recycled
		}
		return n
	}
	frames := outstanding()

	set := func(val []byte) {
		t.Helper()
		b.send(t, []byte(OpSet), []byte("k"), val)
		var resp sga.SGA
		until(t, "SET", srv, libs, func() bool {
			var ok bool
			resp, ok = b.recv(t)
			return ok
		})
		if string(resp.Segments[0].Buf) != StatusOK {
			t.Fatalf("SET answered %q", resp.Segments[0].Buf)
		}
		resp.Free()
	}
	old := bytes.Repeat([]byte("old value "), 1200) // 12 000 B: one pool buffer
	set(old)
	freed := 0
	sv := w.store["k"]
	orig := sv.s
	sv.s = orig.WithFree(func() { freed++; orig.Free() })

	// 40 GETs, 480 kB of responses against a 64 KiB receive window and a
	// 256 KiB send buffer: the client reads none of them yet.
	const gets = 40
	for i := 0; i < gets; i++ {
		a.push(t, []byte(OpGet), []byte("k"))
	}
	until(t, "every GET served", srv, libs, func() bool { return srv.StatsOf(0).Gets == gets })
	for i := 0; i < 100; i++ {
		for _, l := range libs {
			l.Poll()
		}
		srv.Step(0)
	}
	parked := w.pinned()
	if parked == 0 || parked == gets {
		t.Fatalf("%d of %d GET responses still pushing after the window closed: want some, not all", parked, gets)
	}

	set(bytes.Repeat([]byte("new value "), 10))
	if freed != 0 {
		t.Fatalf("the old value was freed %d times under %d parked responses that read it", freed, parked)
	}

	for i := 0; i < gets; i++ {
		a.read(t)
		var resp sga.SGA
		until(t, "a parked response", srv, libs, func() bool {
			if freed != 0 && w.pinned() != 0 {
				t.Fatalf("the old value was freed with %d responses still pushing", w.pinned())
			}
			var ok bool
			resp, ok = a.recv(t)
			return ok
		})
		if len(resp.Segments) != 2 || string(resp.Segments[0].Buf) != StatusOK || !bytes.Equal(resp.Segments[1].Buf, old) {
			t.Fatalf("GET %d came back corrupted: %d segments, %d value bytes", i, len(resp.Segments), resp.Len())
		}
		resp.Free()
	}
	until(t, "the last push's CQE", srv, libs, func() bool { return w.pinned() == 0 })
	if freed != 1 {
		t.Fatalf("the old value was freed %d times, want once", freed)
	}

	// Delete the new value and hang up: nothing may stay out of the pools.
	b.send(t, []byte(OpDel), []byte("k"))
	until(t, "DEL", srv, libs, func() bool {
		resp, ok := b.recv(t)
		resp.Free()
		return ok
	})
	srv.Close()
	for _, r := range []*rawConn{a, b} {
		r.lib.Close(r.qd) //nolint:errcheck // the server may have closed first
	}
	for i := 0; i < 10; i++ {
		for _, l := range libs {
			l.Poll()
		}
	}
	if got := outstanding(); got != frames {
		t.Fatalf("frame pools hold %d buffers after the run, %d before", got, frames)
	}
}
