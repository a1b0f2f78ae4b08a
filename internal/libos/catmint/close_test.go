package catmint

import (
	"errors"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// held reports what a transport still holds: the endpoints it can reach
// (its listeners, and every endpoint with a work request posted), its
// pending work requests, and the arenas it registered.
func held(t *Transport) (eps, pending, arenas int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	reach := map[*endpoint]bool{}
	for _, l := range t.listeners {
		reach[l] = true
	}
	for _, op := range t.pending {
		reach[op.ep] = true
	}
	return len(reach), len(t.pending), t.arenas
}

// listening returns a server transport with a listener on port 7, a
// client transport, the server's address and settle, which polls both
// sides until two passes in a row move nothing.
func listening(t testing.TB) (srv, cli *Transport, srvMAC fabric.MAC, lis core.Endpoint, settle func()) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	srvMAC = fabric.MAC{0x02, 0, 0, 0, 0, 1}
	srv = New(&model, sw, Config{MAC: srvMAC}, simclock.NewClock())
	cli = New(&model, sw, Config{MAC: fabric.MAC{0x02, 0, 0, 0, 0, 2}}, simclock.NewClock())
	settle = func() {
		for quiet := 0; quiet < 2; {
			if srv.Poll()+cli.Poll() == 0 {
				quiet++
			} else {
				quiet = 0
			}
		}
	}
	lis, _ = srv.Socket()
	if err := lis.Bind(core.Addr{Port: 7}); err != nil {
		t.Fatal(err)
	}
	if err := lis.Listen(); err != nil {
		t.Fatal(err)
	}
	return srv, cli, srvMAC, lis, settle
}

// TestCloseReleasesQueuePair runs connect / push two, pop one / close
// cycles between two transports: closing both ends must give back every
// posted receive and every slot, the unpopped message's too, so
// afterwards each side holds its listener (or nothing) and the arenas the
// first cycle needed. Closing the listener then closes a connection it
// staged that nobody accepted.
func TestCloseReleasesQueuePair(t *testing.T) {
	srv, cli, srvMAC, lis, settle := listening(t)
	var srvArenas, cliArenas int
	for i := 0; i < 50; i++ {
		c, _ := cli.Socket()
		if err := c.Connect(core.Addr{MAC: srvMAC, Port: 7}); err != nil {
			t.Fatal(err)
		}
		settle()
		s, ok, err := lis.Accept()
		if err != nil || !ok || !c.Connected() {
			t.Fatalf("cycle %d: accept ok=%v err=%v, client connected=%v", i, ok, err, c.Connected())
		}
		var pushed, popped queue.Completion
		c.Push(sga.New([]byte("one message")), 0, func(comp queue.Completion) { pushed = comp })
		c.Push(sga.New([]byte("never popped")), 0, func(queue.Completion) {})
		s.Pop(func(comp queue.Completion) { popped = comp })
		settle()
		if pushed.Err != nil || popped.Err != nil || string(popped.SGA.Bytes()) != "one message" {
			t.Fatalf("cycle %d: push %v, pop %v %q", i, pushed.Err, popped.Err, popped.SGA.Bytes())
		}
		popped.SGA.Free()
		c.Close()
		s.Close()
		settle()
		if i == 0 {
			_, _, srvArenas = held(srv)
			_, _, cliArenas = held(cli)
		}
	}
	for _, side := range []struct {
		name        string
		t           *Transport
		eps, arenas int
	}{{"server", srv, 1, srvArenas}, {"client", cli, 0, cliArenas}} {
		eps, pending, arenas := held(side.t)
		if eps != side.eps || pending != 0 || arenas != side.arenas {
			t.Errorf("%s after 50 cycles: %d endpoints, %d pending work requests, %d arenas; want %d, 0, %d",
				side.name, eps, pending, arenas, side.eps, side.arenas)
		}
	}

	c, _ := cli.Socket()
	if err := c.Connect(core.Addr{MAC: srvMAC, Port: 7}); err != nil {
		t.Fatal(err)
	}
	settle()
	lis.Close()
	c.Close()
	settle()
	if eps, pending, _ := held(srv); eps != 0 || pending != 0 {
		t.Errorf("server after closing its listener over a staged connection: %d endpoints, %d pending work requests", eps, pending)
	}
}

// TestCloseDisconnectsPeer: closing one end of a connection releases the
// device queue pair at the other end too, whose application may never
// close it. A client that closes fails the server's waiting pop with a
// dead peer, and the server's device then holds no queue pair and no
// posted receive for it. A listener closed over a connection request its
// device took after the last poll closes the connection it stages, and
// its client learns so. live reads each device's count of queue pairs.
func TestCloseDisconnectsPeer(t *testing.T) {
	srv, cli, srvMAC, lis, settle := listening(t)
	live := func(tr *Transport) int64 { return tr.Device().Stats().LiveQPs }

	c, _ := cli.Socket()
	if err := c.Connect(core.Addr{MAC: srvMAC, Port: 7}); err != nil {
		t.Fatal(err)
	}
	settle()
	s, ok, err := lis.Accept()
	if err != nil || !ok || live(srv) != 1 || live(cli) != 1 {
		t.Fatalf("accept ok=%v err=%v; %d and %d queue pairs live, want 1 and 1", ok, err, live(srv), live(cli))
	}
	var popped queue.Completion
	s.Pop(func(comp queue.Completion) { popped = comp })
	c.Close()
	settle()
	if !errors.Is(popped.Err, core.ErrPeerDead) || live(srv) != 0 || srv.Pending() != 0 {
		t.Fatalf("after the client's close: server pop %v, %d queue pairs live, %d work requests pending; want a dead peer, 0, 0",
			popped.Err, live(srv), srv.Pending())
	}
	s.Close()

	c, _ = cli.Socket()
	if err := c.Connect(core.Addr{MAC: srvMAC, Port: 7}); err != nil {
		t.Fatal(err)
	}
	srv.Device().Poll() // the device takes the request; no transport poll stages it
	lis.Close()
	settle()
	if live(srv) != 0 || !errors.Is(c.Err(), core.ErrPeerDead) {
		t.Fatalf("listener closed over a connection request: %d server queue pairs live, client err %v; want 0, a dead peer",
			live(srv), c.Err())
	}
	c.Close()
	settle()
	if live(srv)+live(cli) != 0 || srv.Pending()+cli.Pending() != 0 {
		t.Fatalf("at the end: %d and %d queue pairs live, %d and %d work requests pending",
			live(srv), live(cli), srv.Pending(), cli.Pending())
	}
}

// TestOpTimeoutCompletesOnce: a push the dead-peer detector expires
// leaves the pending set as it completes, so when the polls after it
// route the flush of its broken queue pair, nothing finds the push again.
// The client is partitioned with the push in flight and its clock,
// stopped, is stepped past OpTimeout: the push completes once, with
// ErrOpTimeout; the client holds no pending work request; and its slot
// pool holds every slot at most once.
func TestOpTimeoutCompletesOnce(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	srvMAC := fabric.MAC{0x02, 0, 0, 0, 0, 1}
	srv := New(&model, sw, Config{MAC: srvMAC}, simclock.NewClock())
	clock := simclock.NewClock()
	clock.SetSkew(-1e6)
	cli := New(&model, sw, Config{MAC: fabric.MAC{0x02, 0, 0, 0, 0, 2}}, clock)
	lis, _ := srv.Socket()
	if err := lis.Bind(core.Addr{Port: 7}); err != nil {
		t.Fatal(err)
	}
	if err := lis.Listen(); err != nil {
		t.Fatal(err)
	}
	c, _ := cli.Socket()
	if err := c.Connect(core.Addr{MAC: srvMAC, Port: 7}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		srv.Poll()
		cli.Poll()
	}
	if _, ok, err := lis.Accept(); !ok || err != nil {
		t.Fatalf("accept ok=%v err=%v", ok, err)
	}

	sw.SetLinkState(cli.Device().PortID(), false)
	var done []queue.Completion
	c.Push(sga.New([]byte("lost")), 0, func(comp queue.Completion) { done = append(done, comp) })
	cli.Poll()
	clock.Step(DefaultOpTimeout + time.Millisecond)
	for i := 0; i < 10; i++ {
		cli.Poll()
	}
	if len(done) != 1 || !errors.Is(done[0].Err, ErrOpTimeout) {
		t.Fatalf("the push completed %d times (%v), want once with ErrOpTimeout", len(done), done)
	}
	if _, pending, _ := held(cli); pending != 0 {
		t.Errorf("client holds %d pending work requests after its queue pair broke, want 0", pending)
	}
	cli.mu.Lock()
	seen := map[*slot]bool{}
	for _, s := range cli.pool {
		if seen[s] {
			t.Errorf("slot at offset %d is in the pool twice", s.off)
		}
		seen[s] = true
	}
	cli.mu.Unlock()
}
