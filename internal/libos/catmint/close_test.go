package catmint

import (
	"testing"

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

// TestCloseReleasesQueuePair runs connect / push two, pop one / close
// cycles between two transports: closing both ends must give back every
// posted receive and every slot, the unpopped message's too, so
// afterwards each side holds its listener (or nothing) and the arenas the
// first cycle needed. Closing the listener then closes a connection it
// staged that nobody accepted.
func TestCloseReleasesQueuePair(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	srvMAC := fabric.MAC{0x02, 0, 0, 0, 0, 1}
	srv := New(&model, sw, Config{MAC: srvMAC})
	cli := New(&model, sw, Config{MAC: fabric.MAC{0x02, 0, 0, 0, 0, 2}})
	// settle polls both sides until two passes in a row move nothing.
	settle := func() {
		for quiet := 0; quiet < 2; {
			if srv.Poll()+cli.Poll() == 0 {
				quiet++
			} else {
				quiet = 0
			}
		}
	}

	lis, _ := srv.Socket()
	if err := lis.Bind(core.Addr{Port: 7}); err != nil {
		t.Fatal(err)
	}
	if err := lis.Listen(); err != nil {
		t.Fatal(err)
	}
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
