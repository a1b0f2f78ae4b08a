package catnip_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/queue"
)

func TestUDPDatagramQueues(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 91)
	defer cleanup()

	sqd, err := srv.SocketUDP()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(sqd, demi.Addr{Port: 5353}); err != nil {
		t.Fatal(err)
	}
	// The server "connects back" once it learns the peer; start with
	// the client side.
	cqd, err := cli.SocketUDP()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Bind(cqd, demi.Addr{Port: 5454}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(cqd, c.AddrOf(srv, 5353)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Connect(sqd, c.AddrOf(cli, 5454)); err != nil {
		t.Fatal(err)
	}

	// Datagrams are atomic units: segmentation survives.
	msg := demi.NewSGA([]byte("dns"), []byte("query"))
	if _, err := cli.BlockingPush(cqd, msg); err != nil {
		t.Fatal(err)
	}
	comp, err := srv.BlockingPop(sqd)
	if err != nil {
		t.Fatal(err)
	}
	if comp.SGA.NumSegments() != 2 || !comp.SGA.Equal(msg) {
		t.Fatalf("datagram mangled: %v", comp.SGA)
	}
	if comp.Cost == 0 {
		t.Fatal("no virtual cost on datagram path")
	}

	// Reply direction.
	if _, err := srv.BlockingPush(sqd, demi.NewSGA([]byte("answer"))); err != nil {
		t.Fatal(err)
	}
	back, err := cli.BlockingPop(cqd)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.SGA.Bytes()) != "answer" {
		t.Fatalf("reply %q", back.SGA.Bytes())
	}
}

func TestUDPNoListenAccept(t *testing.T) {
	_, srv, _, cleanup := pair(t, 92)
	defer cleanup()
	qd, err := srv.SocketUDP()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(qd); !errors.Is(err, core.ErrNotListening) {
		t.Fatalf("Listen err = %v", err)
	}
	if _, _, err := srv.TryAccept(qd); !errors.Is(err, core.ErrNotListening) {
		t.Fatalf("Accept err = %v", err)
	}
}

func TestUDPPushWithoutPeerFails(t *testing.T) {
	_, srv, _, cleanup := pair(t, 93)
	defer cleanup()
	qd, _ := srv.SocketUDP()
	srv.Bind(qd, demi.Addr{Port: 1000})
	comp, err := srv.BlockingPush(qd, demi.NewSGA([]byte("lost")))
	if err != nil {
		t.Fatal(err)
	}
	if comp.Err == nil {
		t.Fatal("push without a connected peer should fail")
	}
}

func TestUDPOnOtherLibOSesUnsupported(t *testing.T) {
	c := demi.NewCluster(94)
	for _, n := range []*demi.Node{
		c.MustSpawn(demi.Catnap, demi.WithHost(1)),
		c.MustSpawn(demi.Catmint, demi.WithHost(2)),
	} {
		if _, err := n.SocketUDP(); !errors.Is(err, core.ErrNotSupported) {
			t.Fatalf("%s: err = %v", n.Name(), err)
		}
	}
}

// TestUDPBesidePollers: the application pushes datagrams from one node and
// pops them on the other while Background pollers run on both, across one
// Crash/Restart of the receiver. A pop parks until a datagram lands, which
// the receiver's poller pumps to it, or it takes one the socket already
// holds; a datagram lost to the crash is made up by pushing another. Every
// operation completes exactly once, a failed one with a typed error, and
// the frame pool ends where it started.
func TestUDPBesidePollers(t *testing.T) {
	c := demi.NewCluster(95)
	srv := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catnip, demi.WithHost(2))
	baseline := fabric.DefaultFramePool.Outstanding()
	sqd, err := srv.SocketUDP()
	if err != nil {
		t.Fatal(err)
	}
	cqd, err := cli.SocketUDP()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(sqd, demi.Addr{Port: 5353}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(cqd, c.AddrOf(srv, 5353)); err != nil {
		t.Fatal(err)
	}
	sep, err := srv.EndpointOf(sqd)
	if err != nil {
		t.Fatal(err)
	}
	cep, err := cli.EndpointOf(cqd)
	if err != nil {
		t.Fatal(err)
	}
	stopSrv, stopCli := srv.Background(), cli.Background()

	// op counts the completions of one push or pop.
	type op struct {
		fired atomic.Int32
		c     queue.Completion
	}
	var (
		ops      []*op // the application's, read once it has stopped
		last     *op   // the pop left parked at the stop, likewise
		received atomic.Int64
		stop     atomic.Bool
	)
	issue := func() (*op, queue.DoneFunc) {
		o := new(op)
		ops = append(ops, o)
		return o, func(comp queue.Completion) {
			o.c = comp // a second completion races the reader: -race reports it
			o.fired.Add(1)
		}
	}
	// typed reports whether err is one a datagram operation may fail with
	// here: the receiver crashed, or its endpoint closed.
	typed := func(err error) bool {
		return err == nil || errors.Is(err, core.ErrLocalReset) || errors.Is(err, queue.ErrClosed)
	}
	appDone := make(chan error, 1)
	go func() {
		for seq := 0; !stop.Load(); {
			pop, popDone := issue()
			sep.Pop(popDone)
			for pop.fired.Load() == 0 && !stop.Load() {
				push, pushDone := issue()
				cep.Push(demi.NewSGA([]byte(fmt.Sprintf("dgram %d", seq))), 0, pushDone)
				seq++
				if push.fired.Load() != 1 || push.c.Err != nil {
					appDone <- fmt.Errorf("push %d: fired %d times, %v", seq, push.fired.Load(), push.c.Err)
					return
				}
				for deadline := time.Now().Add(20 * time.Millisecond); pop.fired.Load() == 0 && time.Now().Before(deadline); {
					runtime.Gosched()
				}
			}
			if pop.fired.Load() == 0 {
				last = pop // parked at the stop: the close fails it
				break
			}
			switch {
			case pop.c.Err != nil:
				if !typed(pop.c.Err) {
					appDone <- fmt.Errorf("pop failed untyped: %v", pop.c.Err)
					return
				}
				time.Sleep(100 * time.Microsecond) // crashed: wait for the restart
			case !bytes.HasPrefix(pop.c.SGA.Bytes(), []byte("dgram ")):
				appDone <- fmt.Errorf("popped %q", pop.c.SGA.Bytes())
				return
			default:
				pop.c.SGA.Free()
				received.Add(1)
			}
		}
		appDone <- nil
	}()

	// progress waits for the application to pop n more datagrams.
	progress := func(what string, n int64) {
		t.Helper()
		target := received.Load() + n
		for deadline := time.Now().Add(10 * time.Second); received.Load() < target; {
			select {
			case err := <-appDone:
				t.Fatalf("%s: the application stopped: %v", what, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d datagrams of %d", what, received.Load()-target+n, n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	progress("warm-up", 50)
	if _, err := srv.Crash(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	progress("after the restart", 50)

	stop.Store(true)
	if err := <-appDone; err != nil {
		t.Fatal(err)
	}
	stopCli()
	stopSrv()
	for _, err := range []error{srv.Close(sqd), cli.Close(cqd)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce(50 * time.Millisecond)
	for i, o := range ops {
		if n := o.fired.Load(); n != 1 {
			t.Fatalf("operation %d of %d completed %d times", i, len(ops), n)
		}
		if !typed(o.c.Err) {
			t.Fatalf("operation %d failed untyped: %v", i, o.c.Err)
		}
	}
	if last != nil && last.c.Err == nil {
		last.c.SGA.Free() // answered after the application stopped looking
	}
	if got := fabric.DefaultFramePool.Outstanding(); got != baseline {
		t.Fatalf("frame pool holds %d buffers once quiet, %d before", got, baseline)
	}
}
