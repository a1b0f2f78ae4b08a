package catnip_test

// Lifecycle unit tests: Crash must abort every pending qtoken with the
// typed local-reset error (nothing hangs, nothing leaks), Restart must
// re-arm the application's listening queues on the fresh stack without
// the application re-running its setup, and the device must account for
// every ring frame the dead stack never ingested. These are the §3
// obligations of a kernel-bypass node in miniature.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/echo"
	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/libos/catnip"
	"demikernel/internal/queue"
)

func TestCrashAbortsPendingQTokensTyped(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 51)
	defer cleanup()
	_, sqd := connect(t, c, srv, cli, 80)

	// A pop with no data coming: the crash is the only thing that can
	// complete it, and it must do so with the typed error, not a hang.
	qt, err := srv.Pop(sqd)
	if err != nil {
		t.Fatal(err)
	}
	aborted, err := srv.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if aborted == 0 {
		t.Fatal("Crash aborted nothing despite a pending pop")
	}
	if !srv.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	comp, err := srv.Wait(qt)
	if err != nil {
		t.Fatalf("Wait on an aborted qtoken errored at the API layer: %v", err)
	}
	if !errors.Is(comp.Err, core.ErrLocalReset) {
		t.Fatalf("aborted completion error = %v, want ErrLocalReset", comp.Err)
	}

	// Idempotent: the second crash of a corpse finds nothing to abort.
	again, err := srv.Crash()
	if err != nil || again != 0 {
		t.Fatalf("second Crash = %d, %v; want 0, nil", again, err)
	}
}

func TestRestartOfRunningStackRefused(t *testing.T) {
	_, srv, _, cleanup := pair(t, 52)
	defer cleanup()
	if err := srv.Restart(); !errors.Is(err, catnip.ErrNotCrashed) {
		t.Fatalf("Restart of a running node = %v, want ErrNotCrashed", err)
	}
}

func TestLifecycleUnsupportedOffCatnip(t *testing.T) {
	c := demi.NewCluster(53)
	n := c.MustSpawn(demi.Catnap, demi.WithHost(1))
	if _, err := n.Crash(); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("Crash on catnap = %v, want ErrNotSupported", err)
	}
	if err := n.Restart(); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("Restart on catnap = %v, want ErrNotSupported", err)
	}
}

// The LibrettOS recovery property: the application's listening QD —
// created once, before the crash — keeps accepting after Restart, on
// the reborn stack, with no application-side rebind.
func TestListenerRearmsAcrossRestart(t *testing.T) {
	c := demi.NewCluster(54)
	srv := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{
		Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4,
	}))
	defer srv.Background()()
	defer cli.Background()()

	lqd, err := srv.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(lqd, demi.Addr{Port: 80}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lqd); err != nil {
		t.Fatal(err)
	}
	cqd, _ := cli.Socket()
	if err := cli.Connect(cqd, c.AddrOf(srv, 80)); err != nil {
		t.Fatal(err)
	}
	sqd, err := srv.Accept(lqd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.BlockingPush(cqd, demi.NewSGA([]byte("ping"))); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.BlockingPop(sqd); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	if srv.Crashed() {
		t.Fatal("Crashed() = true after Restart")
	}
	if cr, rs := srv.Catnip.Lifetimes(); cr != 1 || rs != 1 {
		t.Fatalf("Lifetimes = %d, %d; want 1, 1", cr, rs)
	}

	// Fresh dial to the same port, accepted on the ORIGINAL lqd.
	cqd2, _ := cli.Socket()
	if err := cli.Connect(cqd2, c.AddrOf(srv, 80)); err != nil {
		t.Fatalf("dial to the reborn node: %v", err)
	}
	sqd2, err := srv.Accept(lqd)
	if err != nil {
		t.Fatalf("pre-crash listening QD refused to accept: %v", err)
	}
	msg := demi.NewSGA([]byte("reborn"))
	if _, err := cli.BlockingPush(cqd2, msg); err != nil {
		t.Fatal(err)
	}
	comp, err := srv.BlockingPop(sqd2)
	if err != nil || comp.Err != nil {
		t.Fatalf("pop on the reborn stack: %v %v", err, comp.Err)
	}
	if !bytes.Equal(comp.SGA.Bytes(), []byte("reborn")) {
		t.Fatalf("payload corrupted across restart: %q", comp.SGA.Bytes())
	}
}

// Frame conservation at the moment of death: frames sitting in the NIC
// receive rings when the stack dies are flushed back to their pools and
// counted in RxFlushed, so nic.RxFrames == stack.FramesIn (cumulative)
// + ring occupancy + nic.RxFlushed holds across the crash.
func TestCrashReclaimsRingFrames(t *testing.T) {
	c := demi.NewCluster(55)
	srv := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catnip, demi.WithHost(2))
	stopCli := cli.Background()
	defer stopCli()
	stopSrv := srv.Background()

	lqd, _ := srv.Socket()
	if err := srv.Bind(lqd, demi.Addr{Port: 80}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lqd); err != nil {
		t.Fatal(err)
	}
	cqd, _ := cli.Socket()
	if err := cli.Connect(cqd, c.AddrOf(srv, 80)); err != nil {
		t.Fatal(err)
	}
	sqd, err := srv.Accept(lqd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.BlockingPush(cqd, demi.NewSGA([]byte("warm"))); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.BlockingPop(sqd); err != nil {
		t.Fatal(err)
	}

	// Stop the server's poller so the next pushes strand in its rings,
	// exactly where a crash would find them.
	stopSrv()
	for i := 0; i < 8; i++ {
		if _, err := cli.Push(cqd, demi.NewSGA(bytes.Repeat([]byte{byte(i)}, 200))); err != nil {
			t.Fatal(err)
		}
	}
	dev := srv.Catnip.Device()
	occupancy := func() int64 {
		var occ int64
		for q := 0; q < dev.NumRxQueues(); q++ {
			occ += int64(dev.RxOccupancy(q))
		}
		return occ
	}
	deadline := time.Now().Add(2 * time.Second)
	for occupancy() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frame ever stranded in the server's RX rings")
		}
		c.Switch.Flush()
		dev.QueueDepth(0) // force a wire drain so delivered frames ring
		time.Sleep(time.Millisecond)
	}

	if _, err := srv.Crash(); err != nil {
		t.Fatal(err)
	}
	ds := dev.Stats()
	if ds.RxFlushed == 0 {
		t.Fatal("crash flushed no ring frames despite stranded RX")
	}
	if occ := occupancy(); occ != 0 {
		t.Fatalf("ring occupancy = %d after crash, want 0", occ)
	}
	if st := srv.Catnip.StackStats(); ds.RxFrames != st.FramesIn+ds.RxFlushed {
		t.Fatalf("conservation violated across crash: rx=%d != frames_in=%d + flushed=%d",
			ds.RxFrames, st.FramesIn, ds.RxFlushed)
	}
}

// TestRestartUnderConcurrentPump drives a client node from two goroutines
// at once — its Background poller, and an application that pushes and pops
// on its endpoints directly, one echo at a time — across a crash and
// restart, a switch to catnap and back (which sets and clears the kernel's
// prices under the shard lock the two pumps take), and a second crash and
// restart on the promoted node's fresh stack. Every operation completes exactly once,
// every echo that completes carries its own request, and once the cluster
// is quiet the frame pool holds what it held before. Run it under -race.
func TestRestartUnderConcurrentPump(t *testing.T) {
	c := demi.NewCluster(57)
	srv := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{
		Host: 2, RTO: 2 * time.Millisecond, MaxRetransmits: 4,
	}))
	cli.WaitTimeout = 500 * time.Millisecond
	_, stopEcho, err := echo.Serve(srv.LibOS, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := fabric.DefaultFramePool.Outstanding()
	stopPoll := cli.Background()

	// op counts the completions of one push or pop.
	type op struct {
		fired atomic.Int32
		c     queue.Completion
	}
	var (
		ops    []*op // the application's, read once it has stopped
		echoes atomic.Int64
		stop   atomic.Bool
	)
	issue := func() (*op, queue.DoneFunc) {
		o := new(op)
		ops = append(ops, o)
		return o, func(comp queue.Completion) {
			o.c = comp // a second completion races the reader: -race reports it
			o.fired.Add(1)
		}
	}
	wait := func(o *op) bool {
		for deadline := time.Now().Add(5 * time.Second); o.fired.Load() == 0; {
			if time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
		return true
	}
	appDone := make(chan error, 1)
	go func() {
		qd := demi.QD(core.InvalidQD)
		for seq := 0; !stop.Load(); seq++ {
			if qd == core.InvalidQD {
				if cli.Crashed() {
					time.Sleep(time.Millisecond)
					continue
				}
				var err error
				if qd, err = cli.Socket(); err != nil {
					appDone <- err
					return
				}
				if cli.Connect(qd, c.AddrOf(srv, 7)) != nil {
					cli.Close(qd)
					qd = core.InvalidQD
					continue
				}
			}
			ep, err := cli.EndpointOf(qd)
			if err != nil {
				appDone <- err
				return
			}
			msg := []byte(fmt.Sprintf("echo %d", seq))
			push, pushDone := issue()
			pop, popDone := issue()
			ep.Push(demi.NewSGA(msg), 0, pushDone)
			ep.Pop(popDone)
			if !wait(push) || !wait(pop) {
				appDone <- fmt.Errorf("echo %d: an operation never completed", seq)
				return
			}
			if pop.c.Err == nil && push.c.Err == nil {
				got := pop.c.SGA.Bytes()
				if !bytes.Equal(got, msg) {
					appDone <- fmt.Errorf("echo %d came back as %q", seq, got)
					return
				}
				pop.c.SGA.Free()
				echoes.Add(1)
				continue
			}
			pop.c.SGA.Free()
			// A crash under the operation: the stream may have lost or kept
			// a message, so start a fresh one.
			cli.Close(qd)
			qd = core.InvalidQD
		}
		if qd != core.InvalidQD {
			cli.Close(qd)
		}
		appDone <- nil
	}()

	// progress waits for the application to complete n more echoes.
	progress := func(what string, n int64) {
		t.Helper()
		target := echoes.Load() + n
		for deadline := time.Now().Add(10 * time.Second); echoes.Load() < target; {
			select {
			case err := <-appDone:
				t.Fatalf("%s: the application stopped: %v", what, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d echoes of %d", what, echoes.Load()-target+n, n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	crashRestart := func(what string) {
		t.Helper()
		if _, err := cli.Crash(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := cli.Restart(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		progress(what, 50)
	}
	progress("warm-up", 50)
	crashRestart("crash and restart")
	if err := cli.SwitchKind(demi.Catnap); err != nil {
		t.Fatal(err)
	}
	progress("catnip to catnap", 50)
	if err := cli.SwitchKind(demi.Catnip); err != nil {
		t.Fatal(err)
	}
	progress("catnap to catnip", 50)
	crashRestart("crash and restart of the promoted node")

	stop.Store(true)
	if err := <-appDone; err != nil {
		t.Fatal(err)
	}
	stopPoll()
	stopEcho()
	c.Quiesce(50 * time.Millisecond)
	for i, o := range ops {
		if n := o.fired.Load(); n != 1 {
			t.Fatalf("operation %d of %d completed %d times", i, len(ops), n)
		}
	}
	if got := fabric.DefaultFramePool.Outstanding(); got != baseline {
		t.Fatalf("frame pool holds %d buffers once quiet, %d before", got, baseline)
	}
}
