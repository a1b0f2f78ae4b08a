package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/core"
	"demikernel/internal/queue"
)

func newNode(t *testing.T, seed int64) *demi.Node {
	t.Helper()
	return demi.NewCluster(seed).MustSpawn(demi.Catnip, demi.WithHost(1))
}

func TestWaitUnknownToken(t *testing.T) {
	n := newNode(t, 111)
	if _, err := n.Wait(queue.QToken(424242)); !errors.Is(err, queue.ErrUnknownToken) {
		t.Fatalf("err = %v", err)
	}
}

func TestWaitTimesOut(t *testing.T) {
	n := newNode(t, 112)
	n.WaitTimeout = 30 * time.Millisecond
	q := n.Queue()
	qt, err := n.Pop(q) // nothing will ever arrive
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := n.Wait(qt); !errors.Is(err, core.ErrWaitTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout far exceeded WaitTimeout")
	}
}

// TestWaitTimesOutOnNodeClock: a wait's timeout is WaitTimeout on the
// node's clock. At an hour of it, wall time cannot be what ends a wait on
// a pop nobody answers; stepping the node's clock past the hour does, at
// once.
func TestWaitTimesOutOnNodeClock(t *testing.T) {
	n := newNode(t, 123)
	n.WaitTimeout = time.Hour
	qt, err := n.Pop(n.Queue())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := n.Wait(qt)
		done <- err
	}()
	// Step until the wait returns: a step that lands before the wait
	// read its deadline only moves the deadline, and the next one passes it.
	giveUp := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			if !errors.Is(err, core.ErrWaitTimeout) {
				t.Fatalf("err = %v, want ErrWaitTimeout", err)
			}
			return
		case <-giveUp:
			t.Fatal("the wait outlived ten wall seconds of steps past WaitTimeout")
		case <-time.After(time.Millisecond):
			n.Clock().Step(time.Hour + time.Second)
		}
	}
}

func TestAcceptTimesOut(t *testing.T) {
	n := newNode(t, 113)
	n.WaitTimeout = 30 * time.Millisecond
	qd, _ := n.Socket()
	n.Bind(qd, demi.Addr{Port: 99})
	n.Listen(qd)
	if _, err := n.Accept(qd); !errors.Is(err, core.ErrWaitTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestWaitAnyTimesOut(t *testing.T) {
	n := newNode(t, 114)
	n.WaitTimeout = 30 * time.Millisecond
	q := n.Queue()
	qt, _ := n.Pop(q)
	if _, _, err := n.WaitAny([]queue.QToken{qt}); !errors.Is(err, core.ErrWaitTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndpointOfNonEndpoint(t *testing.T) {
	n := newNode(t, 115)
	q := n.Queue()
	if _, err := n.EndpointOf(q); !errors.Is(err, core.ErrBadQD) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.EndpointOf(demi.QD(999)); !errors.Is(err, core.ErrBadQD) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateAliasesOpenOnStorage(t *testing.T) {
	c := demi.NewCluster(116)
	n, err := c.Spawn(demi.Catfish, demi.WithBlocks(0))
	if err != nil {
		t.Fatal(err)
	}
	qd, err := n.Create("/made")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.BlockingPush(qd, demi.NewSGA([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	qd2, err := n.Open("/made")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := n.BlockingPop(qd2)
	if err != nil || string(comp.SGA.Bytes()) != "x" {
		t.Fatalf("comp=%v err=%v", comp, err)
	}
}

func TestQConnectChain(t *testing.T) {
	// queue -> filter -> queue via two qconnects: a §4.3 pipeline
	// stitched from forwarding rules.
	n := newNode(t, 117)
	in := n.Queue()
	mid, err := n.Filter(n.Queue(), func(s demi.SGA) bool { return s.Len() >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	out := n.Queue()
	if err := n.QConnect(in, mid); err != nil {
		t.Fatal(err)
	}
	if err := n.QConnect(mid, out); err != nil {
		t.Fatal(err)
	}
	n.BlockingPush(in, demi.NewSGA([]byte("y")))  // filtered out
	n.BlockingPush(in, demi.NewSGA([]byte("ok"))) // passes
	comp, err := n.BlockingPop(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(comp.SGA.Bytes()) != "ok" {
		t.Fatalf("got %q", comp.SGA.Bytes())
	}
}

func TestCloseFailsOutstandingOps(t *testing.T) {
	n := newNode(t, 118)
	q := n.Queue()
	qt, _ := n.Pop(q)
	if err := n.Close(q); err != nil {
		t.Fatal(err)
	}
	comp, err := n.Wait(qt)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(comp.Err, queue.ErrClosed) {
		t.Fatalf("comp.Err = %v", comp.Err)
	}
	// The descriptor is gone.
	if _, err := n.Pop(q); !errors.Is(err, core.ErrBadQD) {
		t.Fatalf("err = %v", err)
	}
}

func TestTryWaitNonBlocking(t *testing.T) {
	n := newNode(t, 119)
	q := n.Queue()
	qt, _ := n.Pop(q)
	if _, ok, err := n.TryWait(qt); ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	n.BlockingPush(q, demi.NewSGA([]byte("now")))
	comp, ok, err := n.TryWait(qt)
	if !ok || err != nil || string(comp.SGA.Bytes()) != "now" {
		t.Fatalf("ok=%v err=%v comp=%v", ok, err, comp)
	}
}

func TestMergeOfComposedQueues(t *testing.T) {
	n := newNode(t, 120)
	a, b := n.Queue(), n.Queue()
	fa, err := n.Filter(a, func(s demi.SGA) bool { return s.Bytes()[0] == 'A' })
	if err != nil {
		t.Fatal(err)
	}
	m, err := n.Merge(fa, b)
	if err != nil {
		t.Fatal(err)
	}
	n.BlockingPush(a, demi.NewSGA([]byte("X-dropped")))
	n.BlockingPush(a, demi.NewSGA([]byte("A-pass")))
	n.BlockingPush(b, demi.NewSGA([]byte("B-direct")))
	n.Poll()
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		comp, err := n.BlockingPop(m)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(comp.SGA.Bytes())] = true
	}
	if !seen["A-pass"] || !seen["B-direct"] {
		t.Fatalf("merged = %v", seen)
	}
}

func TestErrWaitTimeoutSentinel(t *testing.T) {
	// Every deadline error across the system-call surface wraps the one
	// sentinel, so applications can write a single errors.Is check.
	n := newNode(t, 120)
	n.WaitTimeout = 20 * time.Millisecond
	q := n.Queue()
	qt, err := n.Pop(q) // nothing will ever arrive
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Wait(qt); !errors.Is(err, core.ErrWaitTimeout) {
		t.Fatalf("Wait: %v does not wrap ErrWaitTimeout", err)
	}
	if _, err := n.WaitAll([]queue.QToken{qt}); !errors.Is(err, core.ErrWaitTimeout) {
		t.Fatalf("WaitAll: %v does not wrap ErrWaitTimeout", err)
	}
	// The wrapped form must still carry the operation's name for logs.
	_, err = n.Wait(qt)
	if err == nil || err.Error() == core.ErrWaitTimeout.Error() {
		t.Fatalf("Wait error %q should wrap the sentinel with context", err)
	}
}

func TestConnectTimeoutWrapsSentinel(t *testing.T) {
	// Connecting to a host that never answers must fail within the
	// configured deadline with the typed sentinel — not hang. (catnap's
	// kernel stack keeps retrying SYNs below the libOS, so the generic
	// wait deadline is the backstop there.)
	c := demi.NewCluster(121)
	n := c.MustSpawn(demi.Catnap, demi.WithHost(1))
	n.WaitTimeout = 30 * time.Millisecond
	qd, err := n.Socket()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = n.Connect(qd, demi.Addr{IP: c.MustSpawn(demi.Catnap, demi.WithHost(9)).IP, Port: 1})
	if !errors.Is(err, core.ErrWaitTimeout) {
		t.Fatalf("connect to silent host: %v does not wrap ErrWaitTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("connect timeout took far longer than the configured deadline")
	}
}

// TestDescriptorTableConcurrent races the descriptor table's writers
// against its lock-free readers: one goroutine opens and closes sockets —
// enough of them that the table is replaced by a bigger one several times
// over — while two others push, pop and wait on queues of their own and
// poll a listener for connections. Every live descriptor resolves on every
// call, and a closed one reads ErrBadQD at once and for good. Run it under
// -race.
func TestDescriptorTableConcurrent(t *testing.T) {
	n := newNode(t, 122)
	lqd, err := n.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bind(lqd, demi.Addr{Port: 80}); err != nil {
		t.Fatal(err)
	}
	if err := n.Listen(lqd); err != nil {
		t.Fatal(err)
	}
	const sockets = 3000
	var closed []demi.QD
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < sockets; i++ {
			qd, err := n.Socket()
			if err != nil {
				t.Error(err)
				return
			}
			if err := n.Close(qd); err != nil {
				t.Error(err)
				return
			}
			if _, err := n.Pop(qd); !errors.Is(err, core.ErrBadQD) {
				t.Errorf("pop on closed QD %d: %v", qd, err)
				return
			}
			closed = append(closed, qd)
		}
	}()
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		q := n.Queue()
		go func() {
			for i := 0; ; i++ {
				select {
				case <-churned:
					errs <- nil
					return
				default:
				}
				push, err := n.Push(q, demi.NewSGA([]byte{byte(i)}))
				if err != nil {
					errs <- err
					return
				}
				pop, err := n.Pop(q)
				if err != nil {
					errs <- err
					return
				}
				if _, ok, err := n.TryWait(push); !ok || err != nil {
					errs <- fmt.Errorf("push %d: done %v, %v", i, ok, err)
					return
				}
				if c, ok, err := n.TryWait(pop); !ok || err != nil || c.SGA.Bytes()[0] != byte(i) {
					errs <- fmt.Errorf("pop %d: done %v, %v", i, ok, err)
					return
				}
				if _, ok, err := n.TryAccept(lqd); ok || err != nil {
					errs <- fmt.Errorf("accept on an idle listener: %v, %v", ok, err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(closed) != sockets {
		t.Fatalf("%d sockets opened and closed, want %d", len(closed), sockets)
	}
	for _, qd := range closed {
		if _, _, err := n.TryAccept(qd); !errors.Is(err, core.ErrBadQD) {
			t.Fatalf("accept on closed QD %d: %v", qd, err)
		}
		if err := n.Close(qd); !errors.Is(err, core.ErrBadQD) {
			t.Fatalf("second close of QD %d: %v", qd, err)
		}
	}
}
