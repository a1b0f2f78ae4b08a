package demikernel

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"demikernel/internal/queue"
	"demikernel/internal/sga"
)

// blockingIO is the part of a node, or of one libOS of it, echoOnce drives.
type blockingIO interface {
	BlockingPush(QD, SGA) (Completion, error)
	BlockingPop(QD) (Completion, error)
}

// echoOnce drives one full request/response over an established pair of
// queue descriptors.
func echoOnce(t *testing.T, cli blockingIO, cqd QD, srv blockingIO, sqd QD, payload string) {
	t.Helper()
	if _, err := cli.BlockingPush(cqd, NewSGA([]byte(payload))); err != nil {
		t.Fatalf("push: %v", err)
	}
	comp, err := srv.BlockingPop(sqd)
	if err != nil {
		t.Fatalf("server pop: %v", err)
	}
	if string(comp.SGA.Bytes()) != payload {
		t.Fatalf("server got %q, want %q", comp.SGA.Bytes(), payload)
	}
	if _, err := srv.BlockingPush(sqd, comp.SGA); err != nil {
		t.Fatalf("server push: %v", err)
	}
	back, err := cli.BlockingPop(cqd)
	if err != nil {
		t.Fatalf("client pop: %v", err)
	}
	if string(back.SGA.Bytes()) != payload {
		t.Fatalf("client got %q, want %q", back.SGA.Bytes(), payload)
	}
}

// listenAll opens a listening socket on port on every active shard of n
// — the one libOS of a node that has no shards — and returns them by shard.
func listenAll(tb testing.TB, n *Node, port uint16) []QD {
	tb.Helper()
	lqds := make([]QD, n.Shards())
	for i, lib := range n.Libs()[:n.Shards()] {
		var err error
		if lqds[i], err = lib.Socket(); err == nil {
			if err = lib.Bind(lqds[i], Addr{Port: port}); err == nil {
				err = lib.Listen(lqds[i])
			}
		}
		if err != nil {
			tb.Fatalf("listen on shard %d: %v", i, err)
		}
	}
	return lqds
}

// connectNodes builds a connected client/server pair over any two nodes.
func connectNodes(t *testing.T, cluster *Cluster, cli, srv *Node, port uint16) (cqd, sqd QD, cleanup func()) {
	t.Helper()
	stopS := srv.Background()
	stopC := cli.Background()

	lqd := listenAll(t, srv, port)[0]
	cqd, err := cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(cqd, cluster.AddrOf(srv, port)); err != nil {
		t.Fatalf("connect: %v", err)
	}
	sqd, err = srv.Accept(lqd)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	return cqd, sqd, func() { stopC(); stopS() }
}

func TestEchoOverCatnip(t *testing.T) {
	c := NewCluster(1)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()
	echoOnce(t, cli, cqd, srv, sqd, "dpdk-class path")
}

func TestEchoOverCatnap(t *testing.T) {
	c := NewCluster(2)
	srv := c.MustSpawn(Catnap, WithHost(1))
	cli := c.MustSpawn(Catnap, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()
	echoOnce(t, cli, cqd, srv, sqd, "kernel path")
	// catnap paid legacy costs: syscalls and copies happened.
	ctr := cli.Kernel.Counters()
	if ctr.SyscallCrossings == 0 || ctr.BytesCopied == 0 {
		t.Fatalf("catnap should cross the kernel and copy: %+v", ctr)
	}
}

func TestEchoOverCatmint(t *testing.T) {
	c := NewCluster(3)
	srv := c.MustSpawn(Catmint, WithHost(1))
	cli := c.MustSpawn(Catmint, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 7)
	defer cleanup()
	echoOnce(t, cli, cqd, srv, sqd, "rdma path")
}

func TestCrossLibOSInterop(t *testing.T) {
	// The wire format (TCP + SGA framing) is shared between the kernel
	// and DPDK libOSes, so a catnap client talks to a catnip server:
	// the paper's portability story, across stacks.
	c := NewCluster(4)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnap, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()
	echoOnce(t, cli, cqd, srv, sqd, "cross-libOS")
}

func TestMultiSegmentSGAPreserved(t *testing.T) {
	c := NewCluster(5)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()

	s := NewSGA([]byte("GET "), []byte("key:42"), []byte(" END"))
	if _, err := cli.BlockingPush(cqd, s); err != nil {
		t.Fatal(err)
	}
	comp, err := srv.BlockingPop(sqd)
	if err != nil {
		t.Fatal(err)
	}
	// "A scatter-gather array pushed into a Demikernel queue always
	// pops out as a single element" — including its segmentation.
	if comp.SGA.NumSegments() != 3 {
		t.Fatalf("segments = %d, want 3", comp.SGA.NumSegments())
	}
	if !comp.SGA.Equal(s) {
		t.Fatalf("got %v, want %v", comp.SGA, s)
	}
}

func TestWaitAnyAcrossConnections(t *testing.T) {
	c := NewCluster(6)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnip, WithHost(2))
	stopS := srv.Background()
	stopC := cli.Background()
	defer stopC()
	defer stopS()

	lqd, _ := srv.Socket()
	srv.Bind(lqd, Addr{Port: 80})
	srv.Listen(lqd)

	const n = 3
	cqds := make([]QD, n)
	sqds := make([]QD, n)
	for i := 0; i < n; i++ {
		cqd, err := cli.Socket()
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Connect(cqd, c.AddrOf(srv, 80)); err != nil {
			t.Fatal(err)
		}
		cqds[i] = cqd
		sqd, err := srv.Accept(lqd)
		if err != nil {
			t.Fatal(err)
		}
		sqds[i] = sqd
	}
	// The server waits on one pop token per connection.
	tokens := make([]QToken, n)
	for i, sqd := range sqds {
		qt, err := srv.Pop(sqd)
		if err != nil {
			t.Fatal(err)
		}
		tokens[i] = qt
	}
	// Client 1 (only) sends.
	if _, err := cli.BlockingPush(cqds[1], NewSGA([]byte("from-1"))); err != nil {
		t.Fatal(err)
	}
	idx, comp, err := srv.WaitAny(tokens)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("WaitAny idx = %d, want 1", idx)
	}
	if string(comp.SGA.Bytes()) != "from-1" {
		t.Fatalf("payload %q", comp.SGA.Bytes())
	}
}

func TestWaitAllMemoryQueues(t *testing.T) {
	c := NewCluster(7)
	n := c.MustSpawn(Catnip, WithHost(1))
	q1 := n.Queue()
	q2 := n.Queue()
	t1, _ := n.Push(q1, NewSGA([]byte("a")))
	t2, _ := n.Push(q2, NewSGA([]byte("b")))
	p1, _ := n.Pop(q1)
	p2, _ := n.Pop(q2)
	comps, err := n.WaitAll([]QToken{t1, t2, p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if string(comps[2].SGA.Bytes()) != "a" || string(comps[3].SGA.Bytes()) != "b" {
		t.Fatalf("pops: %q %q", comps[2].SGA.Bytes(), comps[3].SGA.Bytes())
	}
}

func TestComposedQueueSyscalls(t *testing.T) {
	c := NewCluster(8)
	n := c.MustSpawn(Catnip, WithHost(1))
	base := n.Queue()
	fqd, err := n.Filter(base, func(s SGA) bool { return s.Len() > 3 })
	if err != nil {
		t.Fatal(err)
	}
	mqd, err := n.Map(fqd, func(s SGA) SGA {
		return NewSGA(append([]byte(">"), s.Bytes()...))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"ab", "abcd", "x", "longer"} {
		if _, err := n.BlockingPush(base, NewSGA([]byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{">abcd", ">longer"} {
		comp, err := n.BlockingPop(mqd)
		if err != nil {
			t.Fatal(err)
		}
		if string(comp.SGA.Bytes()) != want {
			t.Fatalf("got %q, want %q", comp.SGA.Bytes(), want)
		}
	}
}

func TestSortQueueSyscall(t *testing.T) {
	c := NewCluster(9)
	n := c.MustSpawn(Catnip, WithHost(1))
	base := n.Queue()
	sqd, err := n.Sort(base, func(a, b SGA) bool { return a.Bytes()[0] < b.Bytes()[0] })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []byte{9, 2, 7, 1} {
		if _, err := n.BlockingPush(base, NewSGA([]byte{p})); err != nil {
			t.Fatal(err)
		}
	}
	n.Poll() // prefetch into the sorted view
	var got []byte
	for i := 0; i < 4; i++ {
		comp, err := n.BlockingPop(sqd)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, comp.SGA.Bytes()[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("not priority ordered: %v", got)
		}
	}
}

func TestQConnectForwarding(t *testing.T) {
	c := NewCluster(10)
	n := c.MustSpawn(Catnip, WithHost(1))
	in := n.Queue()
	out := n.Queue()
	if err := n.QConnect(in, out); err != nil {
		t.Fatal(err)
	}
	if _, err := n.BlockingPush(in, NewSGA([]byte("through"))); err != nil {
		t.Fatal(err)
	}
	comp, err := n.BlockingPop(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(comp.SGA.Bytes()) != "through" {
		t.Fatalf("got %q", comp.SGA.Bytes())
	}
}

func TestCatfishFileQueues(t *testing.T) {
	c := NewCluster(11)
	node, err := c.Spawn(Catfish, WithBlocks(0))
	if err != nil {
		t.Fatal(err)
	}
	qd, err := node.Open("/logs/requests")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s := NewSGA([]byte(fmt.Sprintf("record-%d", i)))
		if _, err := node.BlockingPush(qd, s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		comp, err := node.BlockingPop(qd)
		if err != nil {
			t.Fatal(err)
		}
		if string(comp.SGA.Bytes()) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = %q", i, comp.SGA.Bytes())
		}
	}
}

func TestCatfishDurability(t *testing.T) {
	c := NewCluster(12)
	disk := c.NewDisk(0)
	node1, err := c.Spawn(Catfish, WithDisk(disk))
	if err != nil {
		t.Fatal(err)
	}
	qd, _ := node1.Open("/wal")
	node1.BlockingPush(qd, NewSGA([]byte("survives"), []byte(" restarts")))

	// "Restart": a fresh libOS over the same device recovers the log.
	node2, err := c.Spawn(Catfish, WithDisk(disk))
	if err != nil {
		t.Fatal(err)
	}
	qd2, err := node2.Open("/wal")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := node2.BlockingPop(qd2)
	if err != nil {
		t.Fatal(err)
	}
	if string(comp.SGA.Bytes()) != "survives restarts" {
		t.Fatalf("got %q", comp.SGA.Bytes())
	}
	if comp.SGA.NumSegments() != 2 {
		t.Fatalf("segmentation lost across restart: %d", comp.SGA.NumSegments())
	}
}

// TestFileQueueOpensShareRecords: the opens of one path read one log, on
// both storage libOSes. Each open pops every record in log order,
// whichever open pushed it; a push through one open answers a pop parked
// on another with no poll; and two pushers beside two poppers leave both
// poppers with one sequence holding every record once.
func TestFileQueueOpensShareRecords(t *testing.T) {
	kinds := []struct {
		name  string
		spawn func() *Node
	}{
		{"catnap", func() *Node {
			c := NewCluster(41)
			n := c.MustSpawn(Catnap, WithHost(1))
			n.Kernel.AttachDisk(c.NewDisk(0))
			return n
		}},
		{"catfish", func() *Node { return NewCluster(42).MustSpawn(Catfish, WithBlocks(0)) }},
	}
	push := func(t *testing.T, n *Node, qd QD, rec string) {
		if c, err := n.BlockingPush(qd, NewSGA([]byte(rec))); err != nil || c.Err != nil {
			t.Errorf("push %s: %v %v", rec, err, c.Err)
		}
	}
	// answered returns what qt's pop took, which it must have by now.
	answered := func(t *testing.T, n *Node, qt QToken) string {
		t.Helper()
		c, ok, err := n.TryWait(qt)
		if err != nil || !ok || c.Err != nil {
			t.Fatalf("pop not answered: ok=%v %v %v", ok, err, c.Err)
		}
		return string(c.SGA.Bytes())
	}
	popNow := func(t *testing.T, n *Node, qd QD) string {
		t.Helper()
		qt, err := n.Pop(qd)
		if err != nil {
			t.Fatal(err)
		}
		return answered(t, n, qt)
	}
	cases := []struct {
		name string
		run  func(t *testing.T, n *Node, q1, q2 QD)
	}{
		{"interleaved", func(t *testing.T, n *Node, q1, q2 QD) {
			for i, qd := range []QD{q1, q2, q1} {
				push(t, n, qd, fmt.Sprintf("r%d", i))
			}
			for j, qd := range []QD{q1, q2} {
				for i := 0; i < 3; i++ {
					if got, want := popNow(t, n, qd), fmt.Sprintf("r%d", i); got != want {
						t.Fatalf("open %d popped %q, want %q", j+1, got, want)
					}
				}
			}
		}},
		{"parked", func(t *testing.T, n *Node, q1, q2 QD) {
			qt, err := n.Pop(q1)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := n.TryWait(qt); ok {
				t.Fatal("pop answered on an empty log")
			}
			push(t, n, q2, "wakes q1")
			if got := answered(t, n, qt); got != "wakes q1" {
				t.Fatalf("parked pop got %q", got)
			}
		}},
		{"concurrent", func(t *testing.T, n *Node, q1, q2 QD) {
			const each = 100
			n.WaitTimeout = 10 * time.Second
			var wg sync.WaitGroup
			seqs := make([][]string, 2)
			for w, qd := range []QD{q1, q2} {
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						push(t, n, qd, fmt.Sprintf("w%d-%03d", w, i))
					}
				}()
				go func() {
					defer wg.Done()
					for range 2 * each {
						qt, err := n.Pop(qd)
						if err != nil {
							t.Error(err)
							return
						}
						c, err := n.Wait(qt)
						if err != nil || c.Err != nil {
							t.Errorf("reader %d after %d records: %v %v", w, len(seqs[w]), err, c.Err)
							return
						}
						seqs[w] = append(seqs[w], string(c.SGA.Bytes()))
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if !slices.Equal(seqs[0], seqs[1]) {
				t.Fatalf("the readers popped different sequences:\n%v\n%v", seqs[0], seqs[1])
			}
			next := [2]int{}
			for _, rec := range seqs[0] {
				var w, i int
				if _, err := fmt.Sscanf(rec, "w%d-%d", &w, &i); err != nil || i != next[w] {
					t.Fatalf("popped %q, want w%d-%03d next", rec, w, next[w])
				}
				next[w]++
			}
		}},
	}
	for _, k := range kinds {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				n := k.spawn()
				q1, err := n.Open("/shared")
				if err != nil {
					t.Fatal(err)
				}
				q2, err := n.Open("/shared")
				if err != nil {
					t.Fatal(err)
				}
				tc.run(t, n, q1, q2)
			})
		}
	}
}

func TestFeaturesTaxonomy(t *testing.T) {
	c := NewCluster(13)
	catnipNode := c.MustSpawn(Catnip, WithHost(1))
	catnapNode := c.MustSpawn(Catnap, WithHost(2))
	catmintNode := c.MustSpawn(Catmint, WithHost(3))
	if !catnipNode.Features().KernelBypass {
		t.Fatal("catnip must be kernel-bypass")
	}
	if catnapNode.Features().KernelBypass {
		t.Fatal("catnap must not claim kernel bypass")
	}
	if !catmintNode.Features().HWTransport {
		t.Fatal("catmint's device provides a hardware transport")
	}
	// The DPDK libOS must supply strictly more software than the RDMA
	// libOS (Table 1: RDMA adds OS features in hardware).
	if len(catnipNode.Features().SoftwareSupplied) <= len(catmintNode.Features().SoftwareSupplied)-1 {
		t.Fatalf("catnip supplies %v, catmint %v",
			catnipNode.Features().SoftwareSupplied, catmintNode.Features().SoftwareSupplied)
	}
}

func TestBadDescriptorsRejected(t *testing.T) {
	c := NewCluster(14)
	n := c.MustSpawn(Catnip, WithHost(1))
	if _, err := n.Push(QD(999), NewSGA([]byte("x"))); !errors.Is(err, ErrBadQD) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.Pop(QD(999)); !errors.Is(err, ErrBadQD) {
		t.Fatalf("err = %v", err)
	}
	if err := n.Close(QD(999)); !errors.Is(err, ErrBadQD) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.Open("/nope"); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("catnip Open err = %v", err)
	}
}

func TestWaitChanExactlyOneWaiter(t *testing.T) {
	c := NewCluster(15)
	n := c.MustSpawn(Catnip, WithHost(1))
	q := n.Queue()
	qt, err := n.Pop(q)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := n.WaitChan(qt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WaitChan(qt); !errors.Is(err, queue.ErrTokenClaimed) {
		t.Fatalf("second waiter err = %v", err)
	}
	if _, err := n.Push(q, NewSGA([]byte("wake"))); err != nil {
		t.Fatal(err)
	}
	comp := <-ch
	if string(comp.SGA.Bytes()) != "wake" {
		t.Fatalf("got %q", comp.SGA.Bytes())
	}
}

func TestAllocSGAFreeProtection(t *testing.T) {
	c := NewCluster(16)
	// A tenant node: its frame pool is its own, so its count is this test's.
	n := c.MustSpawn(Catnip, WithHost(1), WithTenant("t", TenantPolicy{}))
	s := n.AllocSGA(128)
	if s.Len() != 128 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := n.Catnip.Pool().Outstanding(); got != 1 {
		t.Fatalf("pool buffers out = %d, want 1", got)
	}
	s.Free()
	if got := n.Catnip.Pool().Outstanding(); got != 0 {
		t.Fatalf("pool buffers out = %d after Free", got)
	}
}

func TestPropagatedCostsOverCatnip(t *testing.T) {
	c := NewCluster(17)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()

	appCost := c.Model.AppRequestNS
	qt, err := cli.PushCost(cqd, NewSGA(make([]byte, 64)), appCost)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Wait(qt); err != nil {
		t.Fatal(err)
	}
	comp, err := srv.BlockingPop(sqd)
	if err != nil {
		t.Fatal(err)
	}
	// End-to-end virtual latency must include app compute, user stack,
	// NIC, and wire — i.e. strictly more than the app cost alone.
	if comp.Cost <= appCost {
		t.Fatalf("cost %v did not accumulate the path", comp.Cost)
	}
}

var _ = sga.SGA{} // keep the import for the documented example types
