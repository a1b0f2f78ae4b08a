package demikernel_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	demi "demikernel"
	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/apps/serve"
	"demikernel/internal/telemetry"
)

// check stops an example on an error it cannot go on from.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Example_quickstart is the queue abstraction in its smallest form: memory
// queues, non-blocking push and pop returning qtokens, and the wait calls
// of Figure 3.
func Example_quickstart() {
	node := demi.NewCluster(1).MustSpawn(demi.Catnip, demi.WithHost(1))

	// push() is non-blocking: it returns a qtoken, and wait() polls the
	// libOS until the operation completes.
	qd := node.Queue()
	qt, err := node.Push(qd, demi.NewSGA([]byte("hello, "), []byte("queues")))
	check(err)
	_, err = node.Wait(qt)
	check(err)

	// pop() returns the whole element or nothing, never a fragment.
	comp, err := node.BlockingPop(qd)
	check(err)
	fmt.Printf("popped %d segments, %d bytes: %q\n", comp.SGA.NumSegments(), comp.SGA.Len(), comp.SGA.Bytes())

	// wait_any() is the queue-native epoll: one token per outstanding
	// operation, and the completion carries the data.
	q1, q2 := node.Queue(), node.Queue()
	t1, _ := node.Pop(q1)
	t2, _ := node.Pop(q2)
	_, err = node.BlockingPush(q2, demi.NewSGA([]byte("second queue wins")))
	check(err)
	idx, comp, err := node.WaitAny([]demi.QToken{t1, t2})
	check(err)
	fmt.Printf("wait_any: queue #%d completed first with %q\n", idx+1, comp.SGA.Bytes())
	// Output:
	// popped 2 segments, 13 bytes: "hello, queues"
	// wait_any: queue #2 completed first with "second queue wins"
}

// Example_pipeline is queue composition (§4.3): filter, map, sort and
// merge build an I/O pipeline a libOS could offload to a programmable
// device. Here the stages run on the CPU; experiment E8 lowers the same
// filter onto the simulated NIC.
func Example_pipeline() {
	node := demi.NewCluster(3).MustSpawn(demi.Catnip, demi.WithHost(1))
	ingress := node.Queue()
	valid, err := node.Filter(ingress, func(s demi.SGA) bool { return s.Bytes()[0] != '#' })
	check(err)
	tagged, err := node.Map(valid, func(s demi.SGA) demi.SGA {
		return demi.NewSGA(append([]byte(fmt.Sprintf("[%02d]", s.Len())), s.Bytes()...))
	})
	check(err)
	// Highest priority first: the first byte after the tag, '0' before '9'.
	sorted, err := node.Sort(tagged, func(a, b demi.SGA) bool { return a.Bytes()[4] < b.Bytes()[4] })
	check(err)
	for _, in := range []string{"3:disk-temp=41C", "#corrupt-frame", "0:PAGER:machine-down", "9:fan-rpm=1200", "1:latency-spike=9ms"} {
		_, err := node.BlockingPush(ingress, demi.NewSGA([]byte(in)))
		check(err)
	}
	node.Poll() // the sorted view prefetches everything pushed
	for i := 0; i < 4; i++ {
		comp, err := node.BlockingPop(sorted)
		check(err)
		fmt.Printf("%s\n", comp.SGA.Bytes())
	}

	// One consumer view over two producer queues.
	qa, qb := node.Queue(), node.Queue()
	merged, err := node.Merge(qa, qb)
	check(err)
	node.BlockingPush(qa, demi.NewSGA([]byte("from queue A")))
	node.BlockingPush(qb, demi.NewSGA([]byte("from queue B")))
	node.Poll()
	for i := 0; i < 2; i++ {
		comp, err := node.BlockingPop(merged)
		check(err)
		fmt.Printf("merged: %s\n", comp.SGA.Bytes())
	}
	// Output:
	// [20]0:PAGER:machine-down
	// [19]1:latency-spike=9ms
	// [15]3:disk-temp=41C
	// [14]9:fan-rpm=1200
	// merged: from queue A
	// merged: from queue B
}

// Example_multidevice is the portability claim (§4.1): one application,
// written once against the Demikernel API, runs unmodified over the kernel,
// DPDK-class and RDMA-class libOSes. Only the kind the nodes are spawned
// with changes; the application sees it only in latency.
func Example_multidevice() {
	rtt := map[demi.Kind]demi.Lat{}
	for _, kind := range []demi.Kind{demi.Catnap, demi.Catnip, demi.Catmint} {
		c := demi.NewCluster(9)
		srv, cli := c.MustSpawn(kind, demi.WithHost(1)), c.MustSpawn(kind, demi.WithHost(2))
		_, stopSrv, err := echo.Serve(srv.LibOS, 7, c.Model.AppRequestNS)
		check(err)
		client, stopCli, err := echo.Dial(cli.LibOS, c.AddrOf(srv, 7))
		check(err)
		for i := 0; i < 10; i++ {
			cost, err := client.RTT([]byte("portable payload"), 0)
			check(err)
			rtt[kind] += cost
		}
		stopCli()
		stopSrv()
		fmt.Printf("%s: 10 echoes\n", kind)
	}
	fmt.Println("catnip faster than catnap:", rtt[demi.Catnip] < rtt[demi.Catnap])
	fmt.Println("catmint faster than catnap:", rtt[demi.Catmint] < rtt[demi.Catnap])
	// Output:
	// catnap: 10 echoes
	// catnip: 10 echoes
	// catmint: 10 echoes
	// catnip faster than catnap: true
	// catmint faster than catnap: true
}

// Example_kvstore is the paper's running example: a Redis-like store whose
// 4 KiB values travel zero-copy over the kernel-bypass libOS (§4.5), and
// pay the syscalls and copies of §3.2 over the kernel one. Both come from
// the client node's own counters over one SET and one GET. The number of
// syscalls follows how many polls the bytes arrived across, so it shows
// as whether there were any.
func Example_kvstore() {
	value := make([]byte, 4096)
	for i := range value {
		value[i] = byte(i)
	}
	for _, kind := range []demi.Kind{demi.Catnip, demi.Catnap} {
		c := demi.NewCluster(7)
		srvNode, cliNode := c.MustSpawn(kind, demi.WithHost(1)), c.MustSpawn(kind, demi.WithHost(2))
		_, stopSrv, err := kv.Serve(srvNode.Libs(), srvNode.Mesh(), srvNode.Shards(), &c.Model, 6379)
		check(err)
		client, stopCli, err := kv.Dial(cliNode.LibOS, srvNode.Shards(), c.Router().Dialer(cliNode, srvNode, 6379))
		check(err)
		reg := telemetry.NewRegistry()
		cliNode.RegisterTelemetry(reg, "cli")
		before := reg.Snapshot()
		_, err = client.Set("user:1000", value)
		check(err)
		got, _, found, err := client.Get("user:1000")
		check(err)
		ctr := reg.Snapshot().Diff(before)
		syscalls, _ := ctr.Get("cli.kernel.syscall_crossings")
		copied, _ := ctr.Get("cli.kernel.bytes_copied")
		stopCli()
		stopSrv()
		fmt.Printf("%s: value intact: %v, syscalls: %v, payload bytes copied: %d\n",
			kind, found && bytes.Equal(got, value), syscalls > 0, copied)
	}
	// Output:
	// catnip: value intact: true, syscalls: false, payload bytes copied: 0
	// catnap: value intact: true, syscalls: true, payload bytes copied: 8284
}

// memcache is a memcached-shaped server on serve.Loop, the loop libevent
// runs (the §4.4 vision: "a libevent-based Demikernel OS, which would
// enable applications, like memcached, to achieve the benefits of
// kernel-bypass transparently"), over a completion ring instead of
// readiness. A completion carries its request whole, and a connection with
// nothing to say costs the loop nothing. What is left to write is the
// protocol: "set k v" | "get k".
type memcache struct {
	*serve.Loop[struct{}, struct{}]
	cache  map[string]string
	served int
}

// listenMemcache starts a memcache server on lib's port.
func listenMemcache(lib *demi.LibOS, port uint16) (*memcache, error) {
	s := &memcache{cache: map[string]string{}}
	s.Loop = serve.New(lib, serve.App[struct{}, struct{}]{
		Accepted: func(c *serve.Conn[struct{}, struct{}]) { s.Pop(c) },
		Popped: func(c *serve.Conn[struct{}, struct{}], req demi.SGA, cost demi.Lat) int {
			reply := s.handle(string(req.Bytes()))
			req.Free()
			s.served++
			s.Push(c, demi.NewSGA([]byte(reply)), cost, struct{}{})
			s.Pop(c)
			return 1
		},
		Release: func(struct{}) {},
	})
	return s, s.Listen(port)
}

func (s *memcache) handle(req string) string {
	parts := strings.SplitN(req, " ", 3)
	switch {
	case parts[0] == "set" && len(parts) == 3:
		s.cache[parts[1]] = parts[2]
		return "STORED"
	case parts[0] == "get" && len(parts) == 2:
		if v, ok := s.cache[parts[1]]; ok {
			return "VALUE " + v
		}
		return "END"
	}
	return "ERROR"
}

// memcacheClient connects a client node to a memcache server on srvNode
// and returns its request function.
func memcacheClient(c *demi.Cluster, cliNode, srvNode *demi.Node) (func(cmd string) (string, error), error) {
	cqd, err := cliNode.Socket()
	if err == nil {
		err = cliNode.Connect(cqd, c.AddrOf(srvNode, 11211))
	}
	return func(cmd string) (string, error) {
		if _, err := cliNode.BlockingPush(cqd, demi.NewSGA([]byte(cmd))); err != nil {
			return "", err
		}
		comp, err := cliNode.BlockingPop(cqd)
		if err == nil {
			err = comp.Err
		}
		defer comp.SGA.Free()
		return string(comp.SGA.Bytes()), err
	}, err
}

// Example_eventloop serves memcache on its own loop goroutine and sends it
// three requests over one connection.
func Example_eventloop() {
	c := demi.NewCluster(11)
	srvNode, cliNode := c.MustSpawn(demi.Catnip, demi.WithHost(1)), c.MustSpawn(demi.Catnip, demi.WithHost(2))
	defer cliNode.Background()()
	srv, err := listenMemcache(srvNode.LibOS, 11211)
	check(err)
	stop := srv.Start()
	request, err := memcacheClient(c, cliNode, srvNode)
	check(err)
	for _, cmd := range []string{"set answer 42", "get answer", "get missing"} {
		reply, err := request(cmd)
		check(err)
		fmt.Printf("%-14s -> %s\n", cmd, reply)
	}
	stop()
	fmt.Printf("%d connection, %d requests, one completion each\n", srv.Accepts(), srv.served)
	// Output:
	// set answer 42  -> STORED
	// get answer     -> VALUE 42
	// get missing    -> END
	// 1 connection, 3 requests, one completion each
}

// TestMemcachedShapeServer builds the §4.4 vision: an event-driven server
// (the shape memcached has under libevent) running over kernel-bypass
// transparently. Ten sets and ten gets through the loop each come back
// answered, from one accepted connection.
func TestMemcachedShapeServer(t *testing.T) {
	c := demi.NewCluster(84)
	srvNode, cliNode := c.MustSpawn(demi.Catnip, demi.WithHost(1)), c.MustSpawn(demi.Catnip, demi.WithHost(2))
	defer cliNode.Background()()
	srv, err := listenMemcache(srvNode.LibOS, 11211)
	if err != nil {
		t.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		srv.Run(stop)
	}()
	request, err := memcacheClient(c, cliNode, srvNode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got, err := request(fmt.Sprintf("set k%d v%d", i, i)); err != nil || got != "STORED" {
			t.Fatalf("set %d: %q %v", i, got, err)
		}
		if got, err := request(fmt.Sprintf("get k%d", i)); err != nil || got != fmt.Sprintf("VALUE v%d", i) {
			t.Fatalf("get %d: %q %v", i, got, err)
		}
	}
	close(stop)
	<-stopped
	if srv.Accepts() != 1 || srv.served != 20 {
		t.Fatalf("accepted %d connections, served %d requests; want 1, 20", srv.Accepts(), srv.served)
	}
}
