// eventloop: the §4.4 vision, built — "we plan to implement a
// libevent-based Demikernel OS, which would enable applications, like
// memcached, to achieve the benefits of kernel-bypass transparently."
//
// This example is a memcached-shaped server written as the loop libevent
// runs, over a completion ring instead of readiness. Each turn accepts new
// connections and arms one pop on each, harvests what completed since the
// last turn, handles every completion by its tag — a request gets its
// response pushed and the connection's next pop armed — and submits all
// it staged as one batch. A completion carries its request whole (no
// extra read call), and a connection with nothing to say costs the loop
// nothing: there is no readiness to scan and no thundering herd to tame.
package main

import (
	"fmt"
	"log"
	"strings"

	demi "demikernel"
	"demikernel/internal/queue"
	"demikernel/internal/uring"
)

// server is the loop's state: its listener, its ring and the cache.
type server struct {
	lib   *demi.LibOS
	lqd   demi.QD
	ring  *uring.Pair
	sqes  []uring.SQE
	cqes  []uring.CQE
	cache map[string]string

	accepted, served int
}

// listen starts a server on lib's port.
func listen(lib *demi.LibOS, port uint16) (*server, error) {
	lqd, err := lib.Socket()
	if err != nil {
		return nil, err
	}
	if err := lib.Bind(lqd, demi.Addr{Port: port}); err != nil {
		return nil, err
	}
	if err := lib.Listen(lqd); err != nil {
		return nil, err
	}
	return &server{
		lib:   lib,
		lqd:   lqd,
		ring:  lib.AttachRing(16),
		cqes:  make([]uring.CQE, 16),
		cache: map[string]string{},
	}, nil
}

// step is one turn of the loop. A completion's tag is its connection.
func (s *server) step() {
	for {
		conn, ok, err := s.lib.TryAccept(s.lqd)
		if err != nil || !ok {
			break
		}
		s.accepted++
		s.sqes = append(s.sqes, uring.SQE{Op: queue.OpPop, QD: int32(conn), Tag: uint64(conn)})
	}
	n := s.lib.HarvestCQ(s.ring, s.cqes)
	for i := range s.cqes[:n] {
		c := &s.cqes[i]
		conn := demi.QD(c.Tag)
		switch {
		case c.Err != nil:
			s.lib.Close(conn) //nolint:errcheck // the peer is gone; so may the descriptor be
		case c.Kind == queue.OpPop:
			reply := s.handle(string(c.SGA.Bytes()))
			c.SGA.Free()
			s.served++
			s.sqes = append(s.sqes,
				uring.SQE{Op: queue.OpPush, QD: int32(conn), Tag: c.Tag, SGA: demi.NewSGA([]byte(reply))},
				uring.SQE{Op: queue.OpPop, QD: int32(conn), Tag: c.Tag})
		}
		*c = uring.CQE{}
	}
	if len(s.sqes) > 0 {
		s.lib.SubmitBatch(s.ring, s.sqes) //nolint:errcheck // a failed op is a CQE
		clear(s.sqes)
		s.sqes = s.sqes[:0]
	}
}

// handle answers one request of the protocol: "set k v" | "get k".
func (s *server) handle(req string) string {
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

// run turns the loop, polling the libOS whenever a turn finds nothing,
// until stop closes.
func (s *server) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		served := s.served
		if s.step(); s.served == served {
			s.lib.Poll()
		}
	}
}

func main() {
	cluster := demi.NewCluster(11)
	srvNode := cluster.MustSpawn(demi.Catnip, demi.WithHost(1))
	cliNode := cluster.MustSpawn(demi.Catnip, demi.WithHost(2))
	defer cliNode.Background()()

	srv, err := listen(srvNode.LibOS, 11211)
	if err != nil {
		log.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		srv.run(stop)
	}()

	cqd, err := cliNode.Socket()
	if err != nil {
		log.Fatal(err)
	}
	if err := cliNode.Connect(cqd, cluster.AddrOf(srvNode, 11211)); err != nil {
		log.Fatal(err)
	}
	request := func(cmd string) string {
		if _, err := cliNode.BlockingPush(cqd, demi.NewSGA([]byte(cmd))); err != nil {
			log.Fatal(err)
		}
		comp, err := cliNode.BlockingPop(cqd)
		if err != nil {
			log.Fatal(err)
		}
		defer comp.SGA.Free()
		return string(comp.SGA.Bytes())
	}
	fmt.Println("client: set answer 42     ->", request("set answer 42"))
	fmt.Println("client: get answer        ->", request("get answer"))
	fmt.Println("client: get missing       ->", request("get missing"))
	close(stop)
	<-stopped
	fmt.Printf("event loop: %d connection, %d requests, one completion each\n", srv.accepted, srv.served)
}
