// eventloop: the §4.4 vision, built — "we plan to implement a
// libevent-based Demikernel OS, which would enable applications, like
// memcached, to achieve the benefits of kernel-bypass transparently."
//
// This example is a memcached-shaped server on serve.Loop, the loop
// libevent runs, over a completion ring instead of readiness. Each turn
// accepts new connections (the server arms one pop on each), harvests what
// completed since the last turn, hands every completion to the server by
// its connection — a request gets its response pushed and the
// connection's next pop armed — and submits all it staged as one batch. A
// completion carries its request whole (no extra read call), and a
// connection with nothing to say costs the loop nothing: there is no
// readiness to scan and no thundering herd to tame. What is left to write
// is the protocol.
package main

import (
	"fmt"
	"log"
	"strings"

	demi "demikernel"
	"demikernel/internal/apps/serve"
)

// conn is a connection of the server; it keeps no state, and a response
// pushed holds nothing the loop must release.
type conn = serve.Conn[struct{}, struct{}]

// server is the protocol: the cache, on a loop.
type server struct {
	*serve.Loop[struct{}, struct{}]
	cache  map[string]string
	served int
}

// listen starts a server on lib's port.
func listen(lib *demi.LibOS, port uint16) (*server, error) {
	s := &server{cache: map[string]string{}}
	s.Loop = serve.New(lib, serve.App[struct{}, struct{}]{
		Accepted: func(c *conn) { s.Pop(c) },
		Popped: func(c *conn, req demi.SGA, cost demi.Lat) int {
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

func main() {
	cluster := demi.NewCluster(11)
	srvNode := cluster.MustSpawn(demi.Catnip, demi.WithHost(1))
	cliNode := cluster.MustSpawn(demi.Catnip, demi.WithHost(2))
	defer cliNode.Background()()

	srv, err := listen(srvNode.LibOS, 11211)
	if err != nil {
		log.Fatal(err)
	}
	stop := srv.Start()

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
	stop()
	fmt.Printf("event loop: %d connection, %d requests, one completion each\n", srv.Accepts(), srv.served)
}
