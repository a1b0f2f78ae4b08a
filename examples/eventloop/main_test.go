package main

import (
	"fmt"
	"testing"

	demi "demikernel"
)

// TestMemcachedShapeServer builds the §4.4 vision: an event-driven
// server (the shape memcached has under libevent) running over
// kernel-bypass transparently. Ten sets and ten gets through the loop
// each come back answered, from one accepted connection.
func TestMemcachedShapeServer(t *testing.T) {
	c := demi.NewCluster(84)
	srvNode := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cliNode := c.MustSpawn(demi.Catnip, demi.WithHost(2))
	stopCli := cliNode.Background()
	defer stopCli()

	srv, err := listen(srvNode.LibOS, 11211)
	if err != nil {
		t.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		srv.Run(stop)
	}()

	cqd, _ := cliNode.Socket()
	if err := cliNode.Connect(cqd, c.AddrOf(srvNode, 11211)); err != nil {
		t.Fatal(err)
	}
	request := func(cmd string) string {
		t.Helper()
		if _, err := cliNode.BlockingPush(cqd, demi.NewSGA([]byte(cmd))); err != nil {
			t.Fatal(err)
		}
		comp, err := cliNode.BlockingPop(cqd)
		if err != nil || comp.Err != nil {
			t.Fatalf("%q: %v %v", cmd, err, comp.Err)
		}
		defer comp.SGA.Free()
		return string(comp.SGA.Bytes())
	}
	for i := 0; i < 10; i++ {
		if got := request(fmt.Sprintf("set k%d v%d", i, i)); got != "STORED" {
			t.Fatalf("set %d: %q", i, got)
		}
		if got, want := request(fmt.Sprintf("get k%d", i)), fmt.Sprintf("VALUE v%d", i); got != want {
			t.Fatalf("get %d: %q, want %q", i, got, want)
		}
	}
	close(stop)
	<-stopped
	if srv.Accepts() != 1 || srv.served != 20 {
		t.Fatalf("accepted %d connections, served %d requests; want 1, 20", srv.Accepts(), srv.served)
	}
}
