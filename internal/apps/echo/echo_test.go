package echo

import (
	"testing"
	"time"

	demi "demikernel"
)

// newPair stages an echo server and a client of it between two kind nodes
// (Serve, Dial), stopped with the test.
func newPair(t *testing.T, kind demi.Kind, seed int64) (*Server, *Client, *demi.Cluster) {
	t.Helper()
	c := demi.NewCluster(seed)
	srvNode := c.MustSpawn(kind, demi.WithHost(1))
	cliNode := c.MustSpawn(kind, demi.WithHost(2))
	srv, stopSrv, err := Serve(srvNode.LibOS, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopSrv)
	cli, stopCli, err := Dial(cliNode.LibOS, c.AddrOf(srvNode, 7))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopCli)
	return srv, cli, c
}

func testEcho(t *testing.T, kind demi.Kind, seed int64) {
	srv, cli, _ := newPair(t, kind, seed)
	for i := 0; i < 5; i++ {
		cost, err := cli.RTT([]byte("ping"), 0)
		if err != nil {
			t.Fatalf("rtt %d: %v", i, err)
		}
		if cost == 0 {
			t.Fatal("zero round-trip cost")
		}
	}
	// The server counts an echo after its push completes, which can
	// trail the client's receive slightly; poll briefly.
	deadline := time.Now().Add(time.Second)
	for srv.Echoed() != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Echoed() != 5 {
		t.Fatalf("Echoed = %d", srv.Echoed())
	}
}

func TestEchoOverCatnip(t *testing.T)  { testEcho(t, demi.Catnip, 31) }
func TestEchoOverCatnap(t *testing.T)  { testEcho(t, demi.Catnap, 32) }
func TestEchoOverCatmint(t *testing.T) { testEcho(t, demi.Catmint, 33) }

func TestKernelPathCostsMore(t *testing.T) {
	// The E1 shape in miniature: the same echo costs more virtual
	// latency over the kernel (catnap) than over kernel-bypass
	// (catnip), by at least the syscall + copy + kernel-stack deltas.
	_, catnipCli, _ := newPair(t, demi.Catnip, 34)
	_, catnapCli, _ := newPair(t, demi.Catnap, 34)

	payload := make([]byte, 1024)
	var bypass, legacy demi.Lat
	for i := 0; i < 10; i++ {
		c1, err := catnipCli.RTT(payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := catnapCli.RTT(payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		bypass += c1
		legacy += c2
	}
	if legacy <= bypass {
		t.Fatalf("kernel path (%v) should cost more than bypass (%v)", legacy, bypass)
	}
}

func TestServerAppCostCharged(t *testing.T) {
	srv, cli, c := newPair(t, demi.Catnip, 35)
	base, err := cli.RTT([]byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.AppCost = c.Model.AppRequestNS * 10
	loaded, err := cli.RTT([]byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded < base+c.Model.AppRequestNS*9 {
		t.Fatalf("app cost not charged: base %v loaded %v", base, loaded)
	}
}
