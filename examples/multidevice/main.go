// multidevice: the paper's portability claim (§4.1) — one application
// function, written once against the Demikernel API, runs unmodified
// over the kernel libOS, the DPDK libOS, and the RDMA libOS. Only the
// kind the nodes are spawned with changes; the application code cannot
// tell the difference (except in latency).
package main

import (
	"fmt"
	"log"

	demi "demikernel"
	"demikernel/internal/apps/echo"
)

// runWorkload is the "application": it never mentions a device.
func runWorkload(cluster *demi.Cluster, srvNode, cliNode *demi.Node) (demi.Lat, error) {
	_, stopServer, err := echo.Serve(srvNode.LibOS, 7, cluster.Model.AppRequestNS)
	if err != nil {
		return 0, err
	}
	defer stopServer()
	client, stopClient, err := echo.Dial(cliNode.LibOS, cluster.AddrOf(srvNode, 7))
	if err != nil {
		return 0, err
	}
	defer stopClient()
	var total demi.Lat
	const n = 10
	for i := 0; i < n; i++ {
		cost, err := client.RTT([]byte("portable payload"), 0)
		if err != nil {
			return 0, err
		}
		total += cost
	}
	return total / n, nil
}

func main() {
	fmt.Println("one application, three library OSes:")
	for _, f := range []struct {
		kind demi.Kind
		what string
	}{
		{demi.Catnap, "legacy kernel"},
		{demi.Catnip, "DPDK-class"},
		{demi.Catmint, "RDMA-class"},
	} {
		cluster := demi.NewCluster(9)
		srv := cluster.MustSpawn(f.kind, demi.WithHost(1))
		cli := cluster.MustSpawn(f.kind, demi.WithHost(2))
		mean, err := runWorkload(cluster, srv, cli)
		if err != nil {
			log.Fatalf("%s: %v", f.kind, err)
		}
		fmt.Printf("  %-24s mean RTT %v\n", fmt.Sprintf("%s (%s)", f.kind, f.what), mean)
	}
}
