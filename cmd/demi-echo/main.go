// Command demi-echo measures echo round-trip latency across libOS
// flavours and message sizes — the command-line version of experiment E1.
//
// Usage:
//
//	demi-echo [-libos catnip|catnap|catmint|all] [-n N] [-sizes 64,1024,4096]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	demi "demikernel"
	"demikernel/internal/apps/echo"
	"demikernel/internal/metrics"
	"demikernel/internal/telemetry"
)

func main() {
	libos := flag.String("libos", "all", "library OS: catnip, catnap, catmint, or all")
	n := flag.Int("n", 50, "round trips per point")
	sizesArg := flag.String("sizes", "64,1024,4096,16384", "comma-separated message sizes")
	seed := flag.Int64("seed", 1, "cluster seed")
	stats := flag.Bool("stats", false, "print per-layer telemetry counters and qtoken span tables per point")
	flag.Parse()

	var sizes []int
	for _, s := range strings.Split(*sizesArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "demi-echo: bad size %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}
	flavors := []string{*libos}
	if *libos == "all" {
		flavors = []string{"catnap", "catnip", "catmint"}
	}

	tbl := metrics.NewTable("echo round-trip virtual latency", "libOS", "msg bytes", "p50", "p99")
	for _, flavor := range flavors {
		for _, size := range sizes {
			h, err := measure(flavor, size, *n, *seed, *stats)
			if err != nil {
				fmt.Fprintf(os.Stderr, "demi-echo: %s/%dB: %v\n", flavor, size, err)
				os.Exit(1)
			}
			tbl.AddRow(flavor, size, h.Percentile(50), h.Percentile(99))
		}
	}
	fmt.Println(tbl.String())
}

func measure(flavor string, size, n int, seed int64, stats bool) (*metrics.Histogram, error) {
	cluster := demi.NewCluster(seed)
	reg := telemetry.NewRegistry()
	srvNode, err := cluster.Spawn(demi.Kind(flavor), demi.WithHost(1), demi.WithTelemetry(reg))
	if err != nil {
		return nil, err
	}
	cliNode, err := cluster.Spawn(demi.Kind(flavor), demi.WithHost(2), demi.WithTelemetry(reg))
	if err != nil {
		return nil, err
	}
	_, stopSrv, err := echo.Serve(srvNode.LibOS, 7, cluster.Model.AppRequestNS)
	if err != nil {
		return nil, err
	}
	defer stopSrv()
	client, stopCli, err := echo.Dial(cliNode.LibOS, cluster.AddrOf(srvNode, 7))
	if err != nil {
		return nil, err
	}
	defer stopCli()

	var report func() string
	if stats {
		report = cluster.Observe(reg)
	}
	payload := make([]byte, size)
	var h metrics.Histogram
	for i := 0; i < n; i++ {
		cost, err := client.RTT(payload, cluster.Model.AppRequestNS)
		if err != nil {
			return nil, err
		}
		h.Record(cost)
	}
	if stats {
		fmt.Printf("-- %s / %dB --\n%s", flavor, size, report())
	}
	return &h, nil
}
