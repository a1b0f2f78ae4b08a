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
	"demikernel/internal/experiments"
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
	srvNode, err := cluster.Spawn(demi.Kind(flavor), demi.WithHost(1))
	if err != nil {
		return nil, err
	}
	cliNode, err := cluster.Spawn(demi.Kind(flavor), demi.WithHost(2))
	if err != nil {
		return nil, err
	}
	rig, err := experiments.StageEcho(cluster, srvNode, cliNode)
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	var report func() string
	if stats {
		report = cluster.Observe(telemetry.NewRegistry())
	}
	h, err := rig.MeasureEcho(size, n)
	if err != nil {
		return nil, err
	}
	if stats {
		fmt.Printf("-- %s / %dB --\n%s", flavor, size, report())
	}
	return h, nil
}
