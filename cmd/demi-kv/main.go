// Command demi-kv runs the Redis-like key-value store over a chosen
// library OS inside one simulated cluster, drives a workload against it,
// and prints latency and server statistics. It is the executable face of
// the paper's running example.
//
// Usage:
//
//	demi-kv [-libos catnip|catnap|catmint] [-ops N] [-value BYTES]
//	        [-workload fixed|uniform|ycsb-b] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	demi "demikernel"
	"demikernel/internal/apps/kv"
	"demikernel/internal/metrics"
	"demikernel/internal/telemetry"
	"demikernel/internal/workload"
)

func main() {
	libos := flag.String("libos", "catnip", "library OS: catnip, catnap, or catmint")
	ops := flag.Int("ops", 200, "GET operations to issue")
	valueSize := flag.Int("value", 4096, "value size in bytes (fixed workload)")
	wl := flag.String("workload", "fixed", "workload: fixed, uniform, or ycsb-b")
	seed := flag.Int64("seed", 1, "cluster seed")
	stats := flag.Bool("stats", false, "print per-layer telemetry counters and qtoken span tables")
	flag.Parse()

	if err := run(*libos, *ops, *valueSize, *wl, *seed, *stats); err != nil {
		fmt.Fprintf(os.Stderr, "demi-kv: %v\n", err)
		os.Exit(1)
	}
}

func run(libos string, ops, valueSize int, wl string, seed int64, stats bool) error {
	cluster := demi.NewCluster(seed)
	srvNode, err := cluster.Spawn(demi.Kind(libos), demi.WithHost(1))
	if err != nil {
		return err
	}
	cliNode, err := cluster.Spawn(demi.Kind(libos), demi.WithHost(2))
	if err != nil {
		return err
	}
	server, stopSrv, err := kv.Serve(srvNode.Libs(), srvNode.Mesh(), srvNode.Shards(), &cluster.Model, 6379)
	if err != nil {
		return err
	}
	defer stopSrv()
	client, stopCli, err := kv.Dial(cliNode.LibOS, srvNode.Shards(), cluster.Router().Dialer(cliNode, srvNode, 6379))
	if err != nil {
		return err
	}
	defer stopCli()

	var report func() string
	if stats {
		report = cluster.Observe(telemetry.NewRegistry())
	}

	const keys = 64
	var gen *workload.Generator
	switch wl {
	case "fixed":
		gen = workload.NewGenerator(workload.NewUniformKeys(keys, seed),
			workload.FixedSize(valueSize), 0.75, seed+1)
	case "uniform":
		gen = workload.UniformSmall(keys, seed)
	case "ycsb-b":
		gen = workload.YCSBStyleB(keys, seed)
	default:
		return fmt.Errorf("unknown workload %q", wl)
	}
	fmt.Printf("demi-kv: %s libOS, %q workload, %d keys, %d ops\n", libos, wl, keys, ops)

	// Preload the keyspace so reads hit.
	var setH, getH metrics.Histogram
	for i := 0; i < keys; i++ {
		cost, err := client.Set(fmt.Sprintf("key-%06d", i), make([]byte, valueSize))
		if err != nil {
			return fmt.Errorf("preload set: %w", err)
		}
		setH.Record(cost)
	}
	for i := 0; i < ops; i++ {
		op := gen.Next()
		if op.IsRead {
			_, cost, found, err := client.Get(op.Key)
			if err != nil {
				return fmt.Errorf("get: %w", err)
			}
			if !found {
				return fmt.Errorf("get %d: key %q missing after preload", i, op.Key)
			}
			getH.Record(cost)
		} else {
			cost, err := client.Set(op.Key, make([]byte, op.ValueLen))
			if err != nil {
				return fmt.Errorf("set: %w", err)
			}
			setH.Record(cost)
		}
	}

	tbl := metrics.NewTable("virtual request latency", "op", "count", "p50", "p99", "mean")
	s := setH.Summarize()
	g := getH.Summarize()
	tbl.AddRow("SET", s.Count, s.P50, s.P99, s.Mean)
	tbl.AddRow("GET", g.Count, g.P50, g.P99, g.Mean)
	fmt.Println(tbl.String())

	st := server.StatsOf(0)
	fmt.Printf("server: %d connections, %d sets, %d gets, %d bytes stored\n",
		st.Connections, st.Sets, st.Gets, st.BytesStored)

	if stats {
		fmt.Print("\n", report())
	}
	return nil
}
