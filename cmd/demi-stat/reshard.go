package main

// The elastic-resharding dashboard: drive a live 2→4→2 reshard under
// client load and render what the operator-facing gauges saw at each
// generation — kv_gen/kv_active/kv_migrating on the app plane,
// rss_queues/pinned_flows on the NIC steering plane, and the per-shard
// key and migration ledgers. Exits non-zero if the migrate ledger does
// not balance or any key goes missing across the handoffs.

import (
	"context"
	"fmt"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/failover"
	"demikernel/internal/experiments"
	"demikernel/internal/metrics"
)

func runReshard(seed int64, ops int) error {
	const (
		port     = 6383
		initial  = 2
		capacity = 4
	)
	rig, err := experiments.NewKVRig(demi.NewCluster(seed), demi.Catnip, initial, capacity, port)
	if err != nil {
		return err
	}
	defer rig.Close()
	srvNode, server, cli := rig.SrvNode, rig.Server, rig.Client
	cli.EnableFailover(failover.Policy{MaxAttempts: 25, Base: time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.5, Seed: seed}, nil)

	keys := ops
	if keys > 512 {
		keys = 512
	}
	load := func(label string) error {
		if err := rig.SetGet("rs-key", ops, keys, true, nil); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		return nil
	}

	tbl := metrics.NewTable("Generation timeline (app + steering planes)",
		"phase", "gen", "active", "migrating", "rss queues", "pinned flows", "keys by shard", "mig out", "mig in")
	snap := func(phase string) {
		dev := srvNode.Catnip.Device()
		var out, in int64
		keysBy := ""
		for i := 0; i < server.Size(); i++ {
			st := server.StatsOf(i)
			out += st.MigratedOut
			in += st.MigratedIn
			if i > 0 {
				keysBy += "/"
			}
			keysBy += fmt.Sprintf("%d", st.Keys)
		}
		mig := 0
		if !server.Stable() {
			mig = 1
		}
		tbl.AddRow(phase, server.Generation(), server.Active(), mig,
			dev.RSSQueues(), dev.PinnedFlows(), keysBy, out, in)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reshard := func(m int) error {
		if err := srvNode.Reshard(ctx, m); err != nil {
			return fmt.Errorf("reshard to %d: %w", m, err)
		}
		return cli.Resize(m, nil)
	}

	snap("steady @2")
	if err := load("warmup"); err != nil {
		return err
	}
	snap("loaded @2")
	if err := reshard(4); err != nil {
		return err
	}
	snap("grown @4")
	if err := load("post-grow"); err != nil {
		return err
	}
	if err := reshard(2); err != nil {
		return err
	}
	snap("shrunk @2")
	if err := load("post-shrink"); err != nil {
		return err
	}
	snap("final @2")

	fmt.Printf("elastic reshard run: %d SET+GET pairs per phase, %d→4→2 shards (capacity %d, seed %d)\n\n",
		ops, initial, capacity, seed)
	fmt.Println(tbl.String())

	// The audits an operator would want scripted: ledger balance and
	// key conservation across both handoffs.
	var out, in int64
	for i := 0; i < server.Size(); i++ {
		st := server.StatsOf(i)
		out += st.MigratedOut
		in += st.MigratedIn
	}
	if out != in {
		return fmt.Errorf("migrate ledger unbalanced: out=%d in=%d", out, in)
	}
	if got := server.Len(); got != keys {
		return fmt.Errorf("store holds %d keys after resharding, want %d", got, keys)
	}
	for i := 2; i < server.Size(); i++ {
		if st := server.StatsOf(i); st.Keys != 0 {
			return fmt.Errorf("retired shard %d still owns %d keys", i, st.Keys)
		}
	}
	fmt.Printf("audit: migrate ledger balanced (%d records), %d keys conserved, retired shards empty\n", out, keys)
	return nil
}
