package main

// The -tenants view: the operator's dashboard for a multi-tenant NIC.
// Three tenants share one device — two victims serving echo traffic and
// one hostile tenant that floods its TX path, leaks pooled frames
// against its quota, and is crashed mid-run. The table shows, per
// tenant, what the isolation layer knew and did: quota occupancy and
// denials, TX scheduling credits (WDRR deficit + token-bucket balance),
// throttle drops from the rate cap, and steering-install rejections —
// plus the victims' tail latency before and during the rampage, which
// is the number the whole mechanism exists to protect.

import (
	"fmt"
	"time"

	demi "demikernel"
	"demikernel/internal/experiments"
	"demikernel/internal/metrics"
)

func runTenants(seed int64, ops int) error {
	rig, err := experiments.NewTenantRig(seed)
	if err != nil {
		return err
	}
	defer rig.Close()
	// Quiet third, then the rampage overlaps the rest of the run.
	eng, err := rig.Run(ops/3, ops-ops/3)
	if err != nil {
		return err
	}
	c, mal := rig.Cluster, rig.Mal

	fmt.Printf("multi-tenant NIC run: %d echo RTTs per victim, hostile tenant flooding/leaking/crashing mid-run (seed %d)\n\n", ops, seed)
	for _, p := range rig.Points() {
		fmt.Printf("victim %s virtual RTT: quiet p50=%v p99=%v | under attack p50=%v p99=%v\n",
			p.Victim, p.QuietP50, p.QuietP99, p.HotP50, p.HotP99)
	}
	fmt.Println()

	tbl := metrics.NewTable("Per-tenant isolation plane",
		"tenant", "weight", "quota out (f/B)", "denials", "reclaims",
		"rx", "tx", "tx bytes", "deficit", "tokens", "thr drops", "steer denied")
	for _, n := range []*demi.Node{rig.VicA, rig.VicB, mal} {
		ten, grp := n.Tenant, n.Catnip.Group()
		framesOut, bytesOut := ten.Ledger.Outstanding()
		reclaims, _, _ := ten.Ledger.Reclaims()
		gs := grp.Stats()
		deficit, tokens := grp.TxCredits()
		tbl.AddRow(string(ten.ID), ten.Policy.TxWeight,
			fmt.Sprintf("%d/%d", framesOut, bytesOut),
			ten.Ledger.Denials(), reclaims,
			gs.RxFrames, gs.TxFrames, gs.TxBytes, deficit, tokens,
			gs.ThrottleDrops, gs.SteeringDenied)
	}
	fmt.Println(tbl.String())

	ds := c.SharedNIC().Stats()
	fmt.Printf("shared NIC: rx=%d dropped=%d filter_drops=%d steer_drops=%d (frames addressed to no tenant)\n\n",
		ds.RxFrames, ds.RxDropped, ds.FilterDrops, ds.SteerDrops)

	fmt.Println("== chaos lifecycle timeline ==")
	for _, ev := range eng.FiredEvents() {
		fmt.Printf("  t=%-10v %s (fired at %v)\n", ev.At, ev.Name, ev.FiredAt.Round(time.Millisecond))
	}

	// The view doubles as a smoke: the rampage must have been contained.
	if mf, mb := mal.Tenant.Ledger.Outstanding(); mf != 0 || mb != 0 {
		return fmt.Errorf("hostile quota not reclaimed after crash: %d frames / %d bytes", mf, mb)
	}
	if mal.Catnip.Group().Stats().ThrottleDrops == 0 {
		return fmt.Errorf("hostile flood never hit its rate cap")
	}
	return nil
}
