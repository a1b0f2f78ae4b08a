package demikernel_test

// TestHTTPProductionSoak is the chaos + slow-client soak behind `make
// httpsoak`: a production-shaped HTTP workload (Zipf-popular paths over
// a bimodal object tree, keep-alive connections with churn, a fraction
// of deliberately slow readers) against a 2-shard catnip server, with
// a full node crash/restart in the middle (experiments.HTTPSoakRig).
// Every response must come back 200 with the right body, the slow
// readers must drive the bounded ready list into its parked state
// (rx_ready_stalls), and the server's counters must account for every
// request across the incarnation boundary.

import (
	"testing"

	"demikernel/internal/experiments"
)

func TestHTTPProductionSoak(t *testing.T) {
	const perHalf = 300 // requests per soak half, across all clients
	rig, err := experiments.NewHTTPSoakRig(91)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	if err := rig.Run(2 * perHalf); err != nil {
		t.Fatal(err)
	}

	if got := int(rig.CliNode.Catnip.RxStalls()); got < 1 {
		t.Fatalf("slow readers never parked the bounded ready list (rx_ready_stalls=%d)", got)
	}
	var served, halfCloses int64
	for _, s := range rig.Servers {
		st := s.Stats()
		served += st.Requests
		halfCloses += st.HalfCloses
	}
	if served != int64(rig.Driver.Issued()) {
		t.Fatalf("servers account for %d requests, issued %d", served, rig.Driver.Issued())
	}
	if halfCloses != 0 {
		t.Fatalf("unexpected half-closes during soak: %d", halfCloses)
	}
}
