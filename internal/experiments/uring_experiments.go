package experiments

// E16 — batched submission. The libOS is linked into the application,
// so the data path is a function call away and there is no crossing for
// a submission ring to save; what a batch saves is tokens and pumps. The
// same echo server is driven by a client making the paper's per-op calls
// (Push, Pop, Wait: a qtoken per operation) and by one submitting
// batches of increasing size and harvesting tagged completions from its
// ring. The virtual RTT tracks the cost model; the ring counters show
// every operation carried by the ring, and the submit-size histogram
// that a batch reaches the transport as one burst.

import (
	"time"

	demi "demikernel"
	"demikernel/internal/metrics"
	"demikernel/internal/uring"
)

func runE16(seed int64) (*Result, error) {
	const ops = 512
	payload := make([]byte, 64)

	// Per-op client calls, on a rig of their own so that both rows start
	// from a fresh connection.
	perOpRig, err := newEchoRig(demi.NewCluster(seed), demi.Catnip, 0)
	if err != nil {
		return nil, err
	}
	perOp, err := perOpRig.MeasureEcho(64, ops)
	perOpRig.Close()
	if err != nil {
		return nil, err
	}
	perOpMean := perOp.Summarize().Mean

	// Same cluster seed, cost model and server; only the client's calls
	// differ.
	r, err := newEchoRig(demi.NewCluster(seed), demi.Catnip, 0)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	res := &Result{}
	tbl := metrics.NewTable("64B echo RTT: per-op client calls vs batched submission (virtual)",
		"client", "batch", "mean RTT", "ops submitted", "cqes harvested")
	tbl.AddRow("per-op", 1, perOpMean, 0, 0)

	// Both ends' rings; the client's attaches on its first batch.
	counters := func() (cli, both uring.Counters) {
		cli = r.Client.Ring().CountersSnapshot()
		srv := r.server.Ring().CountersSnapshot()
		both.Submitted = cli.Submitted + srv.Submitted
		both.CQHarvested = cli.CQHarvested + srv.CQHarvested
		return cli, both
	}

	var batch1Mean, batch32Mean int64
	var prev uring.Counters
	for _, batch := range []int{1, 8, 32} {
		var h metrics.Histogram
		for i := 0; i < ops; i += batch {
			cost, err := r.Client.RTTBatch(payload, r.cluster.Model.AppRequestNS, batch)
			if err != nil {
				return nil, err
			}
			h.Record(cost)
		}
		mean := h.Summarize().Mean
		_, now := counters()
		tbl.AddRow("batched", batch, mean, now.Submitted-prev.Submitted, now.CQHarvested-prev.CQHarvested)
		prev = now
		switch batch {
		case 1:
			batch1Mean = int64(mean)
		case 32:
			batch32Mean = int64(mean)
		}
	}
	res.Tables = append(res.Tables, tbl)

	// Shape 1 — the ring carried every operation: once the server has
	// harvested the completions of its last echoes, everything submitted
	// was harvested except its armed pop window, which is legitimately
	// outstanding when the run ends.
	cli, total := counters()
	for deadline := time.Now().Add(time.Second); total.Submitted-total.CQHarvested > 8 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		cli, total = counters()
	}
	outstanding := total.Submitted - total.CQHarvested
	res.check("ring carries every op", total.Submitted > 0 && outstanding == 8,
		"submitted=%d cq_harvested=%d (outstanding=%d, the armed pop window)",
		total.Submitted, total.CQHarvested, outstanding)

	// Shape 2 — a batch reaches the transport as one burst: the client's
	// submit-size histogram holds one call of 2·batch SQEs per batch (a
	// push and a pop per round trip), so 32 round trips are staged
	// together and pumped once.
	names := uring.BatchBucketNames()
	sizes := map[string]int64{}
	for i, n := range cli.SubmitBatch {
		if n > 0 {
			sizes[names[i]] = n
		}
	}
	res.check("a batch reaches the transport as one burst",
		len(sizes) == 3 && sizes["le_2"] == ops && sizes["le_16"] == ops/8 && sizes["le_64"] == ops/32,
		"client submit sizes: %d of <=2 SQEs, %d of <=16, %d of <=64",
		sizes["le_2"], sizes["le_16"], sizes["le_64"])

	// Shape 3 — batching is not a slower road: a batch of one costs no
	// more virtual time than the per-op calls (the data path underneath
	// is identical), and pipelining 32 at a time adds only marginal
	// virtual queueing (< 10%). The real-time win is the repo benchmark's
	// to measure (ring_echo64_b32 beside echo64); virtual time can't see
	// it because it charges the cost model, not the submission machinery.
	res.check("batched RTT <= per-op RTT at batch 1", batch1Mean <= int64(perOpMean),
		"batch1 mean %dns vs per-op mean %dns", batch1Mean, int64(perOpMean))
	res.check("batch 32 within 10% of batch 1 (virtual)", batch32Mean <= batch1Mean*11/10,
		"batch32 mean %dns vs batch1 mean %dns", batch32Mean, batch1Mean)
	return res, nil
}
