package experiments

// E16 — syscall-free submission. The tentpole of the ring datapath:
// the same echo workload measured over the legacy per-op path (one
// libOS call per Push/Pop/Wait, completer token per op) and over the
// SQ/CQ shared-memory rings at increasing batch sizes. The virtual
// RTT tracks the cost model; the ring counters prove the crossings
// are gone — operations are posted and harvested through shared
// memory, drained in bursts by the libOS poll loop.

import (
	demi "demikernel"
	"demikernel/internal/metrics"
	"demikernel/internal/uring"
)

const e16RingCap = 64

func runE16(seed int64) (*Result, error) {
	const ops = 512
	payload := make([]byte, 64)

	// Legacy per-op path on its own rig: one libOS call per Push/Pop/
	// Wait, completer token per op.
	legacy, err := newEchoRig(demi.NewCluster(seed), demi.Catnip, 0, 0)
	if err != nil {
		return nil, err
	}
	perOp, err := legacy.measureEcho(64, ops)
	legacy.Close()
	if err != nil {
		return nil, err
	}
	perOpMean := perOp.Summarize().Mean

	// Ring rig: same cluster seed and cost model, only the submission
	// path differs.
	r, err := newEchoRig(demi.NewCluster(seed), demi.Catnip, 0, e16RingCap)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	res := &Result{}
	tbl := metrics.NewTable("64B echo RTT: per-op calls vs SQ/CQ rings (virtual)",
		"path", "batch", "mean RTT", "sq posted", "sq drained", "cq harvested")
	tbl.AddRow("per-op", 1, perOpMean, 0, 0, 0)

	counters := func() uring.Counters {
		var total uring.Counters
		for _, p := range []*uring.Pair{r.Client.Ring(), r.server.Ring()} {
			c := p.CountersSnapshot()
			total.SQPosted += c.SQPosted
			total.SQDrained += c.SQDrained
			total.CQHarvested += c.CQHarvested
			for i := range c.DrainBatch {
				total.DrainBatch[i] += c.DrainBatch[i]
			}
		}
		return total
	}

	var batch1Mean, batch32Mean int64
	prev := counters()
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
		now := counters()
		tbl.AddRow("ring", batch, mean,
			now.SQPosted-prev.SQPosted, now.SQDrained-prev.SQDrained, now.CQHarvested-prev.CQHarvested)
		prev = now
		switch batch {
		case 1:
			batch1Mean = int64(mean)
		case 32:
			batch32Mean = int64(mean)
		}
	}
	res.Tables = append(res.Tables, tbl)

	// Shape 1 — the crossings are gone: every operation travelled the
	// rings (posted == drained, all nonzero) and every completion was
	// harvested except the server's armed pop window, which is still
	// legitimately outstanding when the run ends.
	total := counters()
	outstanding := total.SQPosted - total.CQHarvested
	res.check("ring path carries every op",
		total.SQPosted > 0 && total.SQPosted == total.SQDrained &&
			outstanding >= 0 && outstanding <= e16RingCap,
		"sq_posted=%d sq_drained=%d cq_harvested=%d (outstanding=%d, the armed pop window)",
		total.SQPosted, total.SQDrained, total.CQHarvested, outstanding)

	// Shape 2 — batching amortizes the poll: with batch 32 in flight the
	// libOS drains multiple SQEs per sweep, so the drain-batch histogram
	// must have mass above the single-op bucket.
	var multi int64
	for i, n := range total.DrainBatch {
		if i > 0 {
			multi += n
		}
	}
	res.check("SQ drains in bursts", multi > 0,
		"drain batches >1 op: %d", multi)

	// Shape 3 — the ring is not a slower road: a single syscall-free
	// round trip costs no more virtual time than the per-op path (the
	// data path underneath is identical), and pipelining 32 at a time
	// adds only marginal virtual queueing (< 10%). The real-time win is
	// the repo benchmark's to measure (ring_echo64_b32 beside echo64);
	// virtual time can't see it because it charges the cost model, not
	// the submission machinery.
	res.check("ring RTT <= per-op RTT at batch 1", batch1Mean <= int64(perOpMean),
		"ring batch1 mean %dns vs per-op mean %dns", batch1Mean, int64(perOpMean))
	res.check("batch 32 within 10% of batch 1 (virtual)", batch32Mean <= batch1Mean*11/10,
		"batch32 mean %dns vs batch1 mean %dns", batch32Mean, batch1Mean)
	return res, nil
}
