package experiments

import (
	"bytes"
	"fmt"

	demi "demikernel"
	"demikernel/internal/libos/catfish"
	"demikernel/internal/metrics"
	"demikernel/internal/offload"
	"demikernel/internal/queue"
	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

// LookupRig is a catfish node holding a static index of the given depth
// (fanout 2, so 2^(depth+1) keys) with a lookup queue open on it, its
// step function pushed into the device or run on the host: E18's rig and
// `demi-stat -rig storage`'s.
type LookupRig struct {
	Transport *catfish.Transport
	Queue     *catfish.LookupQueue
	Pairs     []spdk.KV // what the index holds
}

// NewLookupRig spawns the node on c with opts, builds the index and opens
// the queue.
func NewLookupRig(c *demi.Cluster, depth int, pushdown bool, opts ...demi.SpawnOption) (*LookupRig, error) {
	node, err := c.Spawn(demi.Catfish, append([]demi.SpawnOption{demi.WithBlocks(0)}, opts...)...)
	if err != nil {
		return nil, err
	}
	r := &LookupRig{Transport: node.Catfish}
	for i := 0; i < 1<<(depth+1); i++ {
		r.Pairs = append(r.Pairs, spdk.KV{
			Key: []byte(fmt.Sprintf("key-%05d", i)),
			Val: []byte(fmt.Sprintf("value-%d", i)),
		})
	}
	idx, err := r.Transport.BuildIndex(r.Pairs, 2)
	if err != nil {
		return nil, err
	}
	if idx.Depth != depth {
		return nil, fmt.Errorf("built an index of depth %d, want %d", idx.Depth, depth)
	}
	r.Queue, err = r.Transport.OpenLookup(idx, offload.IndexLookup(), catfish.LookupConfig{Pushdown: pushdown})
	return r, err
}

// Get runs one Push+Pop GET round trip through the lookup queue, polling
// the transport until the result lands, and returns a copy of the value
// with the virtual cost of the lookup.
func (r *LookupRig) Get(key []byte) ([]byte, simclock.Lat, error) {
	s := r.Transport.AllocSGA(len(key))
	copy(s.Segments[0].Buf, key)
	r.Queue.Push(s, 0, func(queue.Completion) {})
	var c queue.Completion
	got := false
	r.Queue.Pop(func(qc queue.Completion) { c = qc; got = true })
	for i := 0; !got; i++ {
		r.Transport.Poll()
		if i > 1_000_000 {
			return nil, 0, fmt.Errorf("lookup hung")
		}
	}
	if c.Err != nil {
		return nil, 0, c.Err
	}
	v := bytes.Clone(c.SGA.Bytes())
	c.SGA.Free()
	return v, c.Cost, nil
}

// runE18 measures storage pushdown: BPF-style compute in the NVMe
// completion path. A depth-N index lookup is the worst case for the
// kernel-bypass storage interface — every hop is a device round trip
// that exists only to compute the next LBA. Pushing the step function
// into the device's completion path collapses the traversal to a single
// app↔libOS crossing at any depth; the CPU fallback (the paper's
// "default to using the CPU if necessary") pays one crossing per hop.
func runE18(seed int64) (*Result, error) {
	res := &Result{}
	depths := []int{1, 2, 4, 8}

	tbl := metrics.NewTable("E18: depth-N GET, app-level traversal vs device pushdown",
		"index depth", "keys", "host crossings/GET", "pushdown crossings/GET",
		"crossing ratio", "host p50", "pushdown p50", "latency ratio")

	type outcome struct {
		depth                int
		hostCross, pushCross float64
		hostP50, pushP50     simclock.Lat
		valuesAgree          bool
		resubmitsPerGet      float64
		hopsSavedPerGet      float64
		inflightAfter        int64
		expectedHops         int
	}
	var outcomes []outcome

	for _, depth := range depths {
		pd, err := NewLookupRig(demi.NewCluster(seed), depth, true)
		if err != nil {
			return nil, err
		}
		host, err := NewLookupRig(demi.NewCluster(seed+1), depth, false)
		if err != nil {
			return nil, err
		}
		pairs, nKeys := pd.Pairs, len(pd.Pairs)

		var pdH, hostH metrics.Histogram
		agree := true
		for i := 0; i < nKeys; i++ {
			v1, c1, err := pd.Get(pairs[i].Key)
			if err != nil {
				return nil, err
			}
			v2, c2, err := host.Get(pairs[i].Key)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(v1, v2) || !bytes.Equal(v1, pairs[i].Val) {
				agree = false
			}
			pdH.Record(c1)
			hostH.Record(c2)
		}

		gets := float64(nKeys)
		ps := pd.Queue.Stats()
		hs := host.Queue.Stats()
		devStats := pd.Transport.Device().PushdownStats()
		o := outcome{
			depth:           depth,
			hostCross:       float64(hs.Crossings) / gets,
			pushCross:       float64(ps.Crossings) / gets,
			hostP50:         hostH.Percentile(50),
			pushP50:         pdH.Percentile(50),
			valuesAgree:     agree,
			resubmitsPerGet: float64(devStats.Resubmits) / gets,
			hopsSavedPerGet: float64(devStats.HopsSaved) / gets,
			inflightAfter:   devStats.Inflight,
			expectedHops:    depth + 1,
		}
		outcomes = append(outcomes, o)
		tbl.AddRow(depth, nKeys, o.hostCross, o.pushCross,
			fmt.Sprintf("%.1fx", o.hostCross/o.pushCross),
			o.hostP50, o.pushP50, metrics.Ratio(o.hostP50, o.pushP50))
	}
	res.Tables = append(res.Tables, tbl)

	// Telemetry view of the deepest run: the spdk.pushdown.* counters
	// are the evidence that hops happened device-side.
	deepest := outcomes[len(outcomes)-1]
	tbl2 := metrics.NewTable("E18: spdk.pushdown.* accounting at depth 8",
		"metric", "per GET", "meaning")
	tbl2.AddRow("resubmits", deepest.resubmitsPerGet, "device-internal reads that never crossed to the host")
	tbl2.AddRow("hops_saved", deepest.hopsSavedPerGet, "host round trips avoided vs app-level traversal")
	tbl2.AddRow("inflight", float64(deepest.inflightAfter), "traversals still device-side after drain (must be 0)")
	res.Tables = append(res.Tables, tbl2)

	for _, o := range outcomes {
		res.check(fmt.Sprintf("depth %d: pushdown GET is 1 crossing", o.depth),
			o.pushCross == 1, "crossings/GET = %.2f", o.pushCross)
		res.check(fmt.Sprintf("depth %d: host traversal pays depth+1 crossings", o.depth),
			o.hostCross == float64(o.expectedHops), "crossings/GET = %.2f, want %d", o.hostCross, o.expectedHops)
		res.check(fmt.Sprintf("depth %d: values byte-identical across modes", o.depth),
			o.valuesAgree, "pushdown == host == expected")
		if o.depth >= 4 {
			res.check(fmt.Sprintf("depth %d: >=3x fewer crossings with pushdown", o.depth),
				o.hostCross >= 3*o.pushCross, "%.2f vs %.2f", o.hostCross, o.pushCross)
			res.check(fmt.Sprintf("depth %d: pushdown lowers GET latency", o.depth),
				o.pushP50 < o.hostP50, "%v vs %v", o.pushP50, o.hostP50)
		}
	}
	deep := outcomes[len(outcomes)-1]
	res.check("hops happen device-side (resubmits = depth per GET)",
		deep.resubmitsPerGet == float64(deep.depth), "%.2f resubmits/GET at depth %d", deep.resubmitsPerGet, deep.depth)
	res.check("no traversal leaked", deep.inflightAfter == 0, "inflight = %d", deep.inflightAfter)
	return res, nil
}
