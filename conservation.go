package demikernel

import (
	"errors"
	"fmt"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/nic"
)

// Quiesce brings the cluster to rest so that its counters stop moving:
// fault injection is cleared, then every node's clock is stepped through d
// (a few RTOs) in ticks of at most 1 ms, the nodes polled to two quiet
// rounds before each, so every frame in flight lands in a counter. Stop
// pollers that may still send after it, before reading Conservation.
func (c *Cluster) Quiesce(d time.Duration) {
	c.Switch.SetImpairments(fabric.Impairments{})
	for tick := min(d, time.Millisecond); ; d -= tick {
		for quiet := 0; quiet < 2; quiet++ {
			if c.Switch.Flush(); c.Poll() > 0 {
				quiet = -1 // two quiet rounds in a row
			}
		}
		if d <= 0 {
			return
		}
		for _, n := range c.nodes {
			n.Clock().Step(tick)
		}
	}
}

// FabricLawApplies reports whether Conservation evaluates law 1 on this
// cluster: it is exact only on a two-port switch, where a flood delivers
// one copy. On any other, Conservation skips it — a nil then speaks for
// laws 2 and 3 alone, and a caller that reports the result says so.
func (c *Cluster) FabricLawApplies() bool { return c.Switch.NumPorts() == 2 }

// Conservation evaluates the frame-conservation laws over a cluster at
// rest — after Quiesce, with no operation in flight; it polls the nodes
// itself, and idle pollers beside it move no counter — and returns every
// violation, joined, each with its numbers. Every test, soak and
// `demi-stat` rig reads the laws here:
//
//  1. Fabric — the wire loses nothing silently: Σ port tx + injected
//     duplicates == delivered + loss + link-down + rx-full + asymmetric
//     drops. Skipped unless FabricLawApplies, which the error also says.
//  2. NIC, per distinct device of the catnip nodes (tenants share one) —
//     after a forced wire drain, port delivered == rx + ring drops +
//     filter drops + frames no tenant owned.
//  3. Node, per catnip node over its shard set and across incarnations —
//     rx == Σ shard FramesIn (StackStats: dead stacks' counts folded in)
//     + occupancy of the node's own rings + frames flushed at crash time,
//     the first and last read from a tenant's queue group.
func (c *Cluster) Conservation() error {
	var errs []error
	sw := c.Switch
	if c.FabricLawApplies() {
		fs := sw.Stats()
		var tx int64
		for id := 0; id < sw.NumPorts(); id++ {
			tx += sw.PortStats(id).TxFrames
		}
		if lhs, rhs := tx+fs.InjectedDup, fs.Delivered+fs.InjectedLoss+fs.LinkDownDrops+fs.DroppedRxFull+fs.AsymDrops; lhs != rhs {
			errs = append(errs, fmt.Errorf("fabric conservation violated: tx=%d+dup=%d != delivered=%d+loss=%d+linkdown=%d+rxfull=%d+asym=%d",
				tx, fs.InjectedDup, fs.Delivered, fs.InjectedLoss, fs.LinkDownDrops, fs.DroppedRxFull, fs.AsymDrops))
		}
	}
	drained := make(map[*nic.Device]bool)
	for _, n := range c.nodes {
		if n.Sharded == nil {
			continue // catnap, catmint, catfish: no shard set, no law stated
		}
		set := n.Sharded.Set
		dev := set.Device()
		if !drained[dev] {
			drained[dev] = true
			dev.QueueDepth(0) // force a wire drain so delivered frames ring first
			ds, ps := dev.Stats(), sw.PortStats(dev.PortID())
			if ps.Delivered != ds.RxFrames+ds.RxDropped+ds.FilterDrops+ds.SteerDrops {
				errs = append(errs, fmt.Errorf("nic conservation violated on port %d: delivered=%d != rx=%d+dropped=%d+filtered=%d+unowned=%d",
					dev.PortID(), ps.Delivered, ds.RxFrames, ds.RxDropped, ds.FilterDrops, ds.SteerDrops))
			}
		}
		n.Poll() // ingest anything the forced drain just ringed
		ds := dev.Stats()
		rx, flushed, base, queues := ds.RxFrames, ds.RxFlushed, 0, dev.NumRxQueues()
		if grp := set.Group(); grp != nil {
			gs := grp.Stats()
			rx, flushed, base, queues = gs.RxFrames, gs.RxFlushed, grp.BaseQueue(), grp.NumRxQueues()
		}
		var framesIn, occ int64
		for i := 0; i < set.Capacity(); i++ {
			framesIn += set.Shard(i).StackStats().FramesIn
		}
		for q := 0; q < queues; q++ {
			occ += int64(dev.RxOccupancy(base + q))
		}
		if rx != framesIn+occ+flushed {
			errs = append(errs, fmt.Errorf("stack conservation violated on host %d: nic rx=%d != frames_in=%d + rings=%d + flushed=%d",
				n.host, rx, framesIn, occ, flushed))
		}
	}
	if errs != nil && !c.FabricLawApplies() {
		errs = append(errs, fmt.Errorf("(fabric law skipped on a %d-port switch)", sw.NumPorts()))
	}
	return errors.Join(errs...)
}
