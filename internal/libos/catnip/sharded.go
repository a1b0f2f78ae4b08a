// Sharded catnip: N independent datapath shards over one multi-queue
// NIC, the paper's §3.1 scale-out recipe made concrete. RSS on the
// device steers each flow to one RX queue; each shard owns that queue's
// netstack instance, its frame pool, and every
// connection whose flow hashes to it. On the per-packet path nothing is
// shared between shards — not a lock, not a buffer pool, not a counter
// cache line. What little inter-shard traffic remains (a request that
// RSS delivered to a shard which does not own the key, control-plane
// ops) rides the bounded lock-free SPSC mesh in internal/shard.
package catnip

import (
	"fmt"
	"sync/atomic"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/shard"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// ShardSet is a set of catnip transports sharing one NIC, one MAC, one
// IP — and nothing else. Shard i polls RX queue i exclusively.
//
// A set may be provisioned with more shards than are active: the extra
// shards poll their (empty) queues and drain the mesh, and a live
// Resteer widens or narrows the RSS indirection to bring them into or
// out of the flow partition — the device-plane half of elastic
// resharding. Size() is the *active* count; Capacity() the provisioned
// one.
type ShardSet struct {
	dev *nic.Device
	// qg, when non-nil, is the tenant queue group the set is bound to:
	// the shards own a slice of a shared NIC instead of a whole device.
	qg     *nic.QueueGroup
	shards []*Transport
	group  *shard.Group
	neigh  *netstack.NeighborTable
	active atomic.Int32
}

// NewSharded attaches a catnip instance to the fabric switch: a device
// with capacity RSS receive queues and capacity full shard verticals
// (netstack polling queue i, frame pool, mesh row), of which RSS
// spreads new flows across the first n. Resteer moves the active width
// anywhere in [1, capacity] while the set is live. capacity below n means
// n; a plain node is n = capacity = 1.
//
// Capacity, not an option, decides what only several shards need: a
// private frame pool each (a set of one recycles through
// fabric.DefaultFramePool), mesh rows in the telemetry, and ARP steering.
// ARP frames carry no IP/TCP tuple, so their RSS hash would scatter them
// across queues and stacks would answer or miss at random; a hardware
// filter steers etherType 0x0806 to queue 0, shard 0 is the designated
// ARP speaker, and resolutions are published to a neighbor table shared
// (read-mostly, amortised to the control path) by every sibling stack.
func NewSharded(model *simclock.CostModel, sw *fabric.Switch, cfg Config, n, capacity int) *ShardSet {
	if capacity < n {
		capacity = n
	}
	dev := nic.New(model, sw, nic.Config{MAC: cfg.MAC, RxQueues: capacity})
	if capacity > 1 {
		dev.AddFilter(nic.HWFilter{
			// EtherType ARP (0x0806) at the usual offset.
			Match:  func(f []byte) bool { return len(f) >= 14 && f[12] == 0x08 && f[13] == 0x06 },
			Action: nic.ActionSteer,
			Queue:  0,
		})
	}
	if n < capacity {
		if err := dev.SetRSSQueues(n); err != nil {
			panic(err)
		}
	}
	return newSet(model, dev, nil, cfg, n, capacity)
}

// NewShardedOn attaches a catnip instance to a tenant queue group on a
// shared NIC, one shard per queue the group owns — the share-nothing
// contract — shard i polling the group's i-th queue.
//
// No ARP hardware filter is installed here: on a multi-tenant device
// the classification table already steers each tenant's ARP traffic to
// that tenant's first queue, so shard 0 is the ARP speaker exactly as
// in the whole-device layout.
func NewShardedOn(model *simclock.CostModel, grp *nic.QueueGroup, cfg Config) *ShardSet {
	n := grp.NumRxQueues()
	return newSet(model, grp.Device(), grp, cfg, n, n)
}

// newSet builds the set behind every constructor: capacity shards over dev
// (over qg's slice of it, when non-nil), the first n of them active.
func newSet(model *simclock.CostModel, dev *nic.Device, qg *nic.QueueGroup, cfg Config, n, capacity int) *ShardSet {
	if n <= 0 {
		panic("catnip: shard count must be positive")
	}
	s := &ShardSet{
		dev:   dev,
		qg:    qg,
		group: shard.NewGroup(capacity, 0),
		neigh: netstack.NewNeighborTable(),
	}
	s.active.Store(int32(n))
	for i := 0; i < capacity; i++ {
		pool := fabric.DefaultFramePool
		switch {
		case cfg.PoolFactory != nil:
			pool = cfg.PoolFactory()
		case capacity > 1:
			pool = fabric.NewFramePool()
		}
		s.shards = append(s.shards, newTransport(model, dev, qg, cfg, i, pool, s.neigh))
	}
	return s
}

// Size returns the ACTIVE shard count: how many shards RSS spreads new
// flows across. Equal to Capacity() unless the set was provisioned
// elastic and resteered.
func (s *ShardSet) Size() int { return int(s.active.Load()) }

// Capacity returns the provisioned shard count.
func (s *ShardSet) Capacity() int { return len(s.shards) }

// Resteer repartitions the live flow space to m active shards: every
// established (and in-handshake) flow on a surviving shard is pinned
// to its current queue so the connection never moves, then the RSS
// indirection width flips to m so new flows spread across the new
// active set. Flows on retiring shards (index >= m) are deliberately
// left unpinned: re-hashed frames land on a surviving shard whose
// stack answers with RST, and the client's failover machinery redials
// into the new layout — bounded disruption instead of a stalled
// connection. Tenant-bound sets cannot resteer (the queue-group RSS
// range belongs to the device's isolation plane).
func (s *ShardSet) Resteer(m int) error {
	if s.qg != nil {
		return fmt.Errorf("catnip: tenant shard set cannot resteer: %w", core.ErrNotSupported)
	}
	if m < 1 || m > len(s.shards) {
		return fmt.Errorf("catnip: resteer to %d shards outside [1,%d]", m, len(s.shards))
	}
	old := int(s.active.Load())
	keep := old
	if m < keep {
		keep = m
	}
	pins := make(map[nic.FlowKey]int)
	for i := 0; i < keep; i++ {
		for _, fl := range s.shards[i].Stack().EstablishedFlows() {
			pins[nic.FlowKey{RemoteIP: fl.RemoteIP, RemotePort: fl.RemotePort, LocalPort: fl.LocalPort}] = i
		}
	}
	s.dev.SetFlowPins(pins)
	if err := s.dev.SetRSSQueues(m); err != nil {
		return err
	}
	s.active.Store(int32(m))
	return nil
}

// Shard returns shard i's transport; each shard is a complete
// core.Transport and is wrapped in its own core.LibOS by the facade.
func (s *ShardSet) Shard(i int) *Transport { return s.shards[i] }

// Device returns the shared multi-queue NIC.
func (s *ShardSet) Device() *nic.Device { return s.dev }

// Group returns the tenant queue group the set is bound to, or nil when
// the set owns the whole device.
func (s *ShardSet) Group() *nic.QueueGroup { return s.qg }

// Mesh returns the cross-shard SPSC message mesh. Shard worker i is the
// sole sender on rows (i→*) and sole receiver on columns (*→i).
func (s *ShardSet) Mesh() *shard.Group { return s.group }

// Neighbors returns the shared ARP resolution table.
func (s *ShardSet) Neighbors() *netstack.NeighborTable { return s.neigh }

// SourcePortFor searches the ephemeral range for a source port whose
// flow (localIP:port → remoteIP:remotePort) RSS-hashes to the target
// queue on a peer with peerShards receive queues. It starts the probe at
// a caller-supplied seed so concurrent dialers spread out. Panics only
// if no port in the range maps to the target — impossible for any
// non-degenerate hash with a 16k-port search space.
func SourcePortFor(localIP, remoteIP netstack.IPv4Addr, remotePort uint16, peerShards, targetQueue int, seed uint16) uint16 {
	if peerShards <= 1 {
		return 0 // any ephemeral port works; let the stack pick
	}
	const base, span = 49152, 16384
	for off := 0; off < span; off++ {
		p := base + (uint32(seed)+uint32(off))%span
		// Hash is computed with the *receiver's* orientation: at the
		// server NIC the frame's source is our local tuple.
		if nic.RSSQueueFlow(localIP, remoteIP, uint16(p), remotePort, peerShards) == targetQueue {
			return uint16(p)
		}
	}
	panic(fmt.Sprintf("catnip: no source port maps to shard %d/%d", targetQueue, peerShards))
}

// RegisterTelemetry lifts what the set's shards share into a registry —
// each shard's own vertical is its libOS's to register: the NIC (the
// tenant's queue group, on a shared one — the device's own counters mix
// every tenant) under prefix.nic and, past one shard, the cross-shard
// mesh counters as prefix.shard.<i>.xs_* and the active width.
func (s *ShardSet) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	if s.qg != nil {
		s.qg.RegisterTelemetry(r, prefix+".nic")
	} else {
		s.dev.RegisterTelemetry(r, prefix+".nic")
	}
	if len(s.shards) > 1 {
		s.group.RegisterTelemetry(r, prefix+".shard")
		r.RegisterFunc(prefix+".active_shards", func() int64 { return int64(s.Size()) })
	}
}
