// Sharded catnip: N independent datapath shards over one multi-queue
// NIC, the paper's §3.1 scale-out recipe made concrete. RSS on the
// device steers each flow to one RX queue; each shard owns that queue's
// netstack instance, its memory manager, its frame pool, and every
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

// NewSharded attaches an n-shard catnip instance to the fabric switch.
// The device is configured with n RSS receive queues; shard i gets its
// own netstack (polling queue i), membuf manager, and frame pool.
//
// ARP needs special handling under RSS: ARP frames carry no IP/TCP
// tuple, so their hash would scatter them across queues and n-1 stacks
// would answer or miss. A hardware filter steers etherType 0x0806 to
// queue 0; shard 0 is the designated ARP speaker, and resolutions are
// published to a neighbor table shared (read-mostly, amortised to the
// control path) by every sibling stack.
func NewSharded(model *simclock.CostModel, sw *fabric.Switch, cfg Config, n int) *ShardSet {
	return NewShardedElastic(model, sw, cfg, n, n)
}

// NewShardedElastic is NewSharded with pre-provisioned headroom: the
// device gets capacity receive queues and capacity full shard
// verticals (stack, membuf, pool, mesh row), but RSS spreads new flows
// across only the first n. Resteer moves the active width anywhere in
// [1, capacity] while the set is live. capacity == n degenerates to
// the fixed layout.
func NewShardedElastic(model *simclock.CostModel, sw *fabric.Switch, cfg Config, n, capacity int) *ShardSet {
	if n <= 0 {
		panic("catnip: shard count must be positive")
	}
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
	neigh := netstack.NewNeighborTable()
	s := &ShardSet{
		dev:   dev,
		group: shard.NewGroup(capacity, 0),
		neigh: neigh,
	}
	s.active.Store(int32(n))
	for i := 0; i < capacity; i++ {
		s.shards = append(s.shards, newOnDevice(model, dev, cfg, i, cfg.newPool(), neigh))
	}
	return s
}

// NewShardedOn attaches an n-shard catnip instance to a tenant queue
// group on a shared NIC: shard i polls the group's i-th queue. n must
// equal the group's queue count — the share-nothing contract is one
// shard per owned queue, no more, no fewer.
//
// No ARP hardware filter is installed here: on a multi-tenant device
// the classification table already steers each tenant's ARP traffic to
// that tenant's first queue, so shard 0 is the ARP speaker exactly as
// in the whole-device layout.
func NewShardedOn(model *simclock.CostModel, grp *nic.QueueGroup, cfg Config, n int) *ShardSet {
	if n <= 0 {
		panic("catnip: shard count must be positive")
	}
	if n != grp.NumRxQueues() {
		panic(fmt.Sprintf("catnip: %d shards over a %d-queue group", n, grp.NumRxQueues()))
	}
	neigh := netstack.NewNeighborTable()
	s := &ShardSet{
		dev:   grp.Device(),
		qg:    grp,
		group: shard.NewGroup(n, 0),
		neigh: neigh,
	}
	s.active.Store(int32(n))
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, newOnPort(model, grp.Device(), grp, cfg, i, cfg.newPool(), neigh))
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

// RegisterTelemetry lifts every shard's vertical (NIC shared; stack,
// membuf, lifecycle and rx_ready_stalls per shard, under the names an
// unsharded transport gives them) plus the cross-shard mesh counters into
// a registry: prefix.nic.*, prefix.shard.<i>.netstack.*, ...,
// prefix.shard.<i>.xs_*.
func (s *ShardSet) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	if s.qg != nil {
		s.qg.RegisterTelemetry(r, prefix+".nic")
	} else {
		s.dev.RegisterTelemetry(r, prefix+".nic")
	}
	for i, t := range s.shards {
		t.registerStackTelemetry(r, fmt.Sprintf("%s.shard.%d", prefix, i))
	}
	s.group.RegisterTelemetry(r, prefix+".shard")
	r.RegisterFunc(prefix+".active_shards", func() int64 { return int64(s.Size()) })
}
