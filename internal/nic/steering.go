// Queue groups: the device-plane half of multi-tenant NIC sharing.
//
// A real SR-IOV / SIOV NIC partitions its queues among untrusting
// tenants and enforces, in hardware, that (a) a tenant only receives
// frames addressed to resources it owns and (b) a tenant can only
// program flow-steering rules over its own addresses. This file gives
// the simulated device the same contract: a QueueGroup claims a
// contiguous range of receive queues, owns exactly one MAC (+ one IPv4
// address for ARP-broadcast resolution), and may install steering
// rules only inside its SteeringBounds — violations fail at install
// time with ErrSteeringDenied, so the per-frame data path never
// re-validates anything (§3 of the paper: protection is the role the
// OS/control plane keeps; the data path stays kernel-bypass fast).
//
// Classification state is copy-on-write: every mutation (filter or
// group change) compiles an immutable classTable published through an
// atomic pointer, so the RX hot path classifies with zero locks.
package nic

import (
	"errors"
	"fmt"
	"sync/atomic"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// ErrSteeringDenied is returned when a steering rule (or a queue
// group's identity) reaches outside the tenant's bound resources.
var ErrSteeringDenied = errors.New("nic: steering denied (outside tenant's bound resources)")

// ErrNoQueues is returned when a queue-group claim exceeds the
// device's remaining unclaimed receive queues.
var ErrNoQueues = errors.New("nic: not enough unclaimed receive queues")

// classTable is the immutable classification snapshot the RX path
// reads. It is rebuilt under Device.mu on every mutation and published
// via Device.class; the data path loads it once per wire drain.
type classTable struct {
	filters   []HWFilter
	byMAC     map[fabric.MAC]*QueueGroup
	byIP      map[[4]byte]*QueueGroup
	owners    []*QueueGroup // queue index -> owning group (nil = unclaimed)
	hasGroups bool
	rssQueues int             // RSS indirection width (0 = all queues)
	pins      map[FlowKey]int // exact-match flow table, consulted before RSS
}

// queueOwner returns the group owning absolute queue qi, or nil.
func (t *classTable) queueOwner(qi int) *QueueGroup {
	if qi < 0 || qi >= len(t.owners) {
		return nil
	}
	return t.owners[qi]
}

// ownerOf resolves the frame's owning group: unicast by destination
// MAC; ARP broadcasts by the ARP target IP (so a tenant still sees the
// ARP requests that resolve *its* address, and only those). Array-keyed
// map lookups — no per-frame allocation.
func (t *classTable) ownerOf(data []byte) *QueueGroup {
	if len(data) < 14 {
		return nil
	}
	var dst fabric.MAC
	copy(dst[:], data[0:6])
	if g := t.byMAC[dst]; g != nil {
		return g
	}
	if dst == fabric.Broadcast && len(data) >= 42 && data[12] == 0x08 && data[13] == 0x06 {
		var ip [4]byte
		copy(ip[:], data[38:42]) // ARP target protocol address
		return t.byIP[ip]
	}
	return nil
}

// publishLocked compiles the master classification state into a fresh
// immutable snapshot and publishes it. Caller holds d.mu.
func (d *Device) publishLocked() {
	t := &classTable{
		filters:   append([]HWFilter(nil), d.filters...),
		hasGroups: len(d.groups) > 0,
		rssQueues: d.rssQueues,
		pins:      d.pins,
	}
	if t.hasGroups {
		t.byMAC = make(map[fabric.MAC]*QueueGroup, len(d.groups))
		t.byIP = make(map[[4]byte]*QueueGroup, len(d.groups))
		t.owners = make([]*QueueGroup, len(d.rx))
		for _, g := range d.groups {
			t.byMAC[g.mac] = g
			if g.ip != ([4]byte{}) {
				t.byIP[g.ip] = g
			}
			for q := g.base; q < g.base+g.n; q++ {
				t.owners[q] = g
			}
		}
	}
	d.class.Store(t)
}

// SteeringBounds is the install-time contract for a group's steering
// rules: which destination IPs and ports rules may bind. Empty IPs
// default to exactly the group's own address; PortLo=PortHi=0 means
// every port. (MACs is carried for symmetry with tenant.Policy; RX
// ownership is already pinned to the group's single MAC.)
type SteeringBounds struct {
	MACs   []fabric.MAC
	IPs    [][4]byte
	PortLo uint16
	PortHi uint16
}

// GroupConfig configures a queue group at claim time.
type GroupConfig struct {
	MAC    fabric.MAC
	IP     [4]byte
	Bounds SteeringBounds

	// TX scheduling: WDRR weight (0 = 1) and optional token-bucket rate
	// limit in bytes/second with TxBurstBytes depth (0 = one quantum).
	TxWeight     int
	TxRateBps    int64
	TxBurstBytes int64
	// TxQueueDepth bounds the group's TX staging ring (0 = 512); a full
	// ring drops (and releases) the frame, counted as a throttle drop.
	TxQueueDepth int
	// Clock is the node's clock, which token-bucket refill reads (nil: a
	// fresh wall clock).
	Clock *simclock.Clock
}

// SteeringRule is one tenant-installed flow-steering rule: IPv4 frames
// matching (DstIP, Proto, DstPortLo..DstPortHi) go to the
// group-relative Queue. Zero DstIP means the group's own IP; Proto 0
// matches any transport; DstPortLo=DstPortHi=0 matches any port.
type SteeringRule struct {
	DstIP     [4]byte
	Proto     uint8
	DstPortLo uint16
	DstPortHi uint16
	Queue     int // group-relative receive queue
}

// steerRule is a compiled rule: bounds-checked, queue made absolute.
type steerRule struct {
	dstIP  [4]byte
	proto  uint8
	portLo uint16
	portHi uint16
	queue  int // absolute device queue
}

// match inspects a raw frame: IPv4 without options, destination
// address/proto/port against the rule. Offsets: etherType data[12:14],
// IHL data[14], proto data[23], dst IP data[30:34], dst port data[36:38].
func (r *steerRule) match(data []byte) bool {
	if len(data) < 38 || data[12] != 0x08 || data[13] != 0x00 || data[14] != 0x45 {
		return false
	}
	if data[30] != r.dstIP[0] || data[31] != r.dstIP[1] || data[32] != r.dstIP[2] || data[33] != r.dstIP[3] {
		return false
	}
	if r.proto != 0 && data[23] != r.proto {
		return false
	}
	if r.portLo == 0 && r.portHi == 0 {
		return true
	}
	port := uint16(data[36])<<8 | uint16(data[37])
	return port >= r.portLo && port <= r.portHi
}

// QueueGroup is a tenant's slice of the device: a contiguous range of
// receive queues [base, base+n), one owned MAC/IP, bounded steering
// rules, and a TX queue in the device's WDRR scheduler. It implements
// the same poll-mode surface as Device (MAC / Tx / TxFrame /
// AppendRxBurst), so a netstack binds to a group
// exactly as it binds to a whole NIC.
type QueueGroup struct {
	dev    *Device
	name   string
	base   int
	n      int
	mac    fabric.MAC
	ip     [4]byte
	bounds SteeringBounds

	rules atomic.Pointer[[]steerRule]

	tq *txQueue

	rxFrames       atomic.Int64
	rxDropped      atomic.Int64
	rxFlushed      atomic.Int64
	steeringDenied atomic.Int64
}

// NewQueueGroup claims nQueues contiguous receive queues for a tenant.
// Claims are first-come contiguous — the hardware analogue of SR-IOV
// VF queue assignment. It fails with ErrNoQueues when the device has
// too few unclaimed queues, and with ErrSteeringDenied when the
// claimed MAC/IP is already owned by another group or falls outside
// cfg.Bounds.
func (d *Device) NewQueueGroup(name string, nQueues int, cfg GroupConfig) (*QueueGroup, error) {
	if nQueues <= 0 {
		nQueues = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.nextQueue+nQueues > len(d.rx) {
		return nil, fmt.Errorf("%w: group %q wants %d, %d unclaimed", ErrNoQueues, name, nQueues, len(d.rx)-d.nextQueue)
	}
	for _, g := range d.groups {
		if g.mac == cfg.MAC {
			return nil, fmt.Errorf("%w: MAC %v already owned by group %q", ErrSteeringDenied, cfg.MAC, g.name)
		}
		if cfg.IP != ([4]byte{}) && g.ip == cfg.IP {
			return nil, fmt.Errorf("%w: IP %v already owned by group %q", ErrSteeringDenied, cfg.IP, g.name)
		}
	}
	if len(cfg.Bounds.MACs) > 0 && !macIn(cfg.Bounds.MACs, cfg.MAC) {
		return nil, fmt.Errorf("%w: group %q MAC %v outside its bounds", ErrSteeringDenied, name, cfg.MAC)
	}
	if len(cfg.Bounds.IPs) > 0 && cfg.IP != ([4]byte{}) && !ipIn(cfg.Bounds.IPs, cfg.IP) {
		return nil, fmt.Errorf("%w: group %q IP %v outside its bounds", ErrSteeringDenied, name, cfg.IP)
	}
	g := &QueueGroup{
		dev:    d,
		name:   name,
		base:   d.nextQueue,
		n:      nQueues,
		mac:    cfg.MAC,
		ip:     cfg.IP,
		bounds: cfg.Bounds,
	}
	g.tq = d.sched.newQueue(name, cfg.TxWeight, cfg.TxRateBps, cfg.TxBurstBytes, cfg.TxQueueDepth, cfg.Clock)
	d.nextQueue += nQueues
	d.groups = append(d.groups, g)
	d.publishLocked()
	return g, nil
}

func macIn(set []fabric.MAC, m fabric.MAC) bool {
	for _, x := range set {
		if x == m {
			return true
		}
	}
	return false
}

func ipIn(set [][4]byte, ip [4]byte) bool {
	for _, x := range set {
		if x == ip {
			return true
		}
	}
	return false
}

// AddSteering installs a flow-steering rule, validating it against the
// group's bounds at install time: the destination IP must be one the
// tenant owns, the port range must sit inside the tenant's bound range
// (an any-port rule needs unbounded ports), and the target queue must
// be the group's own. A violation counts a steering denial and returns
// a wrapped ErrSteeringDenied; the data path never re-checks.
func (g *QueueGroup) AddSteering(r SteeringRule) error {
	if r.Queue < 0 || r.Queue >= g.n {
		g.steeringDenied.Add(1)
		return fmt.Errorf("%w: queue %d outside group %q's %d queues", ErrSteeringDenied, r.Queue, g.name, g.n)
	}
	dstIP := r.DstIP
	if dstIP == ([4]byte{}) {
		dstIP = g.ip
	}
	allowedIPs := g.bounds.IPs
	if len(allowedIPs) == 0 {
		allowedIPs = [][4]byte{g.ip}
	}
	if !ipIn(allowedIPs, dstIP) {
		g.steeringDenied.Add(1)
		return fmt.Errorf("%w: group %q may not steer IP %v", ErrSteeringDenied, g.name, dstIP)
	}
	boundedPorts := g.bounds.PortLo != 0 || g.bounds.PortHi != 0
	if r.DstPortLo == 0 && r.DstPortHi == 0 {
		if boundedPorts {
			g.steeringDenied.Add(1)
			return fmt.Errorf("%w: group %q may not steer all ports (bound to %d..%d)",
				ErrSteeringDenied, g.name, g.bounds.PortLo, g.bounds.PortHi)
		}
	} else {
		if r.DstPortLo > r.DstPortHi {
			g.steeringDenied.Add(1)
			return fmt.Errorf("%w: inverted port range %d..%d", ErrSteeringDenied, r.DstPortLo, r.DstPortHi)
		}
		if boundedPorts && (r.DstPortLo < g.bounds.PortLo || r.DstPortHi > g.bounds.PortHi) {
			g.steeringDenied.Add(1)
			return fmt.Errorf("%w: group %q ports %d..%d outside bound %d..%d",
				ErrSteeringDenied, g.name, r.DstPortLo, r.DstPortHi, g.bounds.PortLo, g.bounds.PortHi)
		}
	}
	compiled := steerRule{
		dstIP:  dstIP,
		proto:  r.Proto,
		portLo: r.DstPortLo,
		portHi: r.DstPortHi,
		queue:  g.base + r.Queue,
	}
	// Copy-on-write append under the device's mutation lock.
	g.dev.mu.Lock()
	old := g.rules.Load()
	var next []steerRule
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, compiled)
	g.rules.Store(&next)
	g.dev.mu.Unlock()
	return nil
}

// steer places an owned frame on one of the group's queues: ARP frames
// to the group's base queue (the shard-0 convention the sharded libOS
// relies on), then tenant steering rules (first match wins, each
// evaluation charged the offloaded-filter cost), then RSS *within the
// group's range* — so a group of n queues spreads flows exactly as a
// dedicated n-queue device would, and shard-aligned source-port
// selection (RSSQueueFlow) keeps working group-relative.
func (g *QueueGroup) steer(d *Device, f *fabric.Frame) int {
	data := f.Data
	if len(data) >= 14 && data[12] == 0x08 && data[13] == 0x06 {
		return g.base
	}
	if rules := g.rules.Load(); rules != nil {
		for i := range *rules {
			r := &(*rules)[i]
			d.filterEvals.Add(1)
			f.Cost += d.model.OffloadedFilterCost()
			if r.match(data) {
				return r.queue
			}
		}
	}
	if g.n == 1 {
		return g.base
	}
	return g.base + int(rssHash(data)%uint32(g.n))
}

// --- the Device-shaped surface a netstack binds to ---

// MAC returns the group's owned hardware address.
func (g *QueueGroup) MAC() fabric.MAC { return g.mac }

// NumRxQueues returns the group's receive-queue count.
func (g *QueueGroup) NumRxQueues() int { return g.n }

// BaseQueue returns the group's first absolute device queue (exposed
// for observability; tenants address queues group-relative).
func (g *QueueGroup) BaseQueue() int { return g.base }

// Device returns the underlying shared NIC.
func (g *QueueGroup) Device() *Device { return g.dev }

// Tx transmits one raw frame through the group's scheduled TX queue.
func (g *QueueGroup) Tx(data []byte, cost simclock.Lat) {
	g.TxFrame(fabric.Frame{Data: data, Cost: cost})
}

// TxFrame enqueues one frame on the group's TX queue and pumps the
// scheduler: tenants share the wire by weighted deficit round-robin,
// optionally token-bucket rate-limited, instead of racing unbounded
// into Device.TxFrame. A full TX ring drops (and releases) the frame —
// backpressure lands on the flooding tenant, not the shared link.
func (g *QueueGroup) TxFrame(f fabric.Frame) {
	g.dev.sched.enqueue(g.tq, f)
	g.dev.sched.pump(g.dev)
}

// AppendRxBurst polls the group's relQueue-th queue (group-relative).
// It pumps the TX scheduler first so rate-limited frames queued before
// this poll get a chance to drain as time advances.
func (g *QueueGroup) AppendRxBurst(dst []fabric.Frame, relQueue, max int) []fabric.Frame {
	g.dev.sched.pump(g.dev)
	return g.dev.AppendRxBurst(dst, g.base+relQueue, max)
}

// RxPending is Device.RxPending for the group's relQueue-th queue.
func (g *QueueGroup) RxPending(relQueue int) bool { return g.dev.RxPending(g.base + relQueue) }

// RxBurst is AppendRxBurst with fresh storage.
func (g *QueueGroup) RxBurst(relQueue, max int) []fabric.Frame {
	return g.AppendRxBurst(nil, relQueue, max)
}

// FlushRxQueue is Device.FlushRxQueue on the group's relQueue-th queue
// (group-relative): the group-scoped crash reclaim flushes the group's
// own queues, one by its poller each, and its TX queue (FlushTx). Other
// tenants' rings are untouched — one tenant's crash must not discard a
// neighbour's frames.
func (g *QueueGroup) FlushRxQueue(relQueue int) int {
	return g.dev.FlushRxQueue(g.base + relQueue)
}

// FlushTx releases every frame staged on the group's TX queue (crash
// reclaim) and returns how many there were.
func (g *QueueGroup) FlushTx() int { return g.dev.sched.flushQueue(g.tq) }

// GroupStats is a snapshot of one queue group's counters.
type GroupStats struct {
	RxFrames       int64
	RxDropped      int64
	RxFlushed      int64
	TxFrames       int64
	TxBytes        int64
	TxQueued       int64 // frames currently staged in the TX ring
	TxFlushed      int64 // TX frames discarded by crash flush
	ThrottleDrops  int64 // frames dropped at a full TX ring
	SteeringDenied int64 // rule installs refused at the bounds check
}

// Stats returns a snapshot of the group's counters.
func (g *QueueGroup) Stats() GroupStats {
	sent, bytes, queued, flushed, drops := g.tq.stats()
	return GroupStats{
		RxFrames:       g.rxFrames.Load(),
		RxDropped:      g.rxDropped.Load(),
		RxFlushed:      g.rxFlushed.Load(),
		TxFrames:       sent,
		TxBytes:        bytes,
		TxQueued:       queued,
		TxFlushed:      flushed,
		ThrottleDrops:  drops,
		SteeringDenied: g.steeringDenied.Load(),
	}
}

// RegisterTelemetry lifts the group's counters into a telemetry
// registry under prefix (e.g. "tenant.a.nic"), its instantaneous TX
// scheduling credit among them: the WDRR deficit (tx_deficit) and the
// token-bucket balance (tx_tokens), both in bytes.
func (g *QueueGroup) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	stat := func(read func(GroupStats) int64) func() int64 {
		return func() int64 { return read(g.Stats()) }
	}
	r.RegisterFunc(prefix+".rx_frames", stat(func(s GroupStats) int64 { return s.RxFrames }))
	r.RegisterFunc(prefix+".rx_dropped", stat(func(s GroupStats) int64 { return s.RxDropped }))
	r.RegisterFunc(prefix+".rx_flushed", stat(func(s GroupStats) int64 { return s.RxFlushed }))
	r.RegisterFunc(prefix+".tx_frames", stat(func(s GroupStats) int64 { return s.TxFrames }))
	r.RegisterFunc(prefix+".tx_bytes", stat(func(s GroupStats) int64 { return s.TxBytes }))
	r.RegisterFunc(prefix+".tx_queued", stat(func(s GroupStats) int64 { return s.TxQueued }))
	r.RegisterFunc(prefix+".throttle_drops", stat(func(s GroupStats) int64 { return s.ThrottleDrops }))
	r.RegisterFunc(prefix+".steering_denied", stat(func(s GroupStats) int64 { return s.SteeringDenied }))
	r.RegisterFunc(prefix+".tx_deficit", func() int64 { return g.tq.deficitNow() })
	r.RegisterFunc(prefix+".tx_tokens", func() int64 { return g.tq.tokensNow() })
}
