// Package nic simulates a DPDK-class kernel-bypass NIC (Table 1, left
// column of the paper): raw descriptor rings, burst polling, RSS receive
// steering, and a small hardware filter table for offloaded queue filters
// (§4.2, §4.3).
//
// The device deliberately provides *no* OS functionality: no protocol
// stack, no buffer management beyond its rings, no sockets. "To use
// kernel-bypass accelerators in this category, applications must supply
// their own I/O stack" — that stack is package netstack, and the libOS
// that ties them together is internal/libos/catnip.
//
// The receive path takes one lock, and only to move frames: N shard
// workers poll N receive queues without contending. The wire drain is
// guarded by a TryLock'd mutex, so exactly one poller moves frames from
// the fabric into the rings while the rest go straight to their own ring;
// each ring is single-producer (the drain) and single-consumer (its
// queue's poller), so it is a lock-free shard.Ring, bounded and dropping
// when full as a hardware descriptor ring does; the counters are atomics.
package nic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"demikernel/internal/fabric"
	"demikernel/internal/shard"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// Config describes a simulated NIC.
type Config struct {
	MAC       fabric.MAC
	RxQueues  int // number of receive queues (RSS spreads across them)
	RingDepth int // descriptor ring depth per queue, rounded up to a power of two
}

// Stats counts device events.
type Stats struct {
	TxFrames    int64
	RxFrames    int64
	RxDropped   int64 // descriptor ring full
	FilterDrops int64 // frames dropped by a hardware filter
	FilterEvals int64 // hardware filter evaluations
	SteerDrops  int64 // frames owned by no tenant queue group (multi-tenant NICs)
	DMABytes    int64
	Regions     int64 // frame pools registered (RegisterRegion)
	RxFlushed   int64 // ring frames discarded by FlushRxQueue (node crash)
}

// FilterAction tells the device what to do with a frame matching a
// hardware filter.
type FilterAction int

const (
	// ActionSteer steers matching frames to a specific receive queue.
	ActionSteer FilterAction = iota
	// ActionDrop drops matching frames in hardware.
	ActionDrop
)

// HWFilter is one entry in the device's filter table. Match inspects the
// raw frame. Running in "hardware" costs the device the offloaded filter
// cost per evaluation but zero host CPU (§4.2: "library OSes always
// implement filters directly on supported devices but default to using
// the CPU if necessary").
type HWFilter struct {
	Match  func(frame []byte) bool
	Action FilterAction
	Queue  int
}

// Device is a simulated kernel-bypass NIC attached to a fabric switch.
// All methods are safe for concurrent use, with one rule: a receive queue
// has one poller at a time (a shard, under its lock). RxBurst calls on
// distinct queues proceed in parallel.
type Device struct {
	model *simclock.CostModel
	cfg   Config
	port  *fabric.Port

	// drainMu serialises moving frames from the fabric port into the
	// receive rings: its holder is the port's one reader and every ring's
	// one writer. Pollers TryLock it: whoever wins drains for everyone,
	// the rest skip straight to popping their own ring.
	drainMu sync.Mutex

	// mu guards classification-plane *mutations* only: the master
	// filter list, the queue-group set, and group steering rules. The
	// RX data path never takes it — every mutation compiles a fresh
	// immutable classTable and publishes it through the class pointer
	// (copy-on-write), so steady-state classification is a single
	// atomic load. This replaces the former filterMu.RLock-per-frame:
	// an RLock is a shared-cacheline RMW on every received frame, which
	// is exactly the cross-core traffic a multi-queue NIC exists to
	// avoid.
	mu        sync.Mutex
	filters   []HWFilter // master copy; snapshot lives in class
	groups    []*QueueGroup
	nextQueue int             // next unclaimed rx queue index (groups claim ranges)
	rssQueues int             // RSS indirection width (0 = all queues); see flowpin.go
	pins      map[FlowKey]int // exact-match flow pins; see flowpin.go

	class atomic.Pointer[classTable]

	// rx holds the descriptor rings, one a queue (see the package comment).
	rx []*shard.Ring[fabric.Frame]

	sched *txScheduler

	txFrames    atomic.Int64
	rxFrames    atomic.Int64
	rxDropped   atomic.Int64
	filterDrops atomic.Int64
	filterEvals atomic.Int64
	steerDrops  atomic.Int64
	dmaBytes    atomic.Int64
	regions     atomic.Int64
	rxFlushed   atomic.Int64
}

// New creates a NIC with cfg attached to sw. It announces its MAC to the
// switch immediately (as link-up traffic would) so unicast delivery works
// from the first frame.
func New(model *simclock.CostModel, sw *fabric.Switch, cfg Config) *Device {
	if cfg.RxQueues <= 0 {
		cfg.RxQueues = 1
	}
	if cfg.RingDepth <= 0 {
		cfg.RingDepth = 512
	}
	// The wire-side buffer is deeper than the descriptor rings so that
	// overflow manifests where it does on real hardware: as RxDropped at
	// the device ring, not as silent loss in the fabric.
	portDepth := cfg.RingDepth * cfg.RxQueues * 4
	if portDepth < 4096 {
		portDepth = 4096
	}
	d := &Device{
		model: model,
		cfg:   cfg,
		port:  sw.NewPort(portDepth),
	}
	d.rx = make([]*shard.Ring[fabric.Frame], cfg.RxQueues)
	for i := range d.rx {
		d.rx[i] = shard.NewRing[fabric.Frame](cfg.RingDepth)
	}
	d.sched = newTxScheduler()
	d.class.Store(&classTable{})
	return d
}

// MAC returns the device's hardware address.
func (d *Device) MAC() fabric.MAC { return d.cfg.MAC }

// PortID returns the fabric port this NIC is attached to, the handle
// chaos schedules use to target the device's link.
func (d *Device) PortID() int { return d.port.ID() }

// NumRxQueues returns the configured receive-queue count.
func (d *Device) NumRxQueues() int { return d.cfg.RxQueues }

// RegisterRegion records that a transport's frame pool is DMA-able
// memory of this device: one registration per pool, at bind time, however
// many buffers it hands out. (A real NIC would program its IOMMU mapping
// here.)
func (d *Device) RegisterRegion(*fabric.FramePool) {
	d.regions.Add(1)
}

// Tx transmits one raw Ethernet frame carrying prior accumulated cost.
// The device charges its per-packet processing plus DMA of the payload.
func (d *Device) Tx(data []byte, cost simclock.Lat) {
	d.TxFrame(fabric.Frame{Data: data, Cost: cost})
}

// TxFrame transmits one frame, pooled backing buffer and all. Ownership
// of f.Buf transfers to the fabric (and onward to the receiver); the
// caller must not touch f.Data after the call. The TX path is lock-free
// on the device: counters are atomics and the fabric port does its own
// synchronisation, so shards transmit concurrently without rendezvous.
func (d *Device) TxFrame(f fabric.Frame) {
	d.txFrames.Add(1)
	d.dmaBytes.Add(int64(len(f.Data)))
	f.Cost += d.model.NICProcessNS + d.model.DMACost(len(f.Data))
	d.port.Send(f)
}

// RxBurst polls up to max frames from the given receive queue, as DPDK's
// rx_burst would. It first drains the wire into the device's rings,
// applying hardware filters and RSS steering.
func (d *Device) RxBurst(queue, max int) []fabric.Frame {
	return d.AppendRxBurst(nil, queue, max)
}

// AppendRxBurst is RxBurst with caller-provided storage: frames are
// appended to dst (which may be a recycled slice with len 0), so a
// steady-state poll loop runs without allocating the burst slice.
// Ownership of each frame's pooled buffer (Frame.Buf) passes to the
// caller, who must Release every frame once ingested.
//
// Concurrent calls on different queues do not serialise against each
// other: one caller at a time performs the wire drain (TryLock), and a
// queue's ring is read by its one poller without a lock.
func (d *Device) AppendRxBurst(dst []fabric.Frame, queue, max int) []fabric.Frame {
	if queue < 0 || queue >= len(d.rx) {
		panic(fmt.Sprintf("nic: RxBurst on queue %d of %d", queue, len(d.rx)))
	}
	if d.drainMu.TryLock() {
		d.drainWireLocked()
		d.drainMu.Unlock()
	}
	q := d.rx[queue]
	start := len(dst)
	for len(dst)-start < max {
		f, ok := q.Pop()
		if !ok {
			break
		}
		dst = append(dst, f)
	}
	if n := len(dst) - start; n > 0 {
		fabric.RecordBurstSize(n)
	}
	return dst
}

// RxPending reports whether a frame waits in queue's ring, or on the wire
// for a drain to classify (to this queue or another). It takes no lock.
func (d *Device) RxPending(queue int) bool {
	return d.rx[queue].Len() > 0 || d.port.Pending()
}

// drainWireLocked moves frames from the fabric port into receive rings.
// Caller holds drainMu. The classification table is loaded once per
// drain — zero locks however many frames arrive; a table mutation
// racing the drain applies from the next drain on, exactly as a real
// NIC applies filter-table writes asynchronously to its RX pipeline.
func (d *Device) drainWireLocked() {
	t := d.class.Load()
	for {
		f, ok := d.port.Poll()
		if !ok {
			return
		}
		// Hardware receive processing + DMA into host memory.
		f.Cost += d.model.NICProcessNS + d.model.DMACost(len(f.Data))
		d.dmaBytes.Add(int64(len(f.Data)))

		qi, verdict := d.classify(t, &f)
		switch verdict {
		case classDropFilter:
			d.filterDrops.Add(1)
			f.Release()
			continue
		case classDropUnowned:
			d.steerDrops.Add(1)
			telemetry.TraceInstant("nic", "steer-drop", int32(d.port.ID()), int64(len(f.Data)))
			f.Release()
			continue
		}
		g := t.queueOwner(qi)
		if d.rx[qi].Push(f) {
			d.rxFrames.Add(1)
			if g != nil {
				g.rxFrames.Add(1)
			}
		} else {
			d.rxDropped.Add(1)
			if g != nil {
				g.rxDropped.Add(1)
			}
			telemetry.TraceInstant("nic", "rx-ring-drop", int32(qi), int64(len(f.Data)))
			f.Release()
		}
	}
}

// classification verdicts.
type classVerdict int8

const (
	classOK          classVerdict = iota
	classDropFilter               // dropped by a hardware filter
	classDropUnowned              // no tenant queue group owns the frame
)

// classify steers one frame using the immutable snapshot t: device-wide
// hardware filters first (first match wins), then — on a multi-tenant
// device — queue-group ownership (dst MAC, or ARP target IP for
// broadcasts) and the owning group's steering rules, and finally RSS.
// On a device with queue groups a frame owned by nobody is dropped:
// isolation means no tenant's ring is a dumping ground for stray
// traffic.
func (d *Device) classify(t *classTable, f *fabric.Frame) (queue int, verdict classVerdict) {
	for i := range t.filters {
		flt := &t.filters[i]
		d.filterEvals.Add(1)
		f.Cost += d.model.OffloadedFilterCost()
		if flt.Match(f.Data) {
			if flt.Action == ActionDrop {
				return 0, classDropFilter
			}
			return flt.Queue % len(d.rx), classOK
		}
	}
	if t.hasGroups {
		g := t.ownerOf(f.Data)
		if g == nil {
			return 0, classDropUnowned
		}
		return g.steer(d, f), classOK
	}
	if len(t.pins) > 0 {
		if k, ok := FlowKeyOf(f.Data); ok {
			d.filterEvals.Add(1)
			f.Cost += d.model.OffloadedFilterCost()
			if q, pinned := t.pins[k]; pinned {
				return q, classOK
			}
		}
	}
	return d.rss(t, f.Data), classOK
}

// AddFilter installs a hardware filter and returns its table index.
// Filters run in installation order; the first match wins. The update
// is copy-on-write: a fresh classification snapshot is compiled and
// published atomically, so concurrent RX bursts never block on it.
func (d *Device) AddFilter(f HWFilter) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.filters = append(d.filters, f)
	d.publishLocked()
	return len(d.filters) - 1
}

// FNV-1a constants for the inline flow hash below.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// RSSHashFlow is the device's RSS hash as a pure function of the flow
// 4-tuple: FNV-1a over the 12 bytes (srcIP, dstIP, srcPort, dstPort) in
// on-the-wire order, exactly as rss() reads them out of an IPv4 frame.
// It stands in for a Toeplitz hash; the properties that matter are a
// stable flow→queue mapping and that software (a sharded libOS choosing
// a source port so the *reply* lands on a particular worker's queue —
// §3.1's share-nothing partitioning) can compute the same mapping the
// hardware applies.
func RSSHashFlow(srcIP, dstIP [4]byte, srcPort, dstPort uint16) uint32 {
	h := uint32(fnvOffset32)
	hashByte := func(b byte) {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	hashByte(srcIP[0])
	hashByte(srcIP[1])
	hashByte(srcIP[2])
	hashByte(srcIP[3])
	hashByte(dstIP[0])
	hashByte(dstIP[1])
	hashByte(dstIP[2])
	hashByte(dstIP[3])
	hashByte(byte(srcPort >> 8))
	hashByte(byte(srcPort))
	hashByte(byte(dstPort >> 8))
	hashByte(byte(dstPort))
	return h
}

// RSSQueueFlow maps a flow 4-tuple onto one of queues receive queues,
// matching the device's classify() steering bit-for-bit.
func RSSQueueFlow(srcIP, dstIP [4]byte, srcPort, dstPort uint16, queues int) int {
	if queues <= 1 {
		return 0
	}
	return int(RSSHashFlow(srcIP, dstIP, srcPort, dstPort) % uint32(queues))
}

// rss hashes the flow identity of a frame onto a receive queue. For IPv4
// frames it hashes the source/destination addresses and the first four
// bytes of the transport header (ports); otherwise it hashes the source
// MAC. This stands in for a Toeplitz hash: the property that matters is a
// stable flow→queue mapping.
//
// The hash is inlined FNV-1a rather than hash/fnv: the stdlib hasher is
// an interface value that escapes, which would put one heap allocation
// on every received frame. The reduction is an unsigned modulo —
// int(h.Sum32()) % n, the previous form, yields a negative index on
// 32-bit ints for half the hash space.
func (d *Device) rss(t *classTable, data []byte) int {
	w := t.rssQueues
	if w <= 0 || w > len(d.rx) {
		w = len(d.rx)
	}
	return int(rssHash(data) % uint32(w))
}

// rssHash is the raw flow hash rss() reduces: queue groups reduce the
// same hash modulo their own queue count, so a group of n queues sees
// the same flow→queue spreading a dedicated n-queue device would.
func rssHash(data []byte) uint32 {
	h := uint32(fnvOffset32)
	const ethHdr = 14
	if len(data) >= ethHdr+24 && data[12] == 0x08 && data[13] == 0x00 {
		for _, b := range data[ethHdr+12 : ethHdr+24] { // src+dst IPv4, ports
			h ^= uint32(b)
			h *= fnvPrime32
		}
	} else {
		for _, b := range data[6:12] { // src MAC
			h ^= uint32(b)
			h *= fnvPrime32
		}
	}
	return h
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		TxFrames:    d.txFrames.Load(),
		RxFrames:    d.rxFrames.Load(),
		RxDropped:   d.rxDropped.Load(),
		FilterDrops: d.filterDrops.Load(),
		FilterEvals: d.filterEvals.Load(),
		SteerDrops:  d.steerDrops.Load(),
		DMABytes:    d.dmaBytes.Load(),
		Regions:     d.regions.Load(),
		RxFlushed:   d.rxFlushed.Load(),
	}
}

// FlushRxQueue empties one receive ring, releasing pooled frames back to
// their pools, and returns the number of frames discarded. It first
// performs a normal wire drain so frames already delivered by the fabric
// are classified and counted as RxFrames, then flushes the ring, counting
// each discarded frame in RxFlushed (the device's and the owning queue
// group's) — the device-side half of a node crash: when a kernel-bypass
// application dies, the frames its stack never ingested must still be
// reclaimed, or the pool leaks (§3: the OS can no longer clean up after
// the dead process; here the simulated device model does it on the
// stack's behalf at Crash time). The flush reads the ring, so it runs as
// the queue's poller: under the shard lock of the stack that polls it.
//
// The stack-level conservation law picks up the new bucket:
//
//	nic.RxFrames == Σ stack.FramesIn + Σ ring occupancy + nic.RxFlushed
func (d *Device) FlushRxQueue(queue int) int {
	d.drainMu.Lock()
	d.drainWireLocked()
	d.drainMu.Unlock()
	n := 0
	for {
		f, ok := d.rx[queue].Pop()
		if !ok {
			break
		}
		f.Release()
		n++
	}
	if n > 0 {
		if g := d.class.Load().queueOwner(queue); g != nil {
			g.rxFlushed.Add(int64(n))
		}
		d.rxFlushed.Add(int64(n))
		telemetry.TraceInstant("nic", "rx-flush", int32(d.port.ID()), int64(n))
	}
	return n
}

// QueueDepth reports the current occupancy of a receive queue, after
// draining the wire. Useful in tests and the steering experiment.
func (d *Device) QueueDepth(queue int) int {
	d.drainMu.Lock()
	d.drainWireLocked()
	d.drainMu.Unlock()
	return d.RxOccupancy(queue)
}

// RxOccupancy reports the current occupancy of a receive queue WITHOUT
// draining the wire first. Telemetry gauges use this: a metrics sample
// must observe the device, not perturb it (QueueDepth's drain would move
// frames from the fabric into the rings as a side effect of being read).
func (d *Device) RxOccupancy(queue int) int {
	if queue < 0 || queue >= len(d.rx) {
		return 0
	}
	return d.rx[queue].Len()
}

// RegisterTelemetry lifts the device counters into a telemetry registry
// under prefix (e.g. "nic"). Counter sample funcs snapshot Stats() at
// read time; per-queue occupancy gauges use the non-draining
// RxOccupancy so sampling never mutates device state.
func (d *Device) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	stat := func(read func(Stats) int64) func() int64 {
		return func() int64 { return read(d.Stats()) }
	}
	r.RegisterFunc(prefix+".tx_frames", stat(func(s Stats) int64 { return s.TxFrames }))
	r.RegisterFunc(prefix+".rx_frames", stat(func(s Stats) int64 { return s.RxFrames }))
	r.RegisterFunc(prefix+".rx_dropped", stat(func(s Stats) int64 { return s.RxDropped }))
	r.RegisterFunc(prefix+".filter_drops", stat(func(s Stats) int64 { return s.FilterDrops }))
	r.RegisterFunc(prefix+".filter_evals", stat(func(s Stats) int64 { return s.FilterEvals }))
	r.RegisterFunc(prefix+".steer_drops", stat(func(s Stats) int64 { return s.SteerDrops }))
	r.RegisterFunc(prefix+".dma_bytes", stat(func(s Stats) int64 { return s.DMABytes }))
	r.RegisterFunc(prefix+".regions", stat(func(s Stats) int64 { return s.Regions }))
	r.RegisterFunc(prefix+".rx_flushed", stat(func(s Stats) int64 { return s.RxFlushed }))
	r.RegisterFunc(prefix+".rss_queues", func() int64 { return int64(d.RSSQueues()) })
	r.RegisterFunc(prefix+".pinned_flows", func() int64 { return int64(d.PinnedFlows()) })
	for q := 0; q < d.cfg.RxQueues; q++ {
		q := q
		r.RegisterFunc(fmt.Sprintf("%s.rxq%d.occupancy", prefix, q), func() int64 {
			return int64(d.RxOccupancy(q))
		})
	}
}
