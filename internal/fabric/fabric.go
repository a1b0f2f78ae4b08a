// Package fabric simulates the datacenter network that connects the
// simulated kernel-bypass NICs: a learning Ethernet switch with per-link
// propagation delay and configurable fault injection (loss, duplication,
// reordering).
//
// The fabric transports raw Ethernet frames as byte slices, exactly as a
// physical wire would; all structure above the Ethernet header is the
// business of the network stacks built on top (package netstack). Each
// frame also carries an accumulated virtual-latency cost (see package
// simclock) so end-to-end simulated latency can be reported
// deterministically.
package fabric

import (
	"fmt"
	"math/rand"
	"sync"

	"demikernel/internal/shard"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// key packs the address into a word, for use as a map key.
func (m MAC) key() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 | uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the usual colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// MinFrameLen is the smallest frame the fabric will carry: a full
// Ethernet header (two MACs and an EtherType).
const MinFrameLen = 14

// Frame is one Ethernet frame in flight, with its accumulated virtual
// cost. Data holds the full frame starting at the destination MAC.
type Frame struct {
	Data []byte
	Cost simclock.Lat
	// Buf, when non-nil, is the pooled buffer backing Data. Ownership
	// travels with the frame: whoever holds the frame last (the
	// receiving stack after ingest, or the fabric/NIC at a drop point)
	// calls Release exactly once. Heap-backed frames leave it nil, unless
	// they carry offload marks (SetCsum, Corrupt): the buffer holds those,
	// as a DPDK mbuf holds its offload flags, and a heap-backed frame is
	// given one of its own that no pool recycles.
	Buf *FrameBuf
}

// Csum returns the frame's checksum offload state.
func (f Frame) Csum() Csum {
	if f.Buf == nil {
		return CsumNone
	}
	return f.Buf.csum
}

// SetCsum sets the frame's checksum offload state.
func (f *Frame) SetCsum(c Csum) { f.marks().csum = c }

// Flip returns the frame's corruption mark: 1 + the offset of the byte the
// fabric flipped, 0 on an intact frame. A receiving NIC that checks
// checksums in hardware reads its verdict from it (nic.Device).
func (f Frame) Flip() int32 {
	if f.Buf == nil {
		return 0
	}
	return f.Buf.flip
}

// Corrupt flips byte i of the frame and marks it (Flip): the damage a
// bit error on the wire does.
func (f *Frame) Corrupt(i int) {
	f.Data[i] ^= 0xFF
	f.marks().flip = int32(i) + 1
}

// marks is the buffer that holds the frame's offload marks, made for a
// heap-backed frame that has none.
func (f *Frame) marks() *FrameBuf {
	if f.Buf == nil {
		f.Buf = heapBuf(f.Data)
	}
	return f.Buf
}

// clone returns a heap-backed copy of the frame, offload marks included.
func (f Frame) clone() Frame {
	c := Frame{Data: append([]byte(nil), f.Data...), Cost: f.Cost}
	if f.Csum() != CsumNone || f.Flip() != 0 {
		b := c.marks()
		b.csum, b.flip = f.Buf.csum, f.Buf.flip
	}
	return c
}

// Csum is what a frame's checksum fields hold, the simulated wire's
// stand-in for DPDK's mbuf offload flags. A NIC with checksum offload
// computes the IPv4 and L4 checksums as the frame leaves, and checks them
// as it arrives; the simulated devices spend no Go time on either, so the
// fields of an offloaded frame read zero and CsumPending stands for the
// sums they would hold. The byte a corruption flips is marked (Flip), and
// a flipped byte always changes a one's-complement sum, so a verdict read
// from the mark is the verdict a check of the sums gives.
type Csum uint8

const (
	// CsumNone: the fields hold the frame's sums, for its receiver to check
	// in software (ARP, a frame built by hand, a sender without offload).
	CsumNone Csum = iota
	// CsumPending: the sending NIC computes the sums; no receiving NIC has
	// checked them yet.
	CsumPending
	// CsumGood, CsumBadIP and CsumBadL4 are a receiving NIC's verdict on a
	// CsumPending frame: both sums check, or the IPv4 header's fails (the
	// L4 sum is then not looked at), or the TCP/UDP one does.
	CsumGood
	CsumBadIP
	CsumBadL4
)

// Release returns the frame's pooled backing buffer (if any) to its
// pool and clears the reference. It is safe on heap-backed frames and
// safe to call twice on the same Frame value (the second call is a
// no-op) — but NOT on two copies of the same value; ownership is
// single-holder by contract.
func (f *Frame) Release() {
	if f.Buf != nil {
		b := f.Buf
		f.Buf = nil
		f.Data = nil
		b.Release()
	}
}

// DstMAC returns the destination address of a well-formed frame.
func (f Frame) DstMAC() MAC { var m MAC; copy(m[:], f.Data[0:6]); return m }

// SrcMAC returns the source address of a well-formed frame.
func (f Frame) SrcMAC() MAC { var m MAC; copy(m[:], f.Data[6:12]); return m }

// Impairments configures fault injection on a switch. Rates are
// probabilities in [0,1]; injection draws from a deterministic seeded
// source so experiments are reproducible.
type Impairments struct {
	LossRate    float64
	DupRate     float64
	ReorderRate float64 // probability a frame is held and swapped with the next
	// CorruptRate flips a payload byte past the Ethernet header and marks
	// which (Frame.Corrupt). The frame still routes (MACs are untouched); the
	// damage must be caught by the integrity checks above (IPv4/TCP/UDP
	// checksums, in software or by a NIC that offloads them; the RDMA
	// ICRC; the blob-store CRC).
	CorruptRate float64
	ExtraDelay  simclock.Lat
}

// Stats counts fabric-level events.
type Stats struct {
	Delivered       int64
	Flooded         int64
	DroppedRxFull   int64
	InjectedLoss    int64
	InjectedDup     int64
	InjectedReorder int64
	InjectedCorrupt int64
	LinkDownDrops   int64
	// AsymDrops counts frames dropped by a one-way (asymmetric) block:
	// the direction of a partition where A still reaches B but B's
	// replies die on the wire (SetOneWayBlock). Zero unless a schedule
	// injects an asymmetric partition.
	AsymDrops int64
}

// PortStats counts per-port fabric events, so experiments can verify that
// a fault schedule actually fired on the link it targeted.
type PortStats struct {
	TxFrames        int64 // frames the port attempted to send
	Delivered       int64 // frames delivered into the port's rx ring
	InjectedLoss    int64 // tx frames dropped by this port's impairments
	InjectedCorrupt int64 // tx frames corrupted by this port's impairments
	LinkDownDrops   int64 // frames dropped because this link was down
	AsymDrops       int64 // tx frames dropped by a one-way block out of this port
}

// Switch is a learning Ethernet switch. Ports attach with NewPort; frames
// sent on one port are delivered to the port that owns the destination
// MAC, or flooded when the destination is unknown or broadcast.
//
// Switch is safe for concurrent use.
type Switch struct {
	model *simclock.CostModel

	mu    sync.Mutex
	ports []*Port
	// macTab maps a learned address, packed into a word (MAC.key), to its
	// port: an 8-byte key takes the map's fast path, where a 6-byte array
	// is hashed through the variable-length one, twice a frame.
	macTab map[uint64]*Port
	imp    Impairments
	rng    *rand.Rand
	held   *heldFrame // one-slot reorder buffer
	stats  Stats
	// oneWay holds directional blocks: oneWay[{from,to}] drops frames
	// transmitted by port `from` whose destination MAC resolves to port
	// `to`. Nil (the common case) costs one nil-map check per forward.
	oneWay map[[2]int]bool
}

type heldFrame struct {
	frame Frame
	from  *Port
}

// NewSwitch returns a switch charging wire costs from model, with fault
// injection driven by seed.
func NewSwitch(model *simclock.CostModel, seed int64) *Switch {
	return &Switch{
		model:  model,
		macTab: make(map[uint64]*Port),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// SetImpairments replaces the switch-global fault-injection
// configuration.
func (s *Switch) SetImpairments(imp Impairments) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.imp = imp
}

// SetLinkState administratively raises (up=true) or cuts (up=false) the
// link behind one port. While a link is down, frames sent from the port
// and frames destined to it are dropped and counted in LinkDownDrops —
// the fabric-level model of a cable pull or a partitioned peer.
func (s *Switch) SetLinkState(id int, up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.portLocked(id); p != nil {
		p.down = !up
	}
}

// SetOneWayBlock installs (blocked=true) or clears (blocked=false) a
// directional drop: frames transmitted by port `from` whose destination
// resolves to port `to` die on the wire, counted in AsymDrops. The
// reverse direction is untouched — this is the asymmetric partition of
// the chaos schedule, where A's requests still reach B but B's replies
// never come home. Flood copies honor the block too.
func (s *Switch) SetOneWayBlock(from, to int, blocked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blocked {
		if s.oneWay == nil {
			s.oneWay = make(map[[2]int]bool)
		}
		s.oneWay[[2]int{from, to}] = true
		return
	}
	delete(s.oneWay, [2]int{from, to})
	if len(s.oneWay) == 0 {
		s.oneWay = nil
	}
}

// blockedLocked reports whether the from→to direction is blocked.
func (s *Switch) blockedLocked(from, to *Port) bool {
	if s.oneWay == nil || from == nil || to == nil {
		return false
	}
	return s.oneWay[[2]int{from.id, to.id}]
}

// LinkUp reports the administrative link state of a port.
func (s *Switch) LinkUp(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.portLocked(id)
	return p != nil && !p.down
}

func (s *Switch) portLocked(id int) *Port {
	if id < 0 || id >= len(s.ports) {
		return nil
	}
	return s.ports[id]
}

// NumPorts returns the number of attached ports.
func (s *Switch) NumPorts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ports)
}

// Stats returns a snapshot of the switch counters.
func (s *Switch) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// PortStats returns a snapshot of one port's counters.
func (s *Switch) PortStats(id int) PortStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.portLocked(id); p != nil {
		return p.stats
	}
	return PortStats{}
}

// DefaultPortRing is the default depth of a port's receive ring.
const DefaultPortRing = 1024

// Port is one attachment point on the switch. A simulated NIC owns a port
// and polls frames from it.
type Port struct {
	sw *Switch
	id int
	// rx is the port's receive ring, and needs no lock of its own: every
	// writer holds sw.mu, and its one reader at a time holds the owning
	// device's (a NIC's drain lock, an RDMA device's poll guard).
	rx    *shard.Ring[Frame]
	down  bool      // administrative link state (guarded by sw.mu)
	stats PortStats // guarded by sw.mu
}

// ID returns the port's index on its switch, the handle fault schedules
// target links by.
func (p *Port) ID() int { return p.id }

// NewPort attaches a new port with the given receive-ring depth (0 means
// DefaultPortRing).
func (s *Switch) NewPort(ringDepth int) *Port {
	if ringDepth <= 0 {
		ringDepth = DefaultPortRing
	}
	p := &Port{sw: s, rx: shard.NewRing[Frame](ringDepth)}
	s.mu.Lock()
	p.id = len(s.ports)
	s.ports = append(s.ports, p)
	s.mu.Unlock()
	return p
}

// Send transmits a frame into the fabric. Short frames are dropped, as a
// physical switch would drop runts.
func (p *Port) Send(f Frame) {
	p.sw.mu.Lock()
	defer p.sw.mu.Unlock()
	p.sendLocked(f)
}

// SendBurst transmits frames in order, as that many Sends would, under
// one hold of the switch lock: every frame gets its own fault decisions.
// Ownership of each frame passes to the fabric; the caller may reuse the
// slice, whose elements it should clear.
func (p *Port) SendBurst(frames []Frame) {
	p.sw.mu.Lock()
	defer p.sw.mu.Unlock()
	for _, f := range frames {
		p.sendLocked(f)
	}
}

func (p *Port) sendLocked(f Frame) {
	if len(f.Data) < MinFrameLen {
		f.Release()
		return
	}
	s := p.sw
	p.stats.TxFrames++

	// Learn the source address (even across a down link: the MAC table
	// models state the switch learned before the cut). A lookup per frame,
	// a table write only for a MAC that is new or has moved ports.
	if src := f.SrcMAC().key(); s.macTab[src] != p {
		s.macTab[src] = p
	}

	// A cut link transmits nothing.
	if p.down {
		s.stats.LinkDownDrops++
		p.stats.LinkDownDrops++
		telemetry.TraceInstant("fabric", "link-down-drop", int32(p.id), int64(len(f.Data)))
		f.Release()
		return
	}

	// Fault injection.
	imp := &s.imp
	if imp.LossRate > 0 && s.rng.Float64() < imp.LossRate {
		s.stats.InjectedLoss++
		p.stats.InjectedLoss++
		telemetry.TraceInstant("fabric", "loss", int32(p.id), int64(len(f.Data)))
		f.Release()
		return
	}
	if imp.CorruptRate > 0 && s.rng.Float64() < imp.CorruptRate {
		f = s.corruptLocked(f, p)
	}
	frames := []Frame{f}
	if imp.DupRate > 0 && s.rng.Float64() < imp.DupRate {
		s.stats.InjectedDup++
		// The copy is heap-backed; ownership of Buf stays with f.
		frames = append(frames, f.clone())
	}
	if imp.ReorderRate > 0 {
		if s.held != nil {
			// Deliver the new frame first, then the held one.
			heldF, heldFrom := s.held.frame, s.held.from
			s.held = nil
			for _, fr := range frames {
				s.forwardLocked(fr, p)
			}
			s.forwardLocked(heldF, heldFrom)
			return
		}
		if s.rng.Float64() < imp.ReorderRate {
			s.stats.InjectedReorder++
			s.held = &heldFrame{frame: f, from: p}
			// The hold slot stores exactly one frame: an injected
			// duplicate still goes out now, only the original is held.
			// (Holding the whole batch used to leak the duplicate — it
			// was neither forwarded nor counted as dropped, a gap the
			// fabric conservation law catches.)
			for _, fr := range frames[1:] {
				s.forwardLocked(fr, p)
			}
			return
		}
	}
	for _, fr := range frames {
		s.forwardLocked(fr, p)
	}
}

// corruptLocked returns a copy of f with one byte past the Ethernet
// header flipped — the wire-level bit error a schedule injects — and
// marked (Frame.Corrupt). The copy keeps the sender's buffer intact, as
// real corruption happens on the wire, not in host memory.
func (s *Switch) corruptLocked(f Frame, p *Port) Frame {
	s.stats.InjectedCorrupt++
	p.stats.InjectedCorrupt++
	telemetry.TraceInstant("fabric", "corrupt", int32(p.id), int64(len(f.Data)))
	c := f.clone()
	if len(c.Data) > MinFrameLen {
		c.Corrupt(MinFrameLen + s.rng.Intn(len(c.Data)-MinFrameLen))
	}
	// The damaged copy is heap-backed; the sender's pooled buffer (if
	// any) is done the moment the wire mangles the bits.
	f.Release()
	return c
}

// Flush delivers any frame held by the reorder buffer. Tests and quiesce
// paths call it so a trailing held frame is not lost.
func (s *Switch) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held != nil {
		h := s.held
		s.held = nil
		s.forwardLocked(h.frame, h.from)
	}
}

func (s *Switch) forwardLocked(f Frame, from *Port) {
	f.Cost += s.model.WireDelayNS + s.imp.ExtraDelay
	dst := f.DstMAC()
	if !dst.IsBroadcast() {
		if out, ok := s.macTab[dst.key()]; ok {
			if s.blockedLocked(from, out) {
				s.stats.AsymDrops++
				from.stats.AsymDrops++
				telemetry.TraceInstant("fabric", "asym-drop", int32(from.id), int64(len(f.Data)))
				f.Release()
				return
			}
			s.deliverLocked(out, f)
			return
		}
	}
	// Broadcast or unknown destination: flood. Every delivered copy is
	// heap-backed; the original (possibly pooled) frame is consumed here.
	s.stats.Flooded++
	for _, out := range s.ports {
		if out == from {
			continue
		}
		if s.blockedLocked(from, out) {
			s.stats.AsymDrops++
			from.stats.AsymDrops++
			continue
		}
		s.deliverLocked(out, f.clone())
	}
	f.Release()
}

func (s *Switch) deliverLocked(out *Port, f Frame) {
	if out.down {
		// The destination's link is cut: the frame dies on the wire.
		s.stats.LinkDownDrops++
		out.stats.LinkDownDrops++
		f.Release()
		return
	}
	if out.rx.Push(f) {
		s.stats.Delivered++
		out.stats.Delivered++
		return
	}
	s.stats.DroppedRxFull++
	telemetry.TraceInstant("fabric", "rx-full-drop", int32(out.id), int64(len(f.Data)))
	f.Release()
}

// RegisterTelemetry lifts the switch's global counters (and one
// link-state gauge per port) into a telemetry registry under prefix.
// The samples read the same mutex-guarded stats Stats() reports, taken
// at snapshot time.
func (s *Switch) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	stat := func(read func(Stats) int64) func() int64 {
		return func() int64 { return read(s.Stats()) }
	}
	r.RegisterFunc(prefix+".delivered", stat(func(st Stats) int64 { return st.Delivered }))
	r.RegisterFunc(prefix+".flooded", stat(func(st Stats) int64 { return st.Flooded }))
	r.RegisterFunc(prefix+".dropped_rx_full", stat(func(st Stats) int64 { return st.DroppedRxFull }))
	r.RegisterFunc(prefix+".injected_loss", stat(func(st Stats) int64 { return st.InjectedLoss }))
	r.RegisterFunc(prefix+".injected_dup", stat(func(st Stats) int64 { return st.InjectedDup }))
	r.RegisterFunc(prefix+".injected_reorder", stat(func(st Stats) int64 { return st.InjectedReorder }))
	r.RegisterFunc(prefix+".injected_corrupt", stat(func(st Stats) int64 { return st.InjectedCorrupt }))
	r.RegisterFunc(prefix+".link_down_drops", stat(func(st Stats) int64 { return st.LinkDownDrops }))
	r.RegisterFunc(prefix+".asym_drops", stat(func(st Stats) int64 { return st.AsymDrops }))
	r.RegisterFunc(prefix+".ports", func() int64 { return int64(s.NumPorts()) })
}

// Poll returns the next received frame without blocking. One goroutine
// at a time may poll a port.
func (p *Port) Poll() (Frame, bool) { return p.rx.Pop() }

// Pending reports whether a received frame waits to be polled.
func (p *Port) Pending() bool { return p.rx.Len() > 0 }
