package netstack

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/fifo"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// Device is the poll-mode NIC surface the stack drives: transmit a
// frame, poll a receive queue, know its own MAC. *nic.Device satisfies
// it, and so does *nic.QueueGroup — a multi-tenant stack binds to its
// tenant's slice of a shared NIC exactly as a single-tenant stack binds
// to a whole device, with no branch anywhere on the data path.
type Device interface {
	MAC() fabric.MAC
	Tx(data []byte, cost simclock.Lat)
	TxFrame(f fabric.Frame)
	AppendRxBurst(dst []fabric.Frame, queue, max int) []fabric.Frame
	// RxPending reports, without taking a lock, whether a burst of queue
	// could find a frame now.
	RxPending(queue int) bool
	// Offloads reports whether the device computes and checks the IPv4
	// and L4 checksums and cuts TCP segments (TxTSO) itself. The stack
	// then also chains what it receives (ingestLocked).
	Offloads() bool
	// TxTSO transmits one TCP segment of any length as MSS frames, and
	// returns how many of them the frame pool refused a buffer.
	TxTSO(t *nic.TSO) int
}

// Config describes one stack instance.
type Config struct {
	// IP is the stack's address on the fabric's single L2 segment.
	IP IPv4Addr
	// MSS is the maximum TCP segment payload (default 1400).
	MSS int
	// RxWindow is the TCP receive buffer per connection (default 64 KiB).
	RxWindow int
	// RTO is the initial TCP retransmission timeout (default 20 ms;
	// short because the simulated fabric has microsecond delays).
	RTO time.Duration
	// MaxRetransmits caps how many consecutive times one segment (or
	// SYN) is retransmitted before the connection gives up with
	// ErrMaxRetransmits (default 8). Without the cap, a partitioned
	// peer keeps the connection retrying forever — the silent hang a
	// kernel-bypass stack must not have, because nobody below it will
	// time the peer out (§2: failure handling is the library's job).
	MaxRetransmits int
	// PerPacketExtra is an additional per-packet processing cost. A
	// plain Demikernel libOS leaves it zero; the mTCP-style
	// POSIX-preserving configuration (§6) charges the POSIX emulation
	// tax here.
	PerPacketExtra simclock.Lat
	// RxQueue is the NIC receive queue this stack polls (default 0).
	// A sharded libOS runs one stack per queue; RSS keeps each flow's
	// segments arriving on the queue whose stack owns the connection.
	RxQueue int
	// Pool supplies frame and staging buffers (default: the process-wide
	// fabric.DefaultFramePool). Sharded deployments pass a per-shard pool
	// so buffer recycling never crosses shard cache lines.
	Pool *fabric.FramePool
	// Neighbors, when non-nil, is a resolution table shared with sibling
	// shard stacks: learns are published to it and misses consult it
	// before falling back to an ARP request. See NeighborTable.
	Neighbors *NeighborTable
	// Clock is the node's clock, which the RTO timers read (nil: a fresh
	// wall clock). The spawn facade hands every node's stacks the node's
	// one clock, so skewing it models per-node clock skew: a fast-running
	// clock fires retransmission timers early, a slow one late — the
	// paper's point that protocol timekeeping now lives in the library,
	// where nothing keeps node clocks honest.
	Clock *simclock.Clock
}

// Stats counts stack events.
type Stats struct {
	FramesIn        int64
	ARPRequests     int64
	ARPReplies      int64
	TCPSegsSent     int64
	TCPSegsRcvd     int64
	Retransmits     int64
	FastRetransmits int64
	DupAcksRcvd     int64
	OutOfOrderSegs  int64
	BadChecksums    int64
	UDPSent         int64
	UDPRcvd         int64
	NoListener      int64
	RSTsSent        int64
	RSTsRcvd        int64
	// GiveUps counts connections terminated by the retransmission cap
	// or the connect timeout (dead-peer detections).
	GiveUps int64
	// TxQuotaDrops counts outgoing packets dropped because the frame
	// pool refused the allocation (tenant frame quota exhausted). TCP
	// recovers by retransmission; UDP senders simply lose the datagram —
	// quota exhaustion behaves like any other packet loss.
	TxQuotaDrops int64
	// RxQuotaDrops counts received UDP datagrams dropped because pooled
	// copy-out storage was refused by the quota.
	RxQuotaDrops int64
	// TCPDescsSent counts the TCP sends the stack handed its device: one a
	// segment, or on a device that cuts segments itself one a send burst,
	// however many frames (TCPSegsSent) it is cut into.
	TCPDescsSent int64
	// TCPChainsRcvd counts the runs of the TCP state machine over received
	// segments: one a segment, or on a device with offloads one a chain of
	// in-order data segments of one connection within a receive burst.
	TCPChainsRcvd int64
}

// Add returns the field-wise sum of two stats snapshots. The lifecycle
// layer uses it to keep conservation counters cumulative across a
// crash/restart: frames ingested by a dead stack incarnation still
// happened, and Cluster.Conservation must see them.
func (a Stats) Add(b Stats) Stats {
	return Stats{
		FramesIn:        a.FramesIn + b.FramesIn,
		ARPRequests:     a.ARPRequests + b.ARPRequests,
		ARPReplies:      a.ARPReplies + b.ARPReplies,
		TCPSegsSent:     a.TCPSegsSent + b.TCPSegsSent,
		TCPSegsRcvd:     a.TCPSegsRcvd + b.TCPSegsRcvd,
		Retransmits:     a.Retransmits + b.Retransmits,
		FastRetransmits: a.FastRetransmits + b.FastRetransmits,
		DupAcksRcvd:     a.DupAcksRcvd + b.DupAcksRcvd,
		OutOfOrderSegs:  a.OutOfOrderSegs + b.OutOfOrderSegs,
		BadChecksums:    a.BadChecksums + b.BadChecksums,
		UDPSent:         a.UDPSent + b.UDPSent,
		UDPRcvd:         a.UDPRcvd + b.UDPRcvd,
		NoListener:      a.NoListener + b.NoListener,
		RSTsSent:        a.RSTsSent + b.RSTsSent,
		RSTsRcvd:        a.RSTsRcvd + b.RSTsRcvd,
		GiveUps:         a.GiveUps + b.GiveUps,
		TxQuotaDrops:    a.TxQuotaDrops + b.TxQuotaDrops,
		RxQuotaDrops:    a.RxQuotaDrops + b.RxQuotaDrops,
		TCPDescsSent:    a.TCPDescsSent + b.TCPDescsSent,
		TCPChainsRcvd:   a.TCPChainsRcvd + b.TCPChainsRcvd,
	}
}

// Errors returned by the stack.
var (
	ErrPortInUse      = errors.New("netstack: port in use")
	ErrConnClosed     = errors.New("netstack: connection closed")
	ErrBufferFull     = errors.New("netstack: send buffer full")
	ErrNotEstablished = errors.New("netstack: not established")
	// ErrMaxRetransmits is the terminal error of an established
	// connection whose peer stopped acknowledging: the retransmission
	// cap was exhausted (dead-peer detection).
	ErrMaxRetransmits = errors.New("netstack: peer unresponsive (max retransmits exceeded)")
	// ErrConnectTimeout is the terminal error of a connection attempt
	// whose SYN (or SYN|ACK) was never answered within the retransmit
	// budget.
	ErrConnectTimeout = errors.New("netstack: connection establishment timed out")
)

type connKey struct {
	localPort  uint16
	remoteIP   IPv4Addr
	remotePort uint16
}

type pendingPkt struct {
	etherType uint16
	payload   []byte
	cost      simclock.Lat
}

// Stack is one user-level TCP/IP instance bound to a simulated NIC.
// All methods are safe for concurrent use, each taking the stack's lock
// (Mutex) but for the few documented as called with it held; the data
// path is driven by Poll, which the owning libOS pumps from its wait loop.
type Stack struct {
	model *simclock.CostModel
	dev   Device
	cfg   Config

	pool *fabric.FramePool // cfg.Pool or fabric.DefaultFramePool

	// mu is the stack's lock: its own, or a libOS shard's (NewWithLock).
	mu         *sync.Mutex
	arp        map[IPv4Addr]fabric.MAC // private cache; misses consult cfg.Neighbors
	arpPending map[IPv4Addr][]pendingPkt
	conns      map[connKey]*TCPConn
	listeners  map[uint16]*TCPListener
	udp        map[uint16]*UDPSock
	ipID       uint16
	nextPort   uint16
	issCounter uint32
	clock      *simclock.Clock // the timer clock, read in Unix nanoseconds
	// clockRead is the clock as the timers read it in the current shared
	// stretch of this hold of mu (0: not yet), clockShares how many such
	// stretches are open; both are zero whenever mu is free (timer.go).
	clockRead   int64
	clockShares int
	stats       Stats

	// rxBatch is the receive burst buffer handed to nic.AppendRxBurst,
	// guarded by mu and reused across calls so the steady-state data path
	// does not allocate.
	rxBatch []fabric.Frame

	// offloads is the device's Offloads; tso the descriptor every
	// segmentation-offload send reuses, and chain the receive burst's open
	// chain (ingest.go).
	offloads bool
	tso      nic.TSO
	chain    rxChain

	// The work lists that keep a poll's cost off the connection count:
	// timers is the deadline heap of armed connections (timer.go), armSeq
	// the arm counter that breaks its ties, readyQueue the owned
	// sockets that became readable since the last PollReady, and
	// ackQueue the connections that accepted in-order data and may still
	// owe its acknowledgement, each once (see flushAcksLocked). pollSeq
	// numbers the calls of pollLocked, which is how long an ACK is held.
	timers     []timerEntry
	armSeq     uint32
	readyQueue []*readiness
	ackQueue   []*TCPConn
	pollSeq    uint32
}

// New creates a stack for dev with the given configuration, and a lock of
// its own.
func New(model *simclock.CostModel, dev Device, cfg Config) *Stack {
	return NewWithLock(model, dev, cfg, new(sync.Mutex))
}

// NewWithLock is New for a stack whose lock is mu: the one lock of a libOS
// shard, which outlives the stack — a restarted shard gets a fresh stack on
// the same lock — and which the libOS holds across its own calls into it.
func NewWithLock(model *simclock.CostModel, dev Device, cfg Config, mu *sync.Mutex) *Stack {
	if cfg.MSS <= 0 {
		cfg.MSS = 1400
	}
	if cfg.RxWindow <= 0 {
		cfg.RxWindow = 64 * 1024
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 20 * time.Millisecond
	}
	if cfg.MaxRetransmits <= 0 {
		cfg.MaxRetransmits = 8
	}
	pool := cfg.Pool
	if pool == nil {
		pool = fabric.DefaultFramePool
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.NewClock()
	}
	return &Stack{
		model:      model,
		dev:        dev,
		cfg:        cfg,
		pool:       pool,
		mu:         mu,
		arp:        make(map[IPv4Addr]fabric.MAC),
		arpPending: make(map[IPv4Addr][]pendingPkt),
		conns:      make(map[connKey]*TCPConn),
		listeners:  make(map[uint16]*TCPListener),
		udp:        make(map[uint16]*UDPSock),
		nextPort:   49152,
		clock:      clock,
		offloads:   dev.Offloads(),
	}
}

// IP returns the stack's address.
func (s *Stack) IP() IPv4Addr { return s.cfg.IP }

// Mutex returns the stack's lock (see NewWithLock).
func (s *Stack) Mutex() *sync.Mutex { return s.mu }

// Shutdown terminates the whole stack instantly, as a process crash
// would: every connection (including handshakes parked in a listener
// backlog) becomes terminal with cause, every stashed out-of-order
// pooled buffer is released, every listener unbound, every queued UDP
// datagram recycled, and every send parked behind ARP resolution
// discarded. Nothing is transmitted — a crashed libOS sends no FIN, no
// RST; the *peer's* retransmission budget is what detects the death
// (§3: the state needed for orderly teardown died with the process, so
// the simulation must reproduce the messy version).
//
// Shutdown is idempotent. The stack stays usable only as a tombstone:
// the owning transport replaces it on Restart.
func (s *Stack) Shutdown(cause error) {
	if cause == nil {
		cause = ErrConnClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.abortLocked(cause)
	}
	s.flushAcksLocked() // nothing is sent for a closed connection: this empties the list
	for port, l := range s.listeners {
		l.closed = true
		l.backlog = fifo.Queue[*TCPConn]{} // backlog conns were terminated via s.conns above
		l.pending.Store(0)
		delete(s.listeners, port)
	}
	for _, u := range s.udp {
		u.closeLocked()
	}
	// Sends parked behind ARP are heap-backed copies; just drop them.
	for ip := range s.arpPending {
		delete(s.arpPending, ip)
	}
}

// AnnounceARP broadcasts a gratuitous ARP (an unsolicited reply naming
// ourselves), refreshing every peer's cache after a restart so the
// reborn stack is reachable without waiting for a request. Real stacks
// do exactly this on address (re)configuration.
func (s *Stack) AnnounceARP() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ARPReplies++
	ann := arpPacket{
		op:       arpOpReply,
		senderHW: s.dev.MAC(),
		senderIP: s.cfg.IP,
		targetHW: fabric.Broadcast,
		targetIP: s.cfg.IP,
	}
	frame := appendEth(nil, fabric.Broadcast, s.dev.MAC(), etherTypeARP)
	frame = ann.marshal(frame)
	s.dev.Tx(frame, 0)
}

// Stats returns a snapshot of the stack's counters.
func (s *Stack) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RegisterTelemetry lifts the stack's counters into a telemetry registry
// under prefix (e.g. "netstack"). Sample funcs snapshot Stats() at read
// time, so registration adds nothing to the data path.
func (s *Stack) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	RegisterStatsTelemetry(r, prefix, s.Stats)
}

// RegisterStatsTelemetry registers the standard netstack counter names
// against an arbitrary stats source. A lifecycle-aware libOS passes a
// source that sums the live stack with its dead predecessors, so
// counters survive a crash/restart instead of resetting.
func RegisterStatsTelemetry(r *telemetry.Registry, prefix string, src func() Stats) {
	stat := func(read func(Stats) int64) func() int64 {
		return func() int64 { return read(src()) }
	}
	r.RegisterFunc(prefix+".frames_in", stat(func(st Stats) int64 { return st.FramesIn }))
	r.RegisterFunc(prefix+".arp_requests", stat(func(st Stats) int64 { return st.ARPRequests }))
	r.RegisterFunc(prefix+".arp_replies", stat(func(st Stats) int64 { return st.ARPReplies }))
	r.RegisterFunc(prefix+".tcp_segs_sent", stat(func(st Stats) int64 { return st.TCPSegsSent }))
	r.RegisterFunc(prefix+".tcp_segs_rcvd", stat(func(st Stats) int64 { return st.TCPSegsRcvd }))
	r.RegisterFunc(prefix+".retransmits", stat(func(st Stats) int64 { return st.Retransmits }))
	r.RegisterFunc(prefix+".fast_retransmits", stat(func(st Stats) int64 { return st.FastRetransmits }))
	r.RegisterFunc(prefix+".dup_acks_rcvd", stat(func(st Stats) int64 { return st.DupAcksRcvd }))
	r.RegisterFunc(prefix+".out_of_order_segs", stat(func(st Stats) int64 { return st.OutOfOrderSegs }))
	r.RegisterFunc(prefix+".bad_checksums", stat(func(st Stats) int64 { return st.BadChecksums }))
	r.RegisterFunc(prefix+".udp_sent", stat(func(st Stats) int64 { return st.UDPSent }))
	r.RegisterFunc(prefix+".udp_rcvd", stat(func(st Stats) int64 { return st.UDPRcvd }))
	r.RegisterFunc(prefix+".no_listener", stat(func(st Stats) int64 { return st.NoListener }))
	r.RegisterFunc(prefix+".rsts_sent", stat(func(st Stats) int64 { return st.RSTsSent }))
	r.RegisterFunc(prefix+".rsts_rcvd", stat(func(st Stats) int64 { return st.RSTsRcvd }))
	r.RegisterFunc(prefix+".give_ups", stat(func(st Stats) int64 { return st.GiveUps }))
	r.RegisterFunc(prefix+".tx_quota_drops", stat(func(st Stats) int64 { return st.TxQuotaDrops }))
	r.RegisterFunc(prefix+".rx_quota_drops", stat(func(st Stats) int64 { return st.RxQuotaDrops }))
	r.RegisterFunc(prefix+".tcp_descs_sent", stat(func(st Stats) int64 { return st.TCPDescsSent }))
	r.RegisterFunc(prefix+".tcp_chains_rcvd", stat(func(st Stats) int64 { return st.TCPChainsRcvd }))
}

// Poll pumps the data path once: it drains received frames from the NIC,
// advances protocol state machines, fires retransmission timers, and
// transmits whatever became ready. It returns the number of frames
// processed, so callers can back off when idle.
func (s *Stack) Poll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pollLocked()
}

// PollReady is Poll for a caller that consumes sockets through their
// owners (Hold.SetOwner, OpenUDPHeld), and holds the stack's lock
// (Mutex) across the call: besides the frame count it returns dst with the
// owner appended of every socket that a segment (or a partial read) has
// left readable — data, FIN or a terminal error on a connection, a datagram
// on a UDP socket — since the previous call, in the order that happened. A
// socket is reported once per call however much arrived, and not again
// until something more does: the owner reads until it runs dry, or comes
// back for the rest unprompted.
func (s *Stack) PollReady(dst []any) (int, []any) {
	return s.pollLocked(), s.takeReadyLocked(dst)
}

// readiness is what PollReady needs of a socket, TCP or UDP: owner consumes
// its receive side, and queued is set while it is on the ready queue.
type readiness struct {
	owner  any
	queued bool
}

// queueReadyLocked puts a readable socket on the ready queue for its owner,
// unless it has none or is there already.
func (s *Stack) queueReadyLocked(r *readiness) {
	if r.owner != nil && !r.queued {
		r.queued = true
		s.readyQueue = append(s.readyQueue, r)
	}
}

// takeReadyLocked empties the ready queue, appending the owners to dst.
func (s *Stack) takeReadyLocked(dst []any) []any {
	for i, r := range s.readyQueue {
		r.queued = false
		if r.owner != nil {
			dst = append(dst, r.owner)
		}
		s.readyQueue[i] = nil
	}
	s.readyQueue = s.readyQueue[:0]
	return dst
}

// WorkQueued reports the sizes of the stack's work lists: heap entries of
// armed (or not yet lazily dropped) timers, readable connections not yet
// handed to PollReady, and connections whose acknowledgement is held (or
// not yet lazily dropped). All are zero on a stack at rest.
func (s *Stack) WorkQueued() (timers, ready, acks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timers), len(s.readyQueue), len(s.ackQueue)
}

// rxBurstMax is the most frames a poll asks the device for at once.
const rxBurstMax = 64

func (s *Stack) pollLocked() int {
	n := 0
	s.pollSeq++
	s.shareClockLocked()
	defer s.unshareClockLocked()
	// Sharded mode: resolutions learned by the ARP-owning sibling shard
	// land in the shared table; flush any sends parked behind them. This
	// is a miss-path check — arpPending is empty in steady state.
	if s.cfg.Neighbors != nil && len(s.arpPending) > 0 {
		for ip := range s.arpPending {
			if mac, ok := s.cfg.Neighbors.Lookup(ip); ok {
				s.arp[ip] = mac
				s.flushARPPendingLocked(ip)
			}
		}
	}
	for {
		// One burst per pass, appended into the reused scratch slice, so
		// the steady-state loop allocates nothing.
		s.rxBatch = s.dev.AppendRxBurst(s.rxBatch[:0], s.cfg.RxQueue, rxBurstMax)
		s.ingestLocked(s.rxBatch)
		n += len(s.rxBatch)
		s.flushAcksLocked()
		// The poll ends at an empty burst, or at a short one — it emptied
		// the queue — unless a frame came while the pass ran: another
		// host's, or one the pass's own sends brought back (a reordering
		// switch releases the frame it held when the next one comes).
		if len(s.rxBatch) == 0 || len(s.rxBatch) < rxBurstMax && !s.dev.RxPending(s.cfg.RxQueue) {
			break
		}
	}
	s.tickTimersLocked()
	return n
}

// flushAcksLocked ends a receive burst. A connection that owes an
// acknowledgement sends it now, as one cumulative ACK carrying the window
// as it stands, in two cases: it has accepted two full-sized segments'
// worth since the last segment it sent, so a bulk sender's ACK clock runs
// per burst (RFC 1122 4.2.3.2, RFC 5681 4.2); or it was marked in an
// earlier poll and nothing it sent since carried the acknowledgement.
// Otherwise the ACK is held: a reply pushed before the next poll carries
// it, and the next poll's first burst end sends it if none was. The bound
// is a poll, never a clock. Connections that owe nothing any more (they
// sent a segment, or closed) leave the list here.
func (s *Stack) flushAcksLocked() {
	kept := s.ackQueue[:0]
	for _, c := range s.ackQueue {
		if c.ackPending && c.state != stateClosed {
			if c.ackSince == s.pollSeq && int(c.rcvNxt-c.ackedTo) < 2*s.cfg.MSS {
				kept = append(kept, c)
				continue
			}
			c.sendAckLocked()
		}
		c.ackQueued = false
	}
	clear(s.ackQueue[len(kept):])
	s.ackQueue = kept
}

func (s *Stack) handleFrameLocked(f fabric.Frame) {
	s.stats.FramesIn++
	if len(f.Data) < ethHdrLen {
		return
	}
	f.Cost += s.model.UserNetStackNS + s.cfg.PerPacketExtra
	etherType := uint16(f.Data[12])<<8 | uint16(f.Data[13])
	body := f.Data[ethHdrLen:]
	switch etherType {
	case etherTypeARP:
		s.handleARPLocked(body)
	case etherTypeIPv4:
		csum := f.Csum()
		if csum == fabric.CsumPending {
			// Offloaded by its sender, unchecked by this device: the frame
			// leaves the offload domain here.
			fillSums(f.Data, f.Flip())
			csum = fabric.CsumNone
		}
		s.handleIPv4Locked(body, csum, f.Cost)
	}
}

// --- ARP ---

func (s *Stack) handleARPLocked(b []byte) {
	p, ok := parseARP(b)
	if !ok {
		return
	}
	// Learn the sender in all cases (gratuitous/learning behaviour), and
	// publish to the shared shard table when one is attached — sibling
	// shards never see ARP frames (the filter steers them here).
	s.arp[p.senderIP] = p.senderHW
	if s.cfg.Neighbors != nil {
		s.cfg.Neighbors.Learn(p.senderIP, p.senderHW)
	}
	s.flushARPPendingLocked(p.senderIP)
	switch p.op {
	case arpOpRequest:
		if p.targetIP != s.cfg.IP {
			return
		}
		s.stats.ARPReplies++
		reply := arpPacket{
			op:       arpOpReply,
			senderHW: s.dev.MAC(),
			senderIP: s.cfg.IP,
			targetHW: p.senderHW,
			targetIP: p.senderIP,
		}
		frame := appendEth(nil, p.senderHW, s.dev.MAC(), etherTypeARP)
		frame = reply.marshal(frame)
		s.dev.Tx(frame, 0)
	case arpOpReply:
		// Learning already done above.
	}
}

func (s *Stack) flushARPPendingLocked(ip IPv4Addr) {
	pend := s.arpPending[ip]
	if len(pend) == 0 {
		return
	}
	delete(s.arpPending, ip)
	mac := s.arp[ip]
	for _, p := range pend {
		frame := appendEth(nil, mac, s.dev.MAC(), p.etherType)
		frame = append(frame, p.payload...)
		s.dev.Tx(frame, p.cost)
	}
}

// ipv4Tx is an outgoing IPv4 packet between openIPv4Locked, which wrote
// its headers, and sendIPv4Locked, which transmits it; in between the
// caller marshals the transport header and payload into l4 in place, so
// payload bytes go from their queue to the wire frame in one copy.
type ipv4Tx struct {
	dst IPv4Addr
	// fb is the pooled wire frame, nil while dst's MAC is unresolved.
	fb *fabric.FrameBuf
	// csum is CsumPending when the device computes the checksums: the
	// headers are written without them.
	csum fabric.Csum
	// pkt is Ethernet+IPv4+L4 inside fb, or a heap-backed IPv4+L4 packet
	// to park behind ARP resolution when fb is nil.
	pkt []byte
	// l4 is the empty, exactly-sized tail of pkt the transport appends to.
	l4 []byte
}

// openIPv4Locked starts an IPv4 packet of l4Len transport bytes to dstIP,
// resolving the MAC from the ARP cache. ok is false when the packet was
// dropped for want of a frame buffer.
func (s *Stack) openIPv4Locked(dstIP IPv4Addr, proto uint8, l4Len int) (ipv4Tx, bool) {
	s.ipID++
	h := ipv4Header{
		totalLen: uint16(ipv4HdrLen + l4Len),
		id:       s.ipID,
		ttl:      64,
		proto:    proto,
		src:      s.cfg.IP,
		dst:      dstIP,
	}
	tx := ipv4Tx{dst: dstIP}

	mac, resolved := s.resolveLocked(dstIP)
	if !resolved {
		// Slow path: a heap-backed packet, queued behind ARP resolution.
		tx.pkt = h.marshal(make([]byte, 0, ipv4HdrLen+l4Len))
	} else {
		// Fast path: assemble Ethernet+IPv4+L4 directly into one pooled
		// frame buffer. Ownership of the buffer rides the Frame through
		// NIC, fabric, and the receiving stack.
		tx.fb = s.pool.Get(ethHdrLen + ipv4HdrLen + l4Len)
		if tx.fb == nil {
			// Frame quota exhausted: the packet is dropped here, exactly
			// where a real NIC driver fails a descriptor allocation. TCP's
			// retransmission machinery turns this into backpressure on the
			// over-quota tenant; nothing blocks, nothing panics.
			s.stats.TxQuotaDrops++
			return tx, false
		}
		tx.pkt = appendEth(tx.fb.Bytes()[:0], mac, s.dev.MAC(), etherTypeIPv4)
		if s.offloads {
			tx.csum = fabric.CsumPending
			tx.pkt = h.appendTo(tx.pkt)
		} else {
			tx.pkt = h.marshal(tx.pkt)
		}
	}
	hdrs := len(tx.pkt)
	tx.pkt = tx.pkt[:hdrs+l4Len]
	tx.l4 = tx.pkt[hdrs:hdrs:len(tx.pkt)]
	return tx, true
}

// resolveLocked looks dstIP's MAC up in the ARP cache, and on a miss in
// the shared neighbor table, if there is one.
func (s *Stack) resolveLocked(dstIP IPv4Addr) (fabric.MAC, bool) {
	mac, resolved := s.arp[dstIP]
	if !resolved && s.cfg.Neighbors != nil {
		// Shared-table miss path: a sibling shard may have resolved it.
		if mac, resolved = s.cfg.Neighbors.Lookup(dstIP); resolved {
			s.arp[dstIP] = mac // cache privately; next send skips the table
		}
	}
	return mac, resolved
}

// sendIPv4Locked transmits a packet whose l4 region the caller has
// filled, or parks it and asks for the destination's MAC.
func (s *Stack) sendIPv4Locked(tx ipv4Tx, cost simclock.Lat) {
	if tx.fb != nil {
		f := fabric.Frame{Data: tx.pkt, Cost: cost, Buf: tx.fb}
		f.SetCsum(tx.csum)
		s.dev.TxFrame(f)
		return
	}
	s.arpPending[tx.dst] = append(s.arpPending[tx.dst], pendingPkt{etherTypeIPv4, tx.pkt, cost})
	s.stats.ARPRequests++
	req := arpPacket{
		op:       arpOpRequest,
		senderHW: s.dev.MAC(),
		senderIP: s.cfg.IP,
		targetIP: tx.dst,
	}
	frame := appendEth(nil, fabric.Broadcast, s.dev.MAC(), etherTypeARP)
	frame = req.marshal(frame)
	s.dev.Tx(frame, 0)
}

// --- IPv4 demux ---

func (s *Stack) handleIPv4Locked(b []byte, csum fabric.Csum, cost simclock.Lat) {
	h, body, ok := parseIPv4(b, csum)
	if !ok {
		s.stats.BadChecksums++
		return
	}
	if h.dst != s.cfg.IP {
		return
	}
	switch h.proto {
	case protoTCP:
		s.handleTCPLocked(h, body, csum, cost)
	case protoUDP:
		s.handleUDPLocked(h, body, csum, cost)
	}
}

// --- UDP ---

// Datagram is one received UDP datagram. Payload may be backed by pooled
// storage; the consumer calls Free once done with it (Free is a no-op on
// heap-backed datagrams, so forgetting it degrades to garbage, never to
// corruption).
type Datagram struct {
	SrcIP   IPv4Addr
	SrcPort uint16
	Payload []byte
	Cost    simclock.Lat

	buf *fabric.FrameBuf
}

// Free recycles the datagram's pooled payload storage. Payload must not
// be touched afterwards. Safe to call on the zero Datagram and safe to
// call twice on the same value.
func (d *Datagram) Free() {
	if d.buf != nil {
		b := d.buf
		d.buf = nil
		d.Payload = nil
		b.Release()
	}
}

// UDPSock is a bound UDP socket.
type UDPSock struct {
	stack *Stack
	port  uint16
	rx    []Datagram
	max   int
	// The socket joins stack.readyQueue when a datagram lands.
	readiness
}

// OpenUDPHeld binds a UDP socket to port (0: an ephemeral one), with the
// stack's lock (Mutex) held; PollReady reports owner when a datagram lands.
func (s *Stack) OpenUDPHeld(port uint16, owner any) (*UDPSock, error) {
	if port == 0 {
		port = s.ephemeralLocked()
	}
	if _, used := s.udp[port]; used {
		return nil, fmt.Errorf("%w: udp %d", ErrPortInUse, port)
	}
	u := &UDPSock{stack: s, port: port, max: 1024, readiness: readiness{owner: owner}}
	s.udp[port] = u
	return u, nil
}

func (s *Stack) ephemeralLocked() uint16 {
	for {
		s.nextPort++
		if s.nextPort < 49152 {
			s.nextPort = 49152
		}
		p := s.nextPort
		_, tcpUsed := s.listeners[p]
		_, udpUsed := s.udp[p]
		if !tcpUsed && !udpUsed {
			return p
		}
	}
}

func (s *Stack) handleUDPLocked(h ipv4Header, body []byte, csum fabric.Csum, cost simclock.Lat) {
	u, ok := parseUDP(body, h.src, h.dst, csum)
	if !ok {
		s.stats.BadChecksums++
		return
	}
	sock, ok := s.udp[u.dstPort]
	if !ok {
		s.stats.NoListener++
		return
	}
	s.stats.UDPRcvd++
	if len(sock.rx) >= sock.max {
		return // receive queue overflow: drop, as UDP does
	}
	// Copy out of the wire frame into pooled storage: the frame recycles
	// as soon as Poll finishes the burst, the datagram lives until its
	// consumer calls Free.
	fb := s.pool.Get(len(u.payload))
	if fb == nil {
		// Quota exhausted: the datagram is lost, as UDP permits. The
		// tenant hoarding its own pool starves itself, not the wire.
		s.stats.RxQuotaDrops++
		return
	}
	copy(fb.Bytes(), u.payload)
	sock.rx = append(sock.rx, Datagram{
		SrcIP: h.src, SrcPort: u.srcPort,
		Payload: fb.Bytes(), Cost: cost, buf: fb,
	})
	s.queueReadyLocked(&sock.readiness)
}

// SendTo transmits one datagram. cost is the virtual latency already
// accumulated by the caller (application compute, libOS work).
func (u *UDPSock) SendTo(ip IPv4Addr, port uint16, payload []byte, cost simclock.Lat) {
	s := u.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.UDPSent++
	d := udpDatagram{srcPort: u.port, dstPort: port, payload: payload}
	if tx, ok := s.openIPv4Locked(ip, protoUDP, udpHdrLen+len(payload)); ok {
		if tx.csum == fabric.CsumPending {
			d.appendTo(tx.l4)
		} else {
			d.marshal(tx.l4, s.cfg.IP, ip)
		}
		s.sendIPv4Locked(tx, cost+s.model.UserNetStackNS+s.cfg.PerPacketExtra)
	}
}

// RecvHeld pops one received datagram without blocking, for a caller that
// holds the stack's lock (Mutex).
func (u *UDPSock) RecvHeld() (Datagram, bool) {
	if len(u.rx) == 0 {
		return Datagram{}, false
	}
	d := u.rx[0]
	u.rx = u.rx[1:]
	return d, true
}

// Close unbinds the socket, recycles its datagrams and drops its owner.
func (u *UDPSock) Close() {
	u.stack.mu.Lock()
	defer u.stack.mu.Unlock()
	u.closeLocked()
}

func (u *UDPSock) closeLocked() {
	for i := range u.rx {
		u.rx[i].Free()
	}
	u.rx = nil
	u.owner = nil
	delete(u.stack.udp, u.port)
}
