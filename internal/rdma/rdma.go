// Package rdma simulates an RDMA-capable kernel-bypass NIC (Table 1,
// middle column of the paper): protection domains, registered memory
// regions with local/remote keys, reliable-connected queue pairs, two-sided
// SEND/RECV with receiver-posted buffers, one-sided READ/WRITE, completion
// queues, and a connection manager in the style of rdmacm.
//
// The simulation keeps the two properties the paper leans on:
//
//   - Memory must be registered before any verb can touch it, and
//     registration is expensive (charged per region from the cost model).
//     The Demikernel libOS hides this behind its own pools (§4.5):
//     catmint registers whole arenas, not buffers.
//
//   - "Receivers must allocate enough buffers of the right size for
//     senders. Allocating too many buffers wastes memory while allocating
//     too few causes communication to fail." A SEND arriving at a queue
//     pair with no posted receive fails with an RNR (receiver-not-ready)
//     completion; a too-small posted buffer fails with a length error.
//
// Like RoCE, the simulated transport assumes a lossless fabric: a lost or
// reordered frame moves the queue pair to an error state instead of being
// recovered. Run it over an unimpaired fabric switch.
package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// Errors returned by verb calls.
var (
	ErrNotRegistered = errors.New("rdma: buffer outside registered region")
	ErrQPState       = errors.New("rdma: queue pair not ready")
	ErrPortInUse     = errors.New("rdma: listen port in use")
	ErrBadBounds     = errors.New("rdma: sge out of MR bounds")
)

// WCStatus is the status of a work completion.
type WCStatus int

const (
	// StatusSuccess indicates the operation completed.
	StatusSuccess WCStatus = iota
	// StatusRNR indicates the remote had no posted receive buffer.
	StatusRNR
	// StatusLenErr indicates the posted receive buffer was too small.
	StatusLenErr
	// StatusRemoteAccess indicates an invalid rkey or out-of-bounds
	// remote access.
	StatusRemoteAccess
	// StatusQPError indicates the queue pair entered an error state
	// (sequence break: the lossless-fabric assumption was violated).
	StatusQPError
)

func (s WCStatus) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusRNR:
		return "receiver-not-ready"
	case StatusLenErr:
		return "recv-length-error"
	case StatusRemoteAccess:
		return "remote-access-error"
	case StatusQPError:
		return "qp-error"
	default:
		return "unknown"
	}
}

// Opcode identifies the verb behind a completion.
type Opcode int

// Verb opcodes.
const (
	OpSend Opcode = iota
	OpRecv
	OpWrite
	OpRead
)

// WC is a work completion.
type WC struct {
	WRID   uint64
	QPNum  uint32
	Op     Opcode
	Status WCStatus
	Len    int
	Cost   simclock.Lat
}

// CQ is a polled completion queue.
type CQ struct {
	dev     *Device
	entries []WC
}

// Poll removes and returns up to max completions.
func (cq *CQ) Poll(max int) []WC {
	d := cq.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(cq.entries)
	if max > 0 && n > max {
		n = max
	}
	out := make([]WC, n)
	copy(out, cq.entries)
	cq.entries = cq.entries[:copy(cq.entries, cq.entries[n:])]
	return out
}

func (cq *CQ) pushLocked(wc WC) {
	cq.entries = append(cq.entries, wc)
}

// PD is a protection domain grouping memory registrations and queue pairs.
type PD struct {
	dev *Device
	id  uint32
}

// MR is a registered memory region.
type MR struct {
	pd    *PD
	buf   []byte
	lkey  uint32
	rkey  uint32
	valid bool
}

// RKey returns the region's remote key, handed to peers for one-sided ops.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Len returns the registered length.
func (mr *MR) Len() int { return len(mr.buf) }

// Bytes exposes the registered memory (the application's own buffer).
func (mr *MR) Bytes() []byte { return mr.buf }

// Deregister invalidates the region.
func (mr *MR) Deregister() {
	d := mr.pd.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	mr.valid = false
	delete(d.mrs, mr.rkey)
	d.stats.Deregistrations++
	d.stats.PinnedBytes -= int64(len(mr.buf))
}

// Sge is a scatter-gather entry referencing registered memory, the unit
// verbs operate on.
type Sge struct {
	MR  *MR
	Off int
	Len int
}

func (s Sge) check() error {
	if s.MR == nil || !s.MR.valid {
		return ErrNotRegistered
	}
	if s.Off < 0 || s.Len < 0 || s.Off+s.Len > len(s.MR.buf) {
		return fmt.Errorf("%w: off=%d len=%d mr=%d", ErrBadBounds, s.Off, s.Len, len(s.MR.buf))
	}
	return nil
}

// Stats counts device events.
type Stats struct {
	Registrations   int64
	Deregistrations int64
	PinnedBytes     int64
	Sends           int64
	Recvs           int64
	Writes          int64
	Reads           int64
	RNRNaks         int64
	LenNaks         int64
	AccessNaks      int64
	QPErrors        int64
	// IcrcDrops counts inbound frames discarded because the invariant
	// CRC trailer did not match: corruption on the wire. The dropped
	// frame leaves a PSN gap, so the next frame moves the QP to the
	// error state — corruption is never silent.
	IcrcDrops int64
	// LiveQPs is queue pairs created and not yet destroyed.
	LiveQPs int64
}

// qpState is the queue-pair lifecycle.
type qpState int

const (
	qpConnecting qpState = iota
	qpReady
	qpError
)

type recvWR struct {
	wrID uint64
	sge  Sge
}

type pendingSend struct {
	wrID uint64
	op   Opcode
	sge  Sge // local target for READ
	n    int
}

// QP is a reliable-connected queue pair.
type QP struct {
	dev       *Device
	num       uint32
	pd        *PD
	sendCQ    *CQ
	recvCQ    *CQ
	state     qpState
	remoteMAC fabric.MAC
	remoteQPN uint32

	sendPSN  uint32
	recvPSN  uint32
	recvQ    []recvWR
	inflight map[uint32]pendingSend // psn -> send awaiting ack
}

// Connected reports whether the connection handshake has completed.
func (qp *QP) Connected() bool {
	qp.dev.mu.Lock()
	defer qp.dev.mu.Unlock()
	return qp.state == qpReady
}

// Destroy tears the queue pair down: every outstanding work request is
// flushed to its completion queue with StatusQPError, the QP number is
// released, and a connected peer is told (a disconnect), so that its
// queue pair errors and flushes too instead of holding its posted
// receives for a connection that is gone. A libOS calls it when it closes
// a connection or gives up on a broken one.
func (qp *QP) Destroy() {
	d := qp.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if qp.state != qpError {
		qp.state = qpError
		qp.flushLocked()
	}
	if _, live := d.qps[qp.num]; live && qp.remoteQPN != 0 {
		d.send(qp.remoteMAC, opDisconnect, qp.remoteQPN, nil, 0)
	}
	delete(d.qps, qp.num)
}

// flushLocked completes every outstanding work request with
// StatusQPError, mirroring how a real RC QP in the error state flushes
// its send and receive queues. Posted receives complete too, so a libOS
// waiting on pops learns about the failure instead of hanging.
func (qp *QP) flushLocked() {
	for psn, pend := range qp.inflight {
		delete(qp.inflight, psn)
		qp.sendCQ.pushLocked(WC{WRID: pend.wrID, QPNum: qp.num, Op: pend.op, Status: StatusQPError, Len: pend.n})
	}
	for _, wr := range qp.recvQ {
		qp.recvCQ.pushLocked(WC{WRID: wr.wrID, QPNum: qp.num, Op: OpRecv, Status: StatusQPError})
	}
	qp.recvQ = nil
}

// errorQPLocked moves qp to the error state and flushes its work queues.
func (d *Device) errorQPLocked(qp *QP) {
	if qp.state == qpError {
		return
	}
	qp.state = qpError
	d.stats.QPErrors++
	qp.flushLocked()
}

// Listener accepts queue-pair connections on a service port.
type Listener struct {
	dev     *Device
	port    uint16
	pd      *PD
	sendCQ  *CQ
	recvCQ  *CQ
	backlog []*QP
}

// Accept pops one connected queue pair, without blocking.
func (l *Listener) Accept() (*QP, bool) {
	d := l.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(l.backlog) == 0 {
		return nil, false
	}
	qp := l.backlog[0]
	l.backlog = l.backlog[1:]
	return qp, true
}

// Close unbinds the listener's port; queue pairs already accepted, or
// still in the backlog, are unaffected.
func (l *Listener) Close() {
	d := l.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.listeners[l.port] == l {
		delete(d.listeners, l.port)
	}
}

// Device is a simulated RDMA NIC attached to the fabric.
type Device struct {
	model *simclock.CostModel
	mac   fabric.MAC
	port  *fabric.Port
	// pollMu is held by the one Poll reading port.
	pollMu sync.Mutex

	mu        sync.Mutex
	nextPD    uint32
	nextKey   uint32
	nextQPN   uint32
	mrs       map[uint32]*MR // rkey -> MR
	qps       map[uint32]*QP
	listeners map[uint16]*Listener
	stats     Stats
}

// New attaches a new RDMA device to sw with the given MAC.
func New(model *simclock.CostModel, sw *fabric.Switch, mac fabric.MAC) *Device {
	return &Device{
		model:     model,
		mac:       mac,
		port:      sw.NewPort(8192),
		mrs:       make(map[uint32]*MR),
		qps:       make(map[uint32]*QP),
		listeners: make(map[uint16]*Listener),
	}
}

// MAC returns the device address.
func (d *Device) MAC() fabric.MAC { return d.mac }

// PortID returns the fabric port this device is attached to, the handle
// chaos schedules use to target the device's link.
func (d *Device) PortID() int { return d.port.ID() }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.LiveQPs = int64(len(d.qps))
	return s
}

// RegisterTelemetry lifts the device counters into a telemetry registry
// under prefix (e.g. "rnic"). Sample funcs snapshot Stats() at read time.
func (d *Device) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	stat := func(read func(Stats) int64) func() int64 {
		return func() int64 { return read(d.Stats()) }
	}
	r.RegisterFunc(prefix+".registrations", stat(func(s Stats) int64 { return s.Registrations }))
	r.RegisterFunc(prefix+".deregistrations", stat(func(s Stats) int64 { return s.Deregistrations }))
	r.RegisterFunc(prefix+".pinned_bytes", stat(func(s Stats) int64 { return s.PinnedBytes }))
	r.RegisterFunc(prefix+".sends", stat(func(s Stats) int64 { return s.Sends }))
	r.RegisterFunc(prefix+".recvs", stat(func(s Stats) int64 { return s.Recvs }))
	r.RegisterFunc(prefix+".writes", stat(func(s Stats) int64 { return s.Writes }))
	r.RegisterFunc(prefix+".reads", stat(func(s Stats) int64 { return s.Reads }))
	r.RegisterFunc(prefix+".rnr_naks", stat(func(s Stats) int64 { return s.RNRNaks }))
	r.RegisterFunc(prefix+".len_naks", stat(func(s Stats) int64 { return s.LenNaks }))
	r.RegisterFunc(prefix+".access_naks", stat(func(s Stats) int64 { return s.AccessNaks }))
	r.RegisterFunc(prefix+".qp_errors", stat(func(s Stats) int64 { return s.QPErrors }))
	r.RegisterFunc(prefix+".icrc_drops", stat(func(s Stats) int64 { return s.IcrcDrops }))
	r.RegisterFunc(prefix+".live_qps", stat(func(s Stats) int64 { return s.LiveQPs }))
}

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextPD++
	return &PD{dev: d, id: d.nextPD}
}

// CreateCQ creates a completion queue.
func (d *Device) CreateCQ() *CQ { return &CQ{dev: d} }

// RegisterMemory registers buf for DMA within the protection domain.
// It charges the full control-path registration cost — the cost the
// Demikernel memory manager amortises over whole regions.
func (pd *PD) RegisterMemory(buf []byte) *MR {
	d := pd.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextKey++
	mr := &MR{pd: pd, buf: buf, lkey: d.nextKey, rkey: d.nextKey | 0x8000_0000, valid: true}
	d.mrs[mr.rkey] = mr
	d.stats.Registrations++
	d.stats.PinnedBytes += int64(len(buf))
	return mr
}

// Listen binds a service port; accepted queue pairs use the given PD and
// completion queues.
func (d *Device) Listen(port uint16, pd *PD, sendCQ, recvCQ *CQ) (*Listener, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, used := d.listeners[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{dev: d, port: port, pd: pd, sendCQ: sendCQ, recvCQ: recvCQ}
	d.listeners[port] = l
	return l, nil
}

// NewQP creates an unconnected queue pair. Receives posted on it before
// Connect are in place before the peer can possibly send, so the peer's
// first message never meets an empty receive queue (RNR).
func (d *Device) NewQP(pd *PD, sendCQ, recvCQ *CQ) *QP {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.newQPLocked(pd, sendCQ, recvCQ)
}

// Connect starts a reliable-connected handshake with the listener at
// remoteMAC:port. Poll the device until qp is Connected.
func (qp *QP) Connect(remoteMAC fabric.MAC, port uint16) {
	d := qp.dev
	d.mu.Lock()
	qp.remoteMAC = remoteMAC
	d.mu.Unlock()

	var payload []byte
	payload = binary.BigEndian.AppendUint16(payload, port)
	payload = binary.BigEndian.AppendUint32(payload, qp.num)
	d.send(remoteMAC, opConnReq, 0, payload, 0)
}

func (d *Device) newQPLocked(pd *PD, sendCQ, recvCQ *CQ) *QP {
	d.nextQPN++
	qp := &QP{
		dev:      d,
		num:      d.nextQPN,
		pd:       pd,
		sendCQ:   sendCQ,
		recvCQ:   recvCQ,
		state:    qpConnecting,
		inflight: make(map[uint32]pendingSend),
	}
	d.qps[qp.num] = qp
	return qp
}

// PostRecv posts one receive buffer. Each SEND consumes exactly one. A
// receive posted to a queue pair in the error state flushes at once, as
// the ones posted before the error did.
func (qp *QP) PostRecv(wrID uint64, sge Sge) error {
	if err := sge.check(); err != nil {
		return err
	}
	d := qp.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if qp.state == qpError {
		qp.recvCQ.pushLocked(WC{WRID: wrID, QPNum: qp.num, Op: OpRecv, Status: StatusQPError})
		return nil
	}
	qp.recvQ = append(qp.recvQ, recvWR{wrID: wrID, sge: sge})
	return nil
}

// PostSend posts a two-sided SEND of the bytes in sge.
func (qp *QP) PostSend(wrID uint64, sge Sge) error {
	if err := sge.check(); err != nil {
		return err
	}
	d := qp.dev
	d.mu.Lock()
	if qp.state != qpReady {
		d.mu.Unlock()
		return ErrQPState
	}
	psn := qp.sendPSN
	qp.sendPSN++
	qp.inflight[psn] = pendingSend{wrID: wrID, op: OpSend, n: sge.Len}
	d.stats.Sends++
	remoteMAC, remoteQPN := qp.remoteMAC, qp.remoteQPN
	d.mu.Unlock()

	cost := d.model.RDMAOpNS + d.model.DMACost(sge.Len)
	payload := binary.BigEndian.AppendUint32(nil, psn)
	payload = append(payload, sge.MR.buf[sge.Off:sge.Off+sge.Len]...)
	d.send(remoteMAC, opSend, remoteQPN, payload, cost)
	return nil
}

// PostWrite posts a one-sided RDMA WRITE into (rkey, roff) on the peer.
// The peer application is never involved ("silent" on the remote side).
func (qp *QP) PostWrite(wrID uint64, local Sge, rkey uint32, roff int) error {
	if err := local.check(); err != nil {
		return err
	}
	d := qp.dev
	d.mu.Lock()
	if qp.state != qpReady {
		d.mu.Unlock()
		return ErrQPState
	}
	psn := qp.sendPSN
	qp.sendPSN++
	qp.inflight[psn] = pendingSend{wrID: wrID, op: OpWrite, n: local.Len}
	d.stats.Writes++
	remoteMAC, remoteQPN := qp.remoteMAC, qp.remoteQPN
	d.mu.Unlock()

	cost := d.model.RDMAOpNS + d.model.DMACost(local.Len)
	payload := binary.BigEndian.AppendUint32(nil, psn)
	payload = binary.BigEndian.AppendUint32(payload, rkey)
	payload = binary.BigEndian.AppendUint64(payload, uint64(roff))
	payload = append(payload, local.MR.buf[local.Off:local.Off+local.Len]...)
	d.send(remoteMAC, opWrite, remoteQPN, payload, cost)
	return nil
}

// PostRead posts a one-sided RDMA READ of rlen bytes from (rkey, roff) on
// the peer into local.
func (qp *QP) PostRead(wrID uint64, local Sge, rkey uint32, roff, rlen int) error {
	if err := local.check(); err != nil {
		return err
	}
	if rlen > local.Len {
		return fmt.Errorf("%w: read %d into %d", ErrBadBounds, rlen, local.Len)
	}
	d := qp.dev
	d.mu.Lock()
	if qp.state != qpReady {
		d.mu.Unlock()
		return ErrQPState
	}
	psn := qp.sendPSN
	qp.sendPSN++
	qp.inflight[psn] = pendingSend{wrID: wrID, op: OpRead, sge: local, n: rlen}
	d.stats.Reads++
	remoteMAC, remoteQPN := qp.remoteMAC, qp.remoteQPN
	d.mu.Unlock()

	payload := binary.BigEndian.AppendUint32(nil, psn)
	payload = binary.BigEndian.AppendUint32(payload, rkey)
	payload = binary.BigEndian.AppendUint64(payload, uint64(roff))
	payload = binary.BigEndian.AppendUint32(payload, uint32(rlen))
	d.send(remoteMAC, opReadReq, remoteQPN, payload, d.model.RDMAOpNS)
	return nil
}
