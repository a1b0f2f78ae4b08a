package rdma

import (
	"encoding/binary"
	"hash/crc32"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

// etherTypeRDMA is the custom EtherType of the simulated RoCE-like
// transport.
const etherTypeRDMA = 0x88FF

// Wire opcodes.
const (
	opConnReq byte = iota + 1
	opConnResp
	opSend
	opWrite
	opReadReq
	opReadResp
	opAck
	opNak
	opDisconnect
)

// NAK reason codes on the wire.
const (
	nakRNR byte = iota + 1
	nakLen
	nakAccess
	nakQPErr
)

// send frames a transport message to mac. The header is:
// opcode(1) dstQPN(4), followed by an opcode-specific payload and a
// 4-byte invariant CRC trailer (RoCE's ICRC): the receiver discards any
// frame whose trailer does not match, so wire corruption surfaces as a
// PSN gap instead of silently corrupted application data.
func (d *Device) send(mac fabric.MAC, opcode byte, dstQPN uint32, payload []byte, cost simclock.Lat) {
	frame := make([]byte, 0, 14+5+len(payload)+4)
	frame = append(frame, mac[:]...)
	frame = append(frame, d.mac[:]...)
	frame = binary.BigEndian.AppendUint16(frame, etherTypeRDMA)
	frame = append(frame, opcode)
	frame = binary.BigEndian.AppendUint32(frame, dstQPN)
	frame = append(frame, payload...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	d.port.Send(fabric.Frame{Data: frame, Cost: cost + d.model.NICProcessNS})
}

// Poll processes incoming transport frames and returns how many it
// handled. Applications (or the libOS) pump it alongside their CQ polls.
// The fabric port has one reader at a time: a Poll that finds another
// under way returns 0 and leaves the frames, in order, to it.
func (d *Device) Poll() int {
	if !d.pollMu.TryLock() {
		return 0
	}
	defer d.pollMu.Unlock()
	n := 0
	for {
		f, ok := d.port.Poll()
		if !ok {
			return n
		}
		d.handleFrame(f)
		f.Release() // no-op for rdma's heap frames; keeps the ownership contract uniform
		n++
	}
}

func (d *Device) handleFrame(f fabric.Frame) {
	data := f.Data
	if len(data) < 19+4 {
		return
	}
	if binary.BigEndian.Uint16(data[12:14]) != etherTypeRDMA {
		return
	}
	// ICRC check: corrupted frames are dropped before any transport
	// processing. The resulting PSN gap errors the QP on the next valid
	// frame — exactly how a RoCE NIC reacts to a lossy fabric.
	crcOff := len(data) - 4
	if crc32.ChecksumIEEE(data[:crcOff]) != binary.BigEndian.Uint32(data[crcOff:]) {
		d.mu.Lock()
		d.stats.IcrcDrops++
		d.mu.Unlock()
		return
	}
	var srcMAC fabric.MAC
	copy(srcMAC[:], data[6:12])
	opcode := data[14]
	dstQPN := binary.BigEndian.Uint32(data[15:19])
	body := data[19:crcOff]
	cost := f.Cost + d.model.NICProcessNS

	d.mu.Lock()
	defer d.mu.Unlock()
	switch opcode {
	case opConnReq:
		d.handleConnReqLocked(srcMAC, body)
	case opConnResp:
		d.handleConnRespLocked(dstQPN, body)
	case opSend:
		d.handleSendLocked(srcMAC, dstQPN, body, cost)
	case opWrite:
		d.handleWriteLocked(srcMAC, dstQPN, body, cost)
	case opReadReq:
		d.handleReadReqLocked(srcMAC, dstQPN, body)
	case opReadResp:
		d.handleReadRespLocked(dstQPN, body, cost)
	case opAck:
		d.handleAckLocked(dstQPN, body, cost)
	case opNak:
		d.handleNakLocked(dstQPN, body, cost)
	case opDisconnect:
		d.handleDisconnectLocked(srcMAC, dstQPN)
	}
}

func (d *Device) handleConnReqLocked(srcMAC fabric.MAC, body []byte) {
	if len(body) < 6 {
		return
	}
	port := binary.BigEndian.Uint16(body[0:2])
	clientQPN := binary.BigEndian.Uint32(body[2:6])
	l, ok := d.listeners[port]
	if !ok {
		return
	}
	qp := d.newQPLocked(l.pd, l.sendCQ, l.recvCQ)
	qp.remoteMAC = srcMAC
	qp.remoteQPN = clientQPN
	qp.state = qpReady
	l.backlog = append(l.backlog, qp)

	resp := binary.BigEndian.AppendUint32(nil, qp.num)
	// Unlock-free send: d.send does not take d.mu.
	d.send(srcMAC, opConnResp, clientQPN, resp, 0)
}

// handleDisconnectLocked tears down the local end of a connection whose
// peer destroyed its queue pair, as rdma_cm's DREQ does: the queue pair
// moves to the error state and flushes, so its libOS learns the peer is
// gone and destroys it in turn. It owes the peer no disconnect back.
func (d *Device) handleDisconnectLocked(srcMAC fabric.MAC, dstQPN uint32) {
	qp, ok := d.qps[dstQPN]
	if !ok || qp.remoteMAC != srcMAC {
		return
	}
	qp.remoteQPN = 0
	if qp.state != qpError {
		qp.state = qpError
		qp.flushLocked()
	}
}

func (d *Device) handleConnRespLocked(dstQPN uint32, body []byte) {
	if len(body) < 4 {
		return
	}
	qp, ok := d.qps[dstQPN]
	if !ok || qp.state != qpConnecting {
		return
	}
	qp.remoteQPN = binary.BigEndian.Uint32(body[0:4])
	qp.state = qpReady
}

// checkPSNLocked enforces the lossless in-order assumption. On violation
// the QP enters the error state, as a RoCE RC QP would after exhausting
// retries.
func (d *Device) checkPSNLocked(qp *QP, srcMAC fabric.MAC, psn uint32) bool {
	if psn != qp.recvPSN {
		d.errorQPLocked(qp)
		d.send(srcMAC, opNak, qp.remoteQPN, nakPayload(psn, nakQPErr), 0)
		return false
	}
	qp.recvPSN++
	return true
}

func nakPayload(psn uint32, reason byte) []byte {
	p := binary.BigEndian.AppendUint32(nil, psn)
	return append(p, reason)
}

func (d *Device) handleSendLocked(srcMAC fabric.MAC, dstQPN uint32, body []byte, cost simclock.Lat) {
	if len(body) < 4 {
		return
	}
	psn := binary.BigEndian.Uint32(body[0:4])
	qp, ok := d.qps[dstQPN]
	if !ok || qp.state != qpReady {
		if ok && qp.state == qpError {
			// Tell the sender immediately instead of letting its
			// inflight sends age out: its QP errors and its libOS can
			// start reconnecting.
			d.send(srcMAC, opNak, qp.remoteQPN, nakPayload(psn, nakQPErr), 0)
		}
		return
	}
	data := body[4:]
	if !d.checkPSNLocked(qp, srcMAC, psn) {
		return
	}
	if len(qp.recvQ) == 0 {
		// The paper's failure mode: too few posted buffers.
		d.stats.RNRNaks++
		d.send(srcMAC, opNak, qp.remoteQPN, nakPayload(psn, nakRNR), 0)
		return
	}
	wr := qp.recvQ[0]
	qp.recvQ = qp.recvQ[1:]
	if wr.sge.Len < len(data) {
		d.stats.LenNaks++
		qp.recvCQ.pushLocked(WC{WRID: wr.wrID, QPNum: qp.num, Op: OpRecv, Status: StatusLenErr})
		d.send(srcMAC, opNak, qp.remoteQPN, nakPayload(psn, nakLen), 0)
		return
	}
	copy(wr.sge.MR.buf[wr.sge.Off:], data)
	d.stats.Recvs++
	qp.recvCQ.pushLocked(WC{
		WRID:   wr.wrID,
		QPNum:  qp.num,
		Op:     OpRecv,
		Status: StatusSuccess,
		Len:    len(data),
		Cost:   cost + d.model.RDMAOpNS + d.model.DMACost(len(data)),
	})
	d.send(srcMAC, opAck, qp.remoteQPN, binary.BigEndian.AppendUint32(nil, psn), 0)
}

func (d *Device) handleWriteLocked(srcMAC fabric.MAC, dstQPN uint32, body []byte, cost simclock.Lat) {
	if len(body) < 16 {
		return
	}
	qp, ok := d.qps[dstQPN]
	if !ok || qp.state != qpReady {
		return
	}
	psn := binary.BigEndian.Uint32(body[0:4])
	rkey := binary.BigEndian.Uint32(body[4:8])
	roff := int(binary.BigEndian.Uint64(body[8:16]))
	data := body[16:]
	if !d.checkPSNLocked(qp, srcMAC, psn) {
		return
	}
	mr, ok := d.mrs[rkey]
	if !ok || !mr.valid || roff < 0 || roff+len(data) > len(mr.buf) {
		d.stats.AccessNaks++
		d.send(srcMAC, opNak, qp.remoteQPN, nakPayload(psn, nakAccess), 0)
		return
	}
	// One-sided: DMA directly into application memory, no completion on
	// this side.
	copy(mr.buf[roff:], data)
	d.send(srcMAC, opAck, qp.remoteQPN, binary.BigEndian.AppendUint32(nil, psn), 0)
	_ = cost
}

func (d *Device) handleReadReqLocked(srcMAC fabric.MAC, dstQPN uint32, body []byte) {
	if len(body) < 20 {
		return
	}
	qp, ok := d.qps[dstQPN]
	if !ok || qp.state != qpReady {
		return
	}
	psn := binary.BigEndian.Uint32(body[0:4])
	rkey := binary.BigEndian.Uint32(body[4:8])
	roff := int(binary.BigEndian.Uint64(body[8:16]))
	rlen := int(binary.BigEndian.Uint32(body[16:20]))
	if !d.checkPSNLocked(qp, srcMAC, psn) {
		return
	}
	mr, ok := d.mrs[rkey]
	if !ok || !mr.valid || roff < 0 || rlen < 0 || roff+rlen > len(mr.buf) {
		d.stats.AccessNaks++
		d.send(srcMAC, opNak, qp.remoteQPN, nakPayload(psn, nakAccess), 0)
		return
	}
	resp := binary.BigEndian.AppendUint32(nil, psn)
	resp = append(resp, mr.buf[roff:roff+rlen]...)
	d.send(srcMAC, opReadResp, qp.remoteQPN, resp, d.model.RDMAOpNS+d.model.DMACost(rlen))
}

func (d *Device) handleReadRespLocked(dstQPN uint32, body []byte, cost simclock.Lat) {
	if len(body) < 4 {
		return
	}
	qp, ok := d.qps[dstQPN]
	if !ok {
		return
	}
	psn := binary.BigEndian.Uint32(body[0:4])
	pend, ok := qp.inflight[psn]
	if !ok || pend.op != OpRead {
		return
	}
	delete(qp.inflight, psn)
	data := body[4:]
	n := min(len(data), pend.sge.Len)
	copy(pend.sge.MR.buf[pend.sge.Off:], data[:n])
	qp.sendCQ.pushLocked(WC{
		WRID:   pend.wrID,
		QPNum:  qp.num,
		Op:     OpRead,
		Status: StatusSuccess,
		Len:    n,
		Cost:   cost + d.model.RDMAOpNS + d.model.DMACost(n),
	})
}

func (d *Device) handleAckLocked(dstQPN uint32, body []byte, cost simclock.Lat) {
	if len(body) < 4 {
		return
	}
	qp, ok := d.qps[dstQPN]
	if !ok {
		return
	}
	psn := binary.BigEndian.Uint32(body[0:4])
	pend, ok := qp.inflight[psn]
	if !ok {
		return
	}
	delete(qp.inflight, psn)
	qp.sendCQ.pushLocked(WC{
		WRID:   pend.wrID,
		QPNum:  qp.num,
		Op:     pend.op,
		Status: StatusSuccess,
		Len:    pend.n,
		Cost:   cost,
	})
}

func (d *Device) handleNakLocked(dstQPN uint32, body []byte, cost simclock.Lat) {
	if len(body) < 5 {
		return
	}
	qp, ok := d.qps[dstQPN]
	if !ok {
		return
	}
	psn := binary.BigEndian.Uint32(body[0:4])
	reason := body[4]
	pend, ok := qp.inflight[psn]
	if !ok {
		return
	}
	delete(qp.inflight, psn)
	status := StatusQPError
	switch reason {
	case nakRNR:
		status = StatusRNR
	case nakLen:
		status = StatusLenErr
	case nakAccess:
		status = StatusRemoteAccess
	case nakQPErr:
		// The peer declared the connection broken: error this side too
		// and flush everything else still inflight.
		d.errorQPLocked(qp)
	}
	qp.sendCQ.pushLocked(WC{
		WRID:   pend.wrID,
		QPNum:  qp.num,
		Op:     pend.op,
		Status: status,
		Len:    pend.n,
		Cost:   cost,
	})
}
