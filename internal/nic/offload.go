package nic

// Checksum and segmentation offload: the share of the TCP/IP work every
// DPDK-class NIC does in hardware (RTE_ETH_TX_OFFLOAD_TCP_CKSUM,
// RTE_ETH_RX_OFFLOAD_TCP_CKSUM, RTE_ETH_TX_OFFLOAD_TCP_TSO), which a stack
// on such a device therefore does not supply in software (Table 1). A
// device has both unless Config.NoOffloads says otherwise.
//
// Checksums. A stack leaves a frame's IPv4 and L4 checksum fields zero and
// marks it fabric.CsumPending; the receiving device turns the mark into a
// verdict from the fabric's corruption mark (csumVerdict). Neither device
// reads a payload byte to do it: the Go time the stack saves is not spent
// here instead.
//
// Segmentation. A stack hands TxTSO one descriptor per send burst of more
// than one segment — the header of the burst's first frame, the payload
// where it lies in the send ring, the MSS — and the device cuts the
// frames, each with its own IPv4 total length and id and TCP sequence
// number, copying each payload straight from the ring into its wire frame.
// The receive half (LRO) is the stack's: it chains in-order segments of a
// flow within a burst (netstack's ingest).

import (
	"encoding/binary"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

// Offsets into an Ethernet frame carrying an IPv4 header without options.
const (
	ipOff  = 14      // the IPv4 header
	tcpOff = 14 + 20 // the transport header
)

// csumVerdict is a receiving device's check of a CsumPending frame's sums,
// read from where the fabric flipped a byte, if it did: in the IPv4 header
// that header's sum fails, past it the transport's.
func csumVerdict(flip int32) fabric.Csum {
	switch {
	case flip == 0:
		return fabric.CsumGood
	case flip-1 < tcpOff:
		return fabric.CsumBadIP
	default:
		return fabric.CsumBadL4
	}
}

// Offloads reports whether the device computes and checks checksums and
// cuts TCP segments (TxTSO) for its stack.
func (d *Device) Offloads() bool { return !d.cfg.NoOffloads }

// TSO is one segmentation-offload transmit descriptor: a TCP segment of
// any length, which the device sends as frames of at most MSS payload
// bytes.
type TSO struct {
	// Hdr is the first frame's Ethernet, IPv4 (20 bytes) and TCP headers.
	// Each frame gets a copy with its IPv4 total length, its id (Hdr's
	// plus one a frame) and its TCP sequence number (Hdr's plus the
	// payload bytes before it) written in; the checksums are pending.
	Hdr []byte
	// Payload is the segment's bytes, as the one or two spans the send
	// ring holds them in.
	Payload [2][]byte
	MSS     int
	// Cost is every frame's virtual cost before the device adds its own.
	Cost simclock.Lat
	// Pool supplies the frames' buffers.
	Pool *fabric.FramePool
	// Frames is the caller's scratch, reused from descriptor to descriptor
	// so that a send allocates nothing; the device leaves it empty.
	Frames []fabric.Frame
}

// TSOFrames returns how many frames a segment of n payload bytes is cut into.
func TSOFrames(n, mss int) int { return (n + mss - 1) / mss }

// cut appends t's frames to t.Frames, and returns how many the pool
// refused a buffer: those are lost, as when a driver fails a descriptor
// allocation, though each still takes its IP id.
func (t *TSO) cut() (refused int) {
	a, b := t.Payload[0], t.Payload[1]
	n := len(a) + len(b)
	id := binary.BigEndian.Uint16(t.Hdr[ipOff+4:])
	seq := binary.BigEndian.Uint32(t.Hdr[tcpOff+4:])
	for k := TSOFrames(n, t.MSS); k > 0; k-- {
		size := min(t.MSS, n)
		if fb := t.Pool.Get(len(t.Hdr) + size); fb != nil {
			data := fb.Bytes()
			copy(data, t.Hdr)
			binary.BigEndian.PutUint16(data[ipOff+2:], uint16(len(data)-ipOff))
			binary.BigEndian.PutUint16(data[ipOff+4:], id)
			binary.BigEndian.PutUint32(data[tcpOff+4:], seq)
			copy(data[len(t.Hdr)+copy(data[len(t.Hdr):], a):], b)
			f := fabric.Frame{Data: data, Cost: t.Cost, Buf: fb}
			f.SetCsum(fabric.CsumPending)
			t.Frames = append(t.Frames, f)
		} else {
			refused++
		}
		if size <= len(a) {
			a = a[size:]
		} else {
			a, b = b[size-len(a):], nil
		}
		n -= size
		id++
		seq += uint32(size)
	}
	return refused
}

// TxTSO transmits the frames t cuts to, each as TxFrame would, through the
// fabric in one burst, and returns how many the pool refused.
func (d *Device) TxTSO(t *TSO) int {
	refused := t.cut()
	var bytes int64
	for i := range t.Frames {
		f := &t.Frames[i]
		bytes += int64(len(f.Data))
		f.Cost += d.model.NICProcessNS + d.model.DMACost(len(f.Data))
	}
	d.txFrames.Add(int64(len(t.Frames)))
	d.dmaBytes.Add(bytes)
	d.port.SendBurst(t.Frames)
	clear(t.Frames)
	t.Frames = t.Frames[:0]
	return refused
}

// Offloads is Device.Offloads of the group's device.
func (g *QueueGroup) Offloads() bool { return g.dev.Offloads() }

// TxTSO is Device.TxTSO through the group's TX queue: every frame is
// scheduled as TxFrame schedules one.
func (g *QueueGroup) TxTSO(t *TSO) int {
	refused := t.cut()
	for _, f := range t.Frames {
		g.dev.sched.enqueue(g.tq, f)
	}
	clear(t.Frames)
	t.Frames = t.Frames[:0]
	g.dev.sched.pump(g.dev)
	return refused
}
