package netstack

import (
	"encoding/binary"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

// Receive offload. On a device with offloads the stack takes a receive
// burst in by chains (LRO): consecutive in-order data segments of one
// connection within the burst, none with SYN, FIN or RST, all with the
// same acknowledgement number and window. The TCP machine runs once per
// chain — its first segment the usual way, the rest appended to the
// receive ring when that is all the machine would do with them — and
// each payload is still copied into the ring once. Acknowledgements are
// decided per burst from the bytes taken in (flushAcksLocked), so a chain
// is acknowledged as its segments would be.

// rxChain is the receive burst's open chain: c's segments, whose frames
// stay in the burst, from index from on, until flushChainLocked releases
// them.
type rxChain struct {
	c *TCPConn
	h ipv4Header
	// seg is the first segment (its payload is pays[0]); next is the
	// sequence number after the chain's last byte.
	seg   tcpSegment
	next  uint32
	burst []fabric.Frame
	from  int
	// pays are the segments' payloads, reused from chain to chain.
	pays [][]byte
}

// ingestLocked takes in a receive burst, releasing every frame.
func (s *Stack) ingestLocked(burst []fabric.Frame) {
	for i := range burst {
		if s.chainLocked(burst, i) {
			continue
		}
		s.flushChainLocked()
		s.handleFrameLocked(burst[i])
		// Ingest is copy-out (rcvBuf / pooled datagram payloads), so the
		// wire frame's pooled storage recycles immediately.
		burst[i].Release()
	}
	s.flushChainLocked()
}

// chainLocked adds frame i of burst to the open chain, or flushes that and
// opens one with it, when it is an intact data segment of an established
// connection with no SYN, FIN or RST, whose peer has not sent its FIN (text
// past a FIN is dropped segment by segment, as without offloads); it
// reports false, leaving the frame be, for every other. A chain's frames
// are adjacent in its burst: every frame that does not join it flushes it
// first.
func (s *Stack) chainLocked(burst []fabric.Frame, i int) bool {
	f := &burst[i]
	if !s.offloads || f.Csum() != fabric.CsumGood || len(f.Data) < ethHdrLen ||
		binary.BigEndian.Uint16(f.Data[12:]) != etherTypeIPv4 {
		return false
	}
	h, body, ok := parseIPv4(f.Data[ethHdrLen:], fabric.CsumGood)
	if !ok || h.dst != s.cfg.IP || h.proto != protoTCP {
		return false
	}
	seg, ok := parseTCP(body, h.src, h.dst, fabric.CsumGood)
	if !ok || len(seg.payload) == 0 || seg.flags&(flagSYN|flagFIN|flagRST|flagACK) != flagACK {
		return false
	}
	ch := &s.chain
	key := connKey{localPort: seg.dstPort, remoteIP: h.src, remotePort: seg.srcPort}
	if ch.c == nil || ch.c.key != key || seg.seq != ch.next || seg.ack != ch.seg.ack || seg.window != ch.seg.window {
		s.flushChainLocked()
		c, ok := s.conns[key]
		if !ok || c.state != stateEstablished || c.peerFinRcvd {
			return false
		}
		ch.c, ch.h, ch.seg, ch.burst, ch.from = c, h, seg, burst, i
	}
	s.stats.FramesIn++
	s.stats.TCPSegsRcvd++
	ch.next = seg.seq + uint32(len(seg.payload))
	ch.pays = append(ch.pays, seg.payload)
	return true
}

// flushChainLocked runs the TCP machine over the open chain, if there is
// one, and releases its frames. The first segment goes through it the
// usual way. The rest are appended to the receive ring at once when the
// first has left the connection established with nothing out of order,
// expecting them, with room for all of them and no acknowledgement in
// them to take: each would then only be taken in whole with its ACK held
// and its window recorded again. Otherwise each goes through the machine
// in turn, as it would have a segment at a time.
func (s *Stack) flushChainLocked() {
	ch := &s.chain
	c := ch.c
	if c == nil {
		return
	}
	s.stats.TCPChainsRcvd++
	seg := ch.seg
	seg.payload = ch.pays[0]
	c.handleSegmentLocked(seg, s.frameCost(0))
	seq, rest := seg.seq+uint32(len(seg.payload)), 0
	for _, p := range ch.pays[1:] {
		rest += len(p)
	}
	switch {
	case rest == 0:
	case c.state == stateEstablished && seq == c.rcvNxt && len(c.ooo) == 0 &&
		rest <= s.cfg.RxWindow-c.rcvBuf.Len() && !(seqLT(c.sndUna, seg.ack) && seqLEQ(seg.ack, c.sndNxt)):
		for _, p := range ch.pays[1:] {
			c.rcvBuf.write(p, s.cfg.RxWindow)
		}
		c.rcvNxt += uint32(rest)
		c.rxCost = s.frameCost(len(ch.pays) - 1)
		c.holdAckLocked()
		c.updateReadyLocked()
	default:
		s.stats.TCPChainsRcvd += int64(len(ch.pays) - 1)
		for i, p := range ch.pays[1:] {
			seg.seq, seg.payload = seq, p
			s.segmentLocked(ch.h, seg, s.frameCost(i+1))
			seq += uint32(len(p))
		}
	}
	for i := range ch.pays {
		ch.burst[ch.from+i].Release()
	}
	clear(ch.pays)
	ch.pays, ch.burst, ch.c = ch.pays[:0], nil, nil
}

// frameCost is the cost the chain's segment i arrived at, the stack's
// per-packet work included.
func (s *Stack) frameCost(i int) simclock.Lat {
	return s.chain.burst[s.chain.from+i].Cost + s.model.UserNetStackNS + s.cfg.PerPacketExtra
}

// fillSums writes the IPv4 and TCP/UDP checksums of an IPv4 frame whose
// sender left them to its NIC (fabric.CsumPending) into the frame, as that
// NIC would have over the bytes it sent — a byte the fabric has flipped
// since (flip, as in fabric.Frame) is flipped back for the sums and again
// after — so that a receiver whose device does not check them checks them
// in software, like any other frame's.
func fillSums(frame []byte, flip int32) {
	if flip > 0 {
		frame[flip-1] ^= 0xFF
		defer func() { frame[flip-1] ^= 0xFF }()
	}
	ip := frame[ethHdrLen:]
	if len(ip) < ipv4HdrLen || ip[0] != 0x45 {
		return
	}
	binary.BigEndian.PutUint16(ip[10:], 0)
	binary.BigEndian.PutUint16(ip[10:], checksum(ip[:ipv4HdrLen], 0))
	total := int(binary.BigEndian.Uint16(ip[2:]))
	if total < ipv4HdrLen || total > len(ip) {
		return
	}
	var src, dst IPv4Addr
	copy(src[:], ip[12:16])
	copy(dst[:], ip[16:20])
	switch l4 := ip[ipv4HdrLen:total]; {
	case ip[9] == protoTCP && len(l4) >= tcpHdrLen:
		binary.BigEndian.PutUint16(l4[16:], 0)
		binary.BigEndian.PutUint16(l4[16:], transportChecksum(src, dst, protoTCP, l4))
	case ip[9] == protoUDP && len(l4) >= udpHdrLen:
		binary.BigEndian.PutUint16(l4[6:], 0)
		putUDPChecksum(l4, src, dst)
	}
}
