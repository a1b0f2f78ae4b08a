// Package netstack implements the user-level network stack a DPDK-class
// kernel-bypass device forces the application (here: the libOS) to
// supply: Ethernet framing, ARP, IPv4, UDP, and a full TCP with
// retransmission, flow control, and congestion control (§2, §5.1 of the
// paper: "while DPDK requires an entire networking stack, ...").
//
// The stack is poll-driven to match the Demikernel data-path model: the
// libOS pumps Stack.Poll from its wait loop; no internal goroutines or
// locks sit on the per-packet path beyond the stack's own mutex.
package netstack

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"demikernel/internal/fabric"
)

// IPv4Addr is an IPv4 address.
type IPv4Addr [4]byte

// String formats the address in dotted quad notation.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IP builds an IPv4Addr from four octets.
func IP(a, b, c, d byte) IPv4Addr { return IPv4Addr{a, b, c, d} }

// EtherType values used by the stack.
const (
	etherTypeIPv4 = 0x0800
	etherTypeARP  = 0x0806
)

// IP protocol numbers.
const (
	protoTCP = 6
	protoUDP = 17
)

// Header sizes.
const (
	ethHdrLen  = 14
	arpLen     = 28
	ipv4HdrLen = 20
	udpHdrLen  = 8
	tcpHdrLen  = 20
)

// appendEth appends an Ethernet header.
func appendEth(dst []byte, dstMAC, srcMAC fabric.MAC, etherType uint16) []byte {
	dst = append(dst, dstMAC[:]...)
	dst = append(dst, srcMAC[:]...)
	return binary.BigEndian.AppendUint16(dst, etherType)
}

// arpPacket is a parsed ARP packet.
type arpPacket struct {
	op       uint16 // 1 request, 2 reply
	senderHW fabric.MAC
	senderIP IPv4Addr
	targetHW fabric.MAC
	targetIP IPv4Addr
}

const (
	arpOpRequest = 1
	arpOpReply   = 2
)

func (p arpPacket) marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, 1)      // htype ethernet
	dst = binary.BigEndian.AppendUint16(dst, 0x0800) // ptype IPv4
	dst = append(dst, 6, 4)
	dst = binary.BigEndian.AppendUint16(dst, p.op)
	dst = append(dst, p.senderHW[:]...)
	dst = append(dst, p.senderIP[:]...)
	dst = append(dst, p.targetHW[:]...)
	dst = append(dst, p.targetIP[:]...)
	return dst
}

func parseARP(b []byte) (arpPacket, bool) {
	if len(b) < arpLen {
		return arpPacket{}, false
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 || binary.BigEndian.Uint16(b[2:4]) != 0x0800 {
		return arpPacket{}, false
	}
	var p arpPacket
	p.op = binary.BigEndian.Uint16(b[6:8])
	copy(p.senderHW[:], b[8:14])
	copy(p.senderIP[:], b[14:18])
	copy(p.targetHW[:], b[18:24])
	copy(p.targetIP[:], b[24:28])
	return p, true
}

// ipv4Header is a parsed IPv4 header (no options).
type ipv4Header struct {
	totalLen uint16
	id       uint16
	ttl      uint8
	proto    uint8
	src, dst IPv4Addr
}

// marshal appends the header with its checksum.
func (h ipv4Header) marshal(dst []byte) []byte {
	start := len(dst)
	dst = h.appendTo(dst)
	cs := checksum(dst[start:start+ipv4HdrLen], 0)
	binary.BigEndian.PutUint16(dst[start+10:start+12], cs)
	return dst
}

// appendTo appends the header with its checksum field zero, for a device
// that computes the sum (checksum offload).
func (h ipv4Header) appendTo(dst []byte) []byte {
	dst = append(dst, 0x45, 0) // version+IHL, TOS
	dst = binary.BigEndian.AppendUint16(dst, h.totalLen)
	dst = binary.BigEndian.AppendUint16(dst, h.id)
	dst = binary.BigEndian.AppendUint16(dst, 0) // flags+frag
	dst = append(dst, h.ttl, h.proto, 0, 0)     // checksum placeholder
	dst = append(dst, h.src[:]...)
	return append(dst, h.dst[:]...)
}

// parseIPv4 parses an IPv4 packet whose header checksum the receiving NIC
// has judged (csum, a fabric.Csum verdict) or left to software
// (fabric.CsumNone).
func parseIPv4(b []byte, csum fabric.Csum) (ipv4Header, []byte, bool) {
	if len(b) < ipv4HdrLen {
		return ipv4Header{}, nil, false
	}
	if b[0] != 0x45 {
		return ipv4Header{}, nil, false // options unsupported
	}
	if csum == fabric.CsumBadIP || csum == fabric.CsumNone && checksum(b[:ipv4HdrLen], 0) != 0 {
		return ipv4Header{}, nil, false
	}
	var h ipv4Header
	h.totalLen = binary.BigEndian.Uint16(b[2:4])
	h.id = binary.BigEndian.Uint16(b[4:6])
	h.ttl = b[8]
	h.proto = b[9]
	copy(h.src[:], b[12:16])
	copy(h.dst[:], b[16:20])
	if int(h.totalLen) > len(b) || int(h.totalLen) < ipv4HdrLen {
		return ipv4Header{}, nil, false
	}
	return h, b[ipv4HdrLen:h.totalLen], true
}

// TCP flags.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagRST = 1 << 2
	flagPSH = 1 << 3
	flagACK = 1 << 4
)

// tcpSegment is a parsed TCP segment.
type tcpSegment struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	window           uint16
	payload          []byte
	// tail continues payload on transmit, when the bytes wrap the end of
	// the send ring; parsed segments never set it.
	tail []byte
}

// marshal appends the segment with its checksum.
func (s tcpSegment) marshal(dst []byte, srcIP, dstIP IPv4Addr) []byte {
	start := len(dst)
	dst = s.appendTo(dst)
	cs := transportChecksum(srcIP, dstIP, protoTCP, dst[start:])
	binary.BigEndian.PutUint16(dst[start+16:start+18], cs)
	return dst
}

// appendTo appends the segment with its checksum field zero (checksum
// offload).
func (s tcpSegment) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, s.srcPort)
	dst = binary.BigEndian.AppendUint16(dst, s.dstPort)
	dst = binary.BigEndian.AppendUint32(dst, s.seq)
	dst = binary.BigEndian.AppendUint32(dst, s.ack)
	dst = append(dst, 5<<4, s.flags) // data offset 5 words
	dst = binary.BigEndian.AppendUint16(dst, s.window)
	dst = append(dst, 0, 0, 0, 0) // checksum + urgent
	dst = append(dst, s.payload...)
	return append(dst, s.tail...)
}

// parseTCP parses a segment whose checksum the receiving NIC has judged
// (csum) or left to software (fabric.CsumNone).
func parseTCP(b []byte, srcIP, dstIP IPv4Addr, csum fabric.Csum) (tcpSegment, bool) {
	if len(b) < tcpHdrLen {
		return tcpSegment{}, false
	}
	if csum == fabric.CsumBadL4 || csum == fabric.CsumNone && transportChecksum(srcIP, dstIP, protoTCP, b) != 0 {
		return tcpSegment{}, false
	}
	var s tcpSegment
	s.srcPort = binary.BigEndian.Uint16(b[0:2])
	s.dstPort = binary.BigEndian.Uint16(b[2:4])
	s.seq = binary.BigEndian.Uint32(b[4:8])
	s.ack = binary.BigEndian.Uint32(b[8:12])
	off := int(b[12]>>4) * 4
	if off < tcpHdrLen || off > len(b) {
		return tcpSegment{}, false
	}
	s.flags = b[13]
	s.window = binary.BigEndian.Uint16(b[14:16])
	s.payload = b[off:]
	return s, true
}

// udpDatagram is a parsed UDP datagram.
type udpDatagram struct {
	srcPort, dstPort uint16
	payload          []byte
}

// marshal appends the datagram with its checksum.
func (u udpDatagram) marshal(dst []byte, srcIP, dstIP IPv4Addr) []byte {
	start := len(dst)
	dst = u.appendTo(dst)
	putUDPChecksum(dst[start:], srcIP, dstIP)
	return dst
}

// appendTo appends the datagram with its checksum field zero (checksum
// offload).
func (u udpDatagram) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, u.srcPort)
	dst = binary.BigEndian.AppendUint16(dst, u.dstPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(udpHdrLen+len(u.payload)))
	dst = append(dst, 0, 0) // checksum placeholder
	return append(dst, u.payload...)
}

// putUDPChecksum writes the checksum of datagram b, whose field reads zero.
func putUDPChecksum(b []byte, srcIP, dstIP IPv4Addr) {
	cs := transportChecksum(srcIP, dstIP, protoUDP, b)
	if cs == 0 {
		// RFC 768: a transmitted checksum of zero means "none computed",
		// so a sum that comes out zero goes on the wire as all ones (the
		// two are the same value in one's complement arithmetic).
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(b[6:8], cs)
}

// parseUDP parses a datagram whose checksum the receiving NIC has judged
// (csum) or left to software (fabric.CsumNone).
func parseUDP(b []byte, srcIP, dstIP IPv4Addr, csum fabric.Csum) (udpDatagram, bool) {
	if len(b) < udpHdrLen {
		return udpDatagram{}, false
	}
	if csum == fabric.CsumBadL4 || csum == fabric.CsumNone && transportChecksum(srcIP, dstIP, protoUDP, b) != 0 {
		return udpDatagram{}, false
	}
	var u udpDatagram
	u.srcPort = binary.BigEndian.Uint16(b[0:2])
	u.dstPort = binary.BigEndian.Uint16(b[2:4])
	l := binary.BigEndian.Uint16(b[4:6])
	if int(l) < udpHdrLen || int(l) > len(b) {
		return udpDatagram{}, false
	}
	u.payload = b[udpHdrLen:l]
	return u, true
}

// checksum computes the Internet checksum of b seeded with initial. The
// one's complement sum does not care how the 16-bit words are grouped, nor
// which byte order they are added in so long as the result is swapped back
// (RFC 1071 section 2, (A) and (B)), so the bulk of b is added eight bytes
// at a time as the machine loads them — little-endian, no swap per word —
// into a 64-bit accumulator with end-around carry, folded to 16 bits and
// byte-swapped once at the end; initial, which is in network order, goes
// in last.
func checksum(b []byte, initial uint32) uint16 {
	var sum, carry uint64
	for len(b) >= 64 {
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[24:32]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[32:40]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[40:48]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[48:56]), carry)
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[56:64]), carry)
		b = b[64:]
	}
	for len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.LittleEndian.Uint64(b[0:8]), carry)
		b = b[8:]
	}
	// Fewer than eight bytes are left: as a little-endian word zero-padded
	// at the top they keep their 16-bit lanes, odd last byte included.
	var last uint64
	for i, c := range b {
		last |= uint64(c) << (8 * i)
	}
	sum, carry = bits.Add64(sum, last, carry)
	sum, carry = bits.Add64(sum, 0, carry)
	sum += carry
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	total := uint32(bits.ReverseBytes16(uint16(sum))) + initial>>16 + initial&0xffff
	total = total>>16 + total&0xffff
	total = total>>16 + total&0xffff
	return ^uint16(total)
}

// transportChecksum computes the TCP/UDP checksum over the pseudo-header
// and segment.
func transportChecksum(src, dst IPv4Addr, proto uint8, seg []byte) uint16 {
	pseudo := uint32(binary.BigEndian.Uint16(src[0:2])) + uint32(binary.BigEndian.Uint16(src[2:4])) +
		uint32(binary.BigEndian.Uint16(dst[0:2])) + uint32(binary.BigEndian.Uint16(dst[2:4])) +
		uint32(proto) + uint32(uint16(len(seg)))
	return checksum(seg, pseudo)
}
