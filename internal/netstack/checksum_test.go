package netstack

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceChecksum is the byte-pair loop checksum was before it went
// word-wide, kept verbatim as the oracle the fast version is held
// bit-identical to.
func referenceChecksum(b []byte, initial uint32) uint16 {
	sum := initial
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// referenceDefined reports whether the reference's 32-bit accumulator can
// hold initial plus len(b) bytes of 0xffff words without wrapping. Past
// that it silently loses carries (no caller ever got there: initial is a
// pseudo-header sum below 2^19), so there is nothing to be identical to.
func referenceDefined(b []byte, initial uint32) bool {
	return uint64(initial)+uint64(len(b)+1)/2*0xffff <= math.MaxUint32
}

// TestChecksumMatchesReference sweeps every length 0…3000 at every
// 8-byte alignment of the first byte, so each combination of unrolled
// body, 8-byte body and 0…7-byte tail (odd tails included) is hit at
// each misalignment of the wide loads, under seeds that do and do not
// carry out of 16 and 32 bits.
func TestChecksumMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(768))
	backing := make([]byte, 3000+8)
	initials := []uint32{0, 1, 0xffff, 0x10000, 0x1fffe, 0x7fffffff, 0xf0000000, r.Uint32() >> 4, r.Uint32() >> 4}
	fills := []struct {
		name string
		fill func([]byte)
	}{
		{"random", func(b []byte) { r.Read(b) }},
		{"ones", func(b []byte) { // every add carries
			for i := range b {
				b[i] = 0xff
			}
		}},
		{"zeros", func(b []byte) { clear(b) }},
	}
	for _, f := range fills {
		f.fill(backing)
		for align := 0; align < 8; align++ {
			for n := 0; n <= 3000; n++ {
				b := backing[align : align+n]
				initial := initials[(n+align)%len(initials)]
				if !referenceDefined(b, initial) {
					t.Fatalf("test seed %#x leaves the reference undefined at len %d", initial, n)
				}
				if got, want := checksum(b, initial), referenceChecksum(b, initial); got != want {
					t.Fatalf("%s len %d align %d initial %#x: checksum %#04x, reference %#04x", f.name, n, align, initial, got, want)
				}
			}
		}
	}
}

// FuzzChecksum holds checksum to the reference on arbitrary bytes, seed
// and alignment. The committed corpus (testdata/fuzz/FuzzChecksum) pins
// the shapes that are easy to get wrong: all-ones carries, a sum that
// folds to zero, odd tails on either side of the 8- and 32-byte loops.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Add([]byte{0xff}, uint32(0xffff), uint8(1))
	f.Add([]byte("\x45\x00\x00\x54\x00\x00\x40\x00\x40\x01\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02"), uint32(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, initial uint32, align uint8) {
		if !referenceDefined(data, initial) {
			t.Skip("outside the reference's 32-bit accumulator")
		}
		// Re-home the bytes so the first one sits at the chosen offset
		// from an 8-byte boundary.
		off := int(align % 8)
		b := append(make([]byte, off, off+len(data)), data...)[off:]
		if got, want := checksum(b, initial), referenceChecksum(b, initial); got != want {
			t.Fatalf("len %d align %d initial %#x: checksum %#04x, reference %#04x", len(b), off, initial, got, want)
		}
	})
}

// TestUDPZeroChecksumSentAsAllOnes pins RFC 768: a datagram whose
// checksum computes to zero must carry 0xffff on the wire, because a
// zero field tells the receiver the sender computed none. The payload is
// built to make the sum fold to zero: it is the checksum of the same
// datagram with a zero payload word, so the two cancel.
func TestUDPZeroChecksumSentAsAllOnes(t *testing.T) {
	d := udpDatagram{srcPort: 5000, dstPort: 6000, payload: []byte{0, 0}}
	first := d.marshal(nil, ipA, ipB)
	d.payload = []byte{first[6], first[7]}
	b := d.marshal(nil, ipA, ipB)

	zeroed := append([]byte(nil), b...)
	zeroed[6], zeroed[7] = 0, 0
	if cs := transportChecksum(ipA, ipB, protoUDP, zeroed); cs != 0 {
		t.Fatalf("test vector's checksum computes to %#04x, want 0", cs)
	}
	if got := binary.BigEndian.Uint16(b[6:8]); got != 0xffff {
		t.Fatalf("transmitted checksum %#04x, want 0xffff", got)
	}
	got, ok := parseUDP(b, ipA, ipB)
	if !ok || string(got.payload) != string(d.payload) {
		t.Fatalf("receiver rejected the 0xffff form: ok=%v payload=%x", ok, got.payload)
	}
}

var checksumSink uint16

// BenchmarkNetstack_Checksum: per-byte cost of the Internet checksum at
// an ACK-sized, an MSS-sized and a message-sized input.
func BenchmarkNetstack_Checksum(b *testing.B) {
	for _, n := range []int{64, 1460, 16384} {
		buf := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(buf)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = checksum(buf, 0x1234)
			}
		})
	}
}
