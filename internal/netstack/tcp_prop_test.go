package netstack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"demikernel/internal/fabric"
)

// TestPropTCPDeliversExactStreamUnderImpairment is the package's core
// property: whatever combination of loss, reordering, and duplication
// the fabric injects, and however the sender chops its writes, the
// receiver observes exactly the sent byte stream.
func TestPropTCPDeliversExactStreamUnderImpairment(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newWorld(t, Config{MSS: 300 + r.Intn(900), RTO: 5 * time.Millisecond},
			Config{MSS: 512, RTO: 5 * time.Millisecond, RxWindow: 4096 + r.Intn(60000)})
		c, srv := dialPair(t, w, 8000)
		w.sw.SetImpairments(fabric.Impairments{
			LossRate:    r.Float64() * 0.15,
			ReorderRate: r.Float64() * 0.2,
			DupRate:     r.Float64() * 0.2,
		})
		msg := make([]byte, 2000+r.Intn(20000))
		r.Read(msg)

		var got []byte
		sent := 0
		deadline := time.Now().Add(8 * time.Second)
		for len(got) < len(msg) {
			if time.Now().After(deadline) {
				return false
			}
			if sent < len(msg) {
				// Random-size writes model arbitrary app chunking.
				chunk := 1 + r.Intn(4000)
				if sent+chunk > len(msg) {
					chunk = len(msg) - sent
				}
				n, err := c.Send(msg[sent:sent+chunk], 0)
				if err != nil {
					return false
				}
				sent += n
			}
			w.pump()
			b, _, err := srv.Recv(0)
			if err != nil {
				return false
			}
			got = append(got, b...)
			time.Sleep(200 * time.Microsecond)
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b   uint32
		lt, le bool
	}{
		{0, 1, true, true},
		{1, 0, false, false},
		{5, 5, false, true},
		{0xFFFFFFFF, 0, true, true},          // wraparound
		{0, 0xFFFFFFFF, false, false},        // wraparound reverse
		{0x7FFFFFFF, 0x80000000, true, true}, // midpoint
		{0xFFFFFF00, 0x00000100, true, true}, // cross-zero window
	}
	for _, c := range cases {
		if seqLT(c.a, c.b) != c.lt {
			t.Errorf("seqLT(%#x, %#x) = %v, want %v", c.a, c.b, !c.lt, c.lt)
		}
		if seqLEQ(c.a, c.b) != c.le {
			t.Errorf("seqLEQ(%#x, %#x) = %v, want %v", c.a, c.b, !c.le, c.le)
		}
	}
}

func TestPropChecksumDetectsSingleBitFlips(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		seg := tcpSegment{
			srcPort: uint16(r.Intn(65536)),
			dstPort: uint16(r.Intn(65536)),
			seq:     r.Uint32(),
			ack:     r.Uint32(),
			flags:   flagACK,
			window:  uint16(r.Intn(65536)),
			payload: make([]byte, 1+r.Intn(200)),
		}
		r.Read(seg.payload)
		b := seg.marshal(nil, ipA, ipB)
		if _, ok := parseTCP(b, ipA, ipB, fabric.CsumNone); !ok {
			return false // valid segment must parse
		}
		// Flip one random bit: the checksum must catch it.
		bit := r.Intn(len(b) * 8)
		b[bit/8] ^= 1 << (bit % 8)
		_, ok := parseTCP(b, ipA, ipB, fabric.CsumNone)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPChecksumDetectsCorruption(t *testing.T) {
	d := udpDatagram{srcPort: 7, dstPort: 8, payload: []byte("datagram body")}
	b := d.marshal(nil, ipA, ipB)
	if _, ok := parseUDP(b, ipA, ipB, fabric.CsumNone); !ok {
		t.Fatal("valid datagram rejected")
	}
	b[10] ^= 0x01
	if _, ok := parseUDP(b, ipA, ipB, fabric.CsumNone); ok {
		t.Fatal("corrupt datagram accepted")
	}
}
