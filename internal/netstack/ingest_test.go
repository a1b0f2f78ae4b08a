package netstack

// The receive path with and without offloads, against each other: a stack
// whose device checks checksums and whose bursts it chains (LRO) must take
// in exactly what a stack checking and handling every segment itself does.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
)

// ingestRig is one stack (ipB) on a device with or without offloads, with
// an established connection from a peer (ipA) that is only a switch port:
// a test writes the peer's frames by hand and reads what the stack answers.
// The peer's window is shut, with ingestPending bytes queued behind it: a
// segment that opens it makes the stack send, as the rest of its burst
// would have the stack send a segment at a time.
type ingestRig struct {
	model    simclock.CostModel
	sw       *fabric.Switch
	peer     *fabric.Port
	s        *Stack
	pool     *fabric.FramePool
	conn     *TCPConn
	offloads bool
	// seq is the next byte the peer sends, ack what it acknowledges.
	seq, ack uint32
	// fins holds the sequence number of each FIN its bursts carried.
	fins []uint32
}

const ingestPort, peerPort, ingestPending = 80, 40000, 8000

func newIngestRig(t testing.TB, offloads bool) *ingestRig {
	r := &ingestRig{model: simclock.Datacenter2019(), offloads: offloads, pool: fabric.NewFramePool()}
	r.sw = fabric.NewSwitch(&r.model, 1)
	r.peer = r.sw.NewPort(0)
	dev := nic.New(&r.model, r.sw, nic.Config{MAC: macB, NoOffloads: !offloads})
	r.s = New(&r.model, dev, Config{IP: ipB, Pool: r.pool, RxWindow: 16 * 1024, Clock: stoppedClock()})
	r.s.arp[ipA] = macA
	l, err := r.s.ListenTCP(ingestPort)
	if err != nil {
		t.Fatal(err)
	}
	r.seq = 1000
	r.inject(r.frame(flagSYN, r.seq-1, 0, 0xffff, nil))
	r.s.Poll()
	synAck := r.answers()
	if len(synAck) != 1 {
		t.Fatalf("the listener answered a SYN with %d segments", len(synAck))
	}
	r.ack = synAck[0].seq + 1
	r.inject(r.frame(flagACK, r.seq, r.ack, 0, nil))
	r.s.Poll()
	var ok bool
	if r.conn, ok = l.Accept(); !ok {
		t.Fatal("handshake did not complete")
	}
	if n, err := r.conn.Send(ingestStream(0, ingestPending), 0); n != ingestPending || err != nil {
		t.Fatalf("queued %d bytes: %v", n, err)
	}
	return r
}

// frame is a segment from the peer, as its NIC sends it: the checksums
// written in, or left to the device and marked pending.
func (r *ingestRig) frame(flags uint8, seq, ack uint32, wnd uint16, payload []byte) fabric.Frame {
	seg := tcpSegment{srcPort: peerPort, dstPort: ingestPort, seq: seq, ack: ack, flags: flags, window: wnd, payload: payload}
	h := ipv4Header{totalLen: uint16(ipv4HdrLen + tcpHdrLen + len(payload)), ttl: 64, proto: protoTCP, src: ipA, dst: ipB}
	b := appendEth(nil, macB, macA, etherTypeIPv4)
	if r.offloads {
		f := fabric.Frame{Data: seg.appendTo(h.appendTo(b))}
		f.SetCsum(fabric.CsumPending)
		return f
	}
	return fabric.Frame{Data: seg.marshal(h.marshal(b), ipA, ipB)}
}

func (r *ingestRig) inject(frames ...fabric.Frame) { r.peer.SendBurst(frames) }

// answers drains what the stack sent the peer.
func (r *ingestRig) answers() []tcpSegment {
	var out []tcpSegment
	for {
		f, ok := r.peer.Poll()
		if !ok {
			return out
		}
		b := f.Data[ethHdrLen:]
		h := ipv4Header{src: IPv4Addr(b[12:16]), dst: IPv4Addr(b[16:20])}
		csum := fabric.CsumNone
		if f.Csum() == fabric.CsumPending {
			csum = fabric.CsumGood
		}
		if seg, ok := parseTCP(b[ipv4HdrLen:], h.src, h.dst, csum); ok {
			seg.payload = append([]byte(nil), seg.payload...)
			out = append(out, seg)
		}
		f.Release()
	}
}

// read takes every byte the connection has in order, and whether the
// peer's FIN is in.
func (r *ingestRig) read() ([]byte, bool) {
	b, _, err := r.conn.RecvAppend(nil, 0)
	if err == nil {
		_, _, err = r.conn.RecvAppend(nil, 0) // io.EOF follows the last byte
	}
	return b, err == io.EOF
}

// ingestStream is what a peer's byte stream is: byte i of it, wherever a
// segment starts.
func ingestStream(seq uint32, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		x := seq + uint32(i)
		b[i] = byte(x*7) ^ byte(x>>8)
	}
	return b
}

// ingestRecord is the size of the fuzzer's description of one frame:
//
//	0    TCP flags
//	1-2  sequence number, as a signed offset from the next in-order byte
//	3-4  payload length, modulo 1461
//	5    advertised window, in units of 256 bytes
//	6    0: intact; otherwise the frame has one byte flipped, the
//	     value picking which one past the Ethernet header
//	7    acknowledgement number, as a signed offset from the stack's
//	     next byte, in units of 16 bytes
const ingestRecord = 8

// burst builds the frames the records in data describe, at most one
// receive burst of them.
func (r *ingestRig) burst(data []byte) []fabric.Frame {
	var frames []fabric.Frame
	next := r.seq
	for ; len(data) >= ingestRecord && len(frames) < rxBurstMax; data = data[ingestRecord:] {
		seq := next + uint32(int16(binary.BigEndian.Uint16(data[1:])))
		n := int(binary.BigEndian.Uint16(data[3:])) % 1461
		ack := r.ack + uint32(int8(data[7]))*16
		f := r.frame(data[0]&0x1f, seq, ack, uint16(data[5])<<8, ingestStream(seq, n))
		if data[0]&flagFIN != 0 {
			r.fins = append(r.fins, seq+uint32(n))
		}
		if data[6] != 0 {
			f.Corrupt(ethHdrLen + int(data[6])%(len(f.Data)-ethHdrLen))
		}
		frames = append(frames, f)
		next = seq + uint32(n)
	}
	return frames
}

// ingestOutcome is everything a burst leaves that the two paths must agree
// on: the bytes delivered, whether the FIN was, the answers sent by the
// poll that took the burst in, by the next (a held ACK leaves there) and by
// the read, and the counters but the two that count sends and chains.
type ingestOutcome struct {
	delivered []byte
	fin       bool
	answers   []tcpSegment
	stats     Stats
}

func (r *ingestRig) take(data []byte) ingestOutcome {
	var out ingestOutcome
	r.inject(r.burst(data)...)
	for range 2 {
		r.s.Poll()
		out.answers = append(append(out.answers, r.answers()...), tcpSegment{})
	}
	out.delivered, out.fin = r.read()
	out.answers = append(out.answers, r.answers()...)
	out.stats = r.s.Stats()
	out.stats.TCPDescsSent, out.stats.TCPChainsRcvd = 0, 0
	return out
}

// checkStream fails t unless o's bytes are the peer's stream from its
// first byte on and, when the FIN was delivered, end at one the burst
// carried: a byte past the FIN would sit one sequence number off.
func (r *ingestRig) checkStream(t *testing.T, o ingestOutcome) {
	t.Helper()
	if want := ingestStream(r.seq, len(o.delivered)); !bytes.Equal(o.delivered, want) {
		t.Fatalf("offloads %v: the %d bytes delivered are not the stream sent", r.offloads, len(o.delivered))
	}
	if end := r.seq + uint32(len(o.delivered)); o.fin && !slices.Contains(r.fins, end) {
		t.Fatalf("offloads %v: %d bytes delivered, but no FIN sits at %d (FINs at %v)", r.offloads, len(o.delivered), end, r.fins)
	}
}

func (o ingestOutcome) String() string {
	return fmt.Sprintf("%d bytes, fin %v, %d answers, %+v", len(o.delivered), o.fin, len(o.answers), o.stats)
}

// FuzzIngest splits the fuzzer's bytes into one receive burst of segments
// from a peer (ingestRecord) and hands it to two stacks, one whose device
// checks checksums and whose bursts it chains and one that does both
// itself. They must deliver the same bytes, send the same answers, count
// the same (BadChecksums, out-of-order segments, drops and the rest), and
// hold no frame afterwards. Each must deliver the peer's stream as sent,
// and nothing past a FIN it took. The committed corpus holds an in-order
// 16 KiB burst, an out-of-order one, a FIN amid a burst, a burst past the
// receive window, one whose FIN's text the window cuts short, a FIN
// followed by a chain that starts just before its sequence number, and
// bursts with a corrupted frame.
func FuzzIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var outs [2]ingestOutcome
		for i, offloads := range []bool{true, false} {
			r := newIngestRig(t, offloads)
			outs[i] = r.take(data)
			r.checkStream(t, outs[i])
			r.s.Shutdown(nil)
			if n := r.pool.Outstanding(); n != 0 {
				t.Fatalf("offloads %v: %d frame buffers outstanding after shutdown", offloads, n)
			}
		}
		lro, plain := outs[0], outs[1]
		if !bytes.Equal(lro.delivered, plain.delivered) || lro.fin != plain.fin || lro.stats != plain.stats {
			t.Fatalf("with offloads: %v\nwithout:       %v", lro, plain)
		}
		if len(lro.answers) != len(plain.answers) {
			t.Fatalf("%d answers with offloads, %d without", len(lro.answers), len(plain.answers))
		}
		for i, a := range lro.answers {
			if p := plain.answers[i]; a.seq != p.seq || a.ack != p.ack || a.flags != p.flags || a.window != p.window || !bytes.Equal(a.payload, p.payload) {
				t.Fatalf("answer %d: %+v with offloads, %+v without", i, a, p)
			}
		}
	})
}

// TestNoDataPastFIN: the peer's stream ends at its FIN. Text that arrives
// after it — a segment starting at the FIN's own sequence number, one
// stashed out of order just past it, or a chain of segments (LRO) that
// follows it — is dropped and answered with an ACK of the FIN, on both
// receive paths.
func TestNoDataPastFIN(t *testing.T) {
	// Each case is the bursts the peer sends: fin is 500 bytes and a FIN,
	// at the stream's start, so the FIN's sequence number is seq+500.
	for _, tc := range []struct {
		name   string
		bursts func(r *ingestRig, fin fabric.Frame) [][]fabric.Frame
	}{
		{"data after the FIN", func(r *ingestRig, fin fabric.Frame) [][]fabric.Frame {
			return [][]fabric.Frame{{fin, r.frame(flagACK, r.seq+500, r.ack, 0, ingestStream(r.seq+500, 500))}}
		}},
		{"stash past the FIN", func(r *ingestRig, fin fabric.Frame) [][]fabric.Frame {
			return [][]fabric.Frame{{r.frame(flagACK, r.seq+501, r.ack, 0, ingestStream(r.seq+501, 500))}, {fin}}
		}},
		// The later burst is one chain: its first segment ends at the
		// FIN's next sequence number, so the rest look in order.
		{"chain after the FIN", func(r *ingestRig, fin fabric.Frame) [][]fabric.Frame {
			return [][]fabric.Frame{{fin}, {
				r.frame(flagACK, r.seq+401, r.ack, 0, ingestStream(r.seq+401, 100)),
				r.frame(flagACK, r.seq+501, r.ack, 0, ingestStream(r.seq+501, 500)),
				r.frame(flagACK, r.seq+1001, r.ack, 0, ingestStream(r.seq+1001, 500)),
			}}
		}},
	} {
		for _, offloads := range []bool{true, false} {
			r := newIngestRig(t, offloads)
			fin := r.frame(flagACK|flagFIN, r.seq, r.ack, 0, ingestStream(r.seq, 500))
			for _, b := range tc.bursts(r, fin) {
				r.inject(b...)
				r.s.Poll()
			}
			r.s.Poll()
			got, eof := r.read()
			if len(got) != 500 || !eof {
				t.Errorf("%s, offloads %v: %d bytes delivered (EOF %v), want the 500 before the FIN", tc.name, offloads, len(got), eof)
			}
			answers := r.answers()
			if len(answers) == 0 || answers[len(answers)-1].ack != r.seq+501 {
				t.Errorf("%s, offloads %v: answers %+v, the last not an ACK of the FIN (%d)", tc.name, offloads, answers, r.seq+501)
			}
			r.s.Shutdown(nil)
			if n := r.pool.Outstanding(); n != 0 {
				t.Errorf("%s, offloads %v: %d frame buffers outstanding after shutdown", tc.name, offloads, n)
			}
		}
	}
}

// TestMixedOffloadPeers: a sender with offloads and a receiver without,
// and the other way round, exchange what two peers alike do over a switch
// that corrupts frames — the same frames, so the same bytes and the same
// corrupted frames dropped — because a frame whose sums were left to its
// NIC gets them written in before a receiver that checks in software sees
// it.
func TestMixedOffloadPeers(t *testing.T) {
	run := func(offA, offB bool) (fabric.Stats, int64) {
		model := simclock.Datacenter2019()
		sw := fabric.NewSwitch(&model, 7)
		clk := stoppedClock()
		w := &world{sw: sw, clock: clk,
			devA: nic.New(&model, sw, nic.Config{MAC: macA, NoOffloads: !offA}),
			devB: nic.New(&model, sw, nic.Config{MAC: macB, NoOffloads: !offB})}
		w.a = New(&model, w.devA, Config{IP: ipA, Clock: clk, MaxRetransmits: 64})
		w.b = New(&model, w.devB, Config{IP: ipB, Clock: clk, MaxRetransmits: 64})
		c, s := dialPair(t, w, 9)
		sw.SetImpairments(fabric.Impairments{CorruptRate: 0.1})
		want := ingestStream(0, 200_000)
		var got []byte
		for sent, i := 0, 0; len(got) < len(want); i++ {
			if i == 10_000 {
				t.Fatalf("offloads %v→%v: %d of %d bytes arrived", offA, offB, len(got), len(want))
			}
			if sent < len(want) {
				n, err := c.Send(want[sent:], 0)
				if err != nil {
					t.Fatal(err)
				}
				sent += n
			}
			w.pump()
			got, _, _ = s.RecvAppend(got, 0)
			clk.Step(time.Second) // past any retransmission timeout
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("offloads %v→%v: the stream arrived damaged", offA, offB)
		}
		return sw.Stats(), w.a.Stats().BadChecksums + w.b.Stats().BadChecksums
	}
	wire, bad := run(false, false)
	if bad == 0 {
		t.Fatal("no corrupted frame was dropped")
	}
	for _, pair := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		if gotWire, got := run(pair[0], pair[1]); gotWire != wire || got != bad {
			t.Errorf("offloads %v→%v: %d frames dropped and switch %+v; without offloads %d and %+v", pair[0], pair[1], got, gotWire, bad, wire)
		}
	}
}
