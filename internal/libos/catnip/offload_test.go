package catnip

// Checksum and segmentation offload seen from two transports: the wire
// carries what it carried without them, frame for frame, under every
// fault the switch injects; and the stacks' TCP machines handle a fraction
// of the segments the wire does.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/nic"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
)

// handled is what t's TCP machine has handled: the sends it handed its
// device and its runs over received segments.
func handled(t *Transport) int64 {
	st := t.Stack().Stats()
	return st.TCPDescsSent + st.TCPChainsRcvd
}

// wireSegs is the TCP segments both transports of r have put on the wire.
func (r *wlRig) wireSegs() int64 {
	return r.ta.Stack().Stats().TCPSegsSent + r.tb.Stack().Stats().TCPSegsSent
}

// stackSegs is what both transports' TCP machines have handled, halved: a
// segment a device cuts or a stack chains is not handled on its own, and
// without offloads every wire segment is handled twice, sent and received.
func (r *wlRig) stackSegs() float64 {
	return float64(handled(r.ta)+handled(r.tb)) / 2
}

// TestOffloadSegmentCounts: with offloads a 16 KiB stream still puts 12.51
// segments a message on the wire, and each transport's TCP machine handles
// at most a quarter of that; a 64 B echo is one send and one received chain
// a message on each side, as it is one segment. Without offloads the
// machine handles every segment, which is what the counters must then say.
func TestOffloadSegmentCounts(t *testing.T) {
	for _, plain := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream16k/NoOffloads=%v", plain), func(t *testing.T) {
			r := newWLRigOn(t, 1, nic.Config{NoOffloads: plain}, privatePools)
			s := newStream16k(r)
			s.deliver(64)
			s.drain()
			wire0, ha0, hb0, from := r.wireSegs(), handled(r.ta), handled(r.tb), s.delivered
			s.deliver(256)
			s.drain()
			n := float64(s.delivered - from)
			wire := float64(r.wireSegs()-wire0) / n
			if got := fmt.Sprintf("%.2f", wire); got != "12.51" {
				t.Errorf("%s wire segments a message, want 12.51", got)
			}
			for side, got := range map[string]float64{
				"dialer":   float64(handled(r.ta)-ha0) / n,
				"listener": float64(handled(r.tb)-hb0) / n,
			} {
				if !plain && got > wire/4 {
					t.Errorf("%s's TCP machine handled %.2f segments a message, want at most %.2f", side, got, wire/4)
				}
				t.Logf("%s handled %.2f a message", side, got)
			}
			for _, tr := range []*Transport{r.ta, r.tb} {
				if st := tr.Stack().Stats(); plain && (st.TCPDescsSent != st.TCPSegsSent || st.TCPChainsRcvd != st.TCPSegsRcvd) {
					t.Errorf("without offloads: %d sends for %d segments sent, %d runs for %d received", st.TCPDescsSent, st.TCPSegsSent, st.TCPChainsRcvd, st.TCPSegsRcvd)
				}
			}
		})
	}
	t.Run("echo64", func(t *testing.T) {
		r := newWLRig(t, 0)
		e := newEchoLoop(r)
		for i := 0; i < 64; i++ {
			e.echo()
		}
		before := [2]netstackStats{stackStats(r.ta), stackStats(r.tb)}
		const n = 256
		for i := 0; i < n; i++ {
			e.echo()
		}
		if e.echoes != 64+n {
			t.Fatalf("%d echoes, want %d", e.echoes, 64+n)
		}
		for i, tr := range []*Transport{r.ta, r.tb} {
			d := stackStats(tr).sub(before[i])
			if d != (netstackStats{sent: n, descs: n, rcvd: n, chains: n}) {
				t.Errorf("transport %d over %d echoes: %+v, want one segment, send and chain a message each way", i, n, d)
			}
		}
	})
}

// netstackStats is the segment counters of one stack.
type netstackStats struct{ sent, descs, rcvd, chains int64 }

func stackStats(t *Transport) netstackStats {
	st := t.Stack().Stats()
	return netstackStats{st.TCPSegsSent, st.TCPDescsSent, st.TCPSegsRcvd, st.TCPChainsRcvd}
}

func (a netstackStats) sub(b netstackStats) netstackStats {
	return netstackStats{a.sent - b.sent, a.descs - b.descs, a.rcvd - b.rcvd, a.chains - b.chains}
}

// wireFrame is what the differential test compares of a frame: everything
// TCP/IP put in its headers but the two checksums, and its length.
type wireFrame struct {
	len, ipID  int
	seq, ack   uint32
	flags, wnd int
}

func (f wireFrame) String() string {
	return fmt.Sprintf("len %d id %d seq %d ack %d flags %#02x wnd %d", f.len, f.ipID, f.seq, f.ack, f.flags, f.wnd)
}

// wireRun is one differential run: the frames each NIC was delivered, in
// order, and what came out.
type wireRun struct {
	frames      [2][]wireFrame
	delivered   []byte
	bad         int64
	fabric      fabric.Stats
	sends, segs int64 // TCP sends the stacks handed their devices, segments those were
}

// streamUnderFaults streams msgs messages of assorted sizes from a to b
// through a switch injecting imp from seed, on devices with offloads or
// without, stepping the stopped clock whenever a round of polls moves
// nothing, and records the run.
func streamUnderFaults(t *testing.T, seed int64, imp fabric.Impairments, plain bool, msgs int) wireRun {
	var run wireRun
	r := newWLRigOn(t, seed, nic.Config{NoOffloads: plain}, func(a, b *Config) { a.MaxRetransmits, b.MaxRetransmits = 64, 64 })
	for i, tr := range []*Transport{r.ta, r.tb} {
		i := i
		tr.dev.AddFilter(nic.HWFilter{Match: func(f []byte) bool {
			if len(f) >= 54 && f[12] == 0x08 && f[13] == 0x00 && f[14+9] == 6 {
				run.frames[i] = append(run.frames[i], wireFrame{
					len: len(f), ipID: int(binary.BigEndian.Uint16(f[18:])),
					seq: binary.BigEndian.Uint32(f[38:]), ack: binary.BigEndian.Uint32(f[42:]),
					flags: int(f[47]), wnd: int(binary.BigEndian.Uint16(f[48:])),
				})
			}
			return false
		}})
	}
	a, b := r.connect()
	r.sw.SetImpairments(imp)
	var want []byte
	for i := 0; i < msgs; i++ {
		m := pattern(1+(i*7919)%20000, byte(i))
		want = append(want, m...)
		a.Push(sga.New(m), 0, func(queue.Completion) {})
	}
	var popped func(c queue.Completion)
	popped = func(c queue.Completion) {
		if c.Err != nil {
			t.Fatalf("pop: %v", c.Err)
		}
		run.delivered = append(run.delivered, c.SGA.Bytes()...)
		c.SGA.Free()
		b.Pop(popped)
	}
	b.Pop(popped)
	for quiet := 0; len(run.delivered) < len(want); {
		before := len(run.frames[0]) + len(run.frames[1])
		r.poll()
		if len(run.frames[0])+len(run.frames[1]) != before {
			quiet = 0
			continue
		}
		r.sw.Flush()
		if quiet++; quiet > 2 {
			r.advance(time.Second)
			quiet = 0
		}
	}
	if !bytes.Equal(run.delivered, want) {
		t.Fatalf("NoOffloads=%v: %d bytes delivered differ from the %d pushed", plain, len(run.delivered), len(want))
	}
	for _, tr := range []*Transport{r.ta, r.tb} {
		st := tr.Stack().Stats()
		run.bad += st.BadChecksums
		run.sends += st.TCPDescsSent
		run.segs += st.TCPSegsSent
	}
	run.fabric = r.sw.Stats()
	return run
}

// TestOffloadWireUnchanged: the same stream over the same faulty switch,
// once on devices with checksum and segmentation offload and once without,
// puts the same frames on the wire — cut at the same bytes, with the same
// IP ids, sequence and acknowledgement numbers, flags and windows, in the
// same order, so the switch draws the same faults — drops the same
// corrupted frames and delivers the same bytes. Only the checksum fields,
// which the offloading devices leave to the mark the fabric carries, may
// differ.
func TestOffloadWireUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		imp  fabric.Impairments
	}{
		{"loss", fabric.Impairments{LossRate: 0.03}},
		{"dup", fabric.Impairments{DupRate: 0.05}},
		{"reorder", fabric.Impairments{ReorderRate: 0.05}},
		{"corrupt", fabric.Impairments{CorruptRate: 0.05}},
		{"all", fabric.Impairments{LossRate: 0.02, DupRate: 0.02, ReorderRate: 0.02, CorruptRate: 0.02}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				off := streamUnderFaults(t, seed, tc.imp, false, 40)
				plain := streamUnderFaults(t, seed, tc.imp, true, 40)
				for side := range off.frames {
					o, p := off.frames[side], plain.frames[side]
					for i := range min(len(o), len(p)) {
						if o[i] != p[i] {
							t.Fatalf("NIC %d frame %d: with offloads %v, without %v", side, i, o[i], p[i])
						}
					}
					if len(o) != len(p) {
						t.Fatalf("NIC %d was delivered %d frames with offloads, %d without", side, len(o), len(p))
					}
				}
				if off.fabric != plain.fabric {
					t.Errorf("switch counters: with offloads %+v, without %+v", off.fabric, plain.fabric)
				}
				if off.bad != plain.bad {
					t.Errorf("BadChecksums: %d with offloads, %d without", off.bad, plain.bad)
				}
				if tc.imp.CorruptRate > 0 && off.bad == 0 {
					t.Errorf("no corrupted frame was dropped")
				}
				if off.sends >= off.segs || plain.sends != plain.segs {
					t.Errorf("%d sends for %d segments with offloads, %d for %d without", off.sends, off.segs, plain.sends, plain.segs)
				}
			})
		}
	}
}
