package fabric

import (
	"bytes"
	"fmt"
	"testing"

	"demikernel/internal/simclock"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0xA}
	macB = MAC{0x02, 0, 0, 0, 0, 0xB}
)

func frame(dst, src MAC, payload string) Frame {
	data := make([]byte, 0, 14+len(payload))
	data = append(data, dst[:]...)
	data = append(data, src[:]...)
	data = append(data, 0x08, 0x00)
	data = append(data, payload...)
	return Frame{Data: data}
}

func newTestSwitch() *Switch {
	model := simclock.Datacenter2019()
	return NewSwitch(&model, 1)
}

func TestMACString(t *testing.T) {
	if got := macA.String(); got != "02:00:00:00:00:0a" {
		t.Fatalf("MAC.String = %q", got)
	}
	if !Broadcast.IsBroadcast() {
		t.Fatal("Broadcast must report IsBroadcast")
	}
	if macA.IsBroadcast() {
		t.Fatal("unicast MAC reports broadcast")
	}
}

func TestFloodThenLearn(t *testing.T) {
	sw := newTestSwitch()
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	pc := sw.NewPort(0)

	// A sends to B before anyone is learned: flood to B and C, not A.
	pa.Send(frame(macB, macA, "hello"))
	if _, ok := pa.Poll(); ok {
		t.Fatal("sender received its own flooded frame")
	}
	fb, ok := pb.Poll()
	if !ok {
		t.Fatal("B missed the flooded frame")
	}
	if string(fb.Data[14:]) != "hello" {
		t.Fatalf("payload = %q", fb.Data[14:])
	}
	if _, ok := pc.Poll(); !ok {
		t.Fatal("C missed the flooded frame")
	}

	// B replies; the switch has learned A, so only A receives.
	pb.Send(frame(macA, macB, "re"))
	if _, ok := pa.Poll(); !ok {
		t.Fatal("A missed the reply")
	}
	if _, ok := pc.Poll(); ok {
		t.Fatal("C received a unicast frame after learning")
	}

	// Now A→B is also learned.
	pa.Send(frame(macB, macA, "again"))
	if _, ok := pc.Poll(); ok {
		t.Fatal("C received learned unicast traffic")
	}
	if _, ok := pb.Poll(); !ok {
		t.Fatal("B missed learned unicast traffic")
	}

	// A's MAC turns up behind C's port: the table entry is rewritten only
	// when it changes, and this is the change.
	pc.Send(frame(macB, macA, "moved"))
	if _, ok := pb.Poll(); !ok {
		t.Fatal("B missed the frame from A's new port")
	}
	pb.Send(frame(macA, macB, "follow"))
	if _, ok := pa.Poll(); ok {
		t.Fatal("A's old port still receives its traffic after the MAC moved")
	}
	if _, ok := pc.Poll(); !ok {
		t.Fatal("traffic for a moved MAC did not follow it to the new port")
	}
}

func TestBroadcastFloods(t *testing.T) {
	sw := newTestSwitch()
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	pc := sw.NewPort(0)
	pa.Send(frame(Broadcast, macA, "arp"))
	if _, ok := pb.Poll(); !ok {
		t.Fatal("B missed broadcast")
	}
	if _, ok := pc.Poll(); !ok {
		t.Fatal("C missed broadcast")
	}
	if _, ok := pa.Poll(); ok {
		t.Fatal("sender got its own broadcast")
	}
}

func TestWireCostAccumulates(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := NewSwitch(&model, 1)
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	_ = pb
	in := frame(macB, macA, "x")
	in.Cost = 100
	pa.Send(in)
	// flooded to b
	got, ok := sw.ports[1].Poll()
	if !ok {
		t.Fatal("no frame")
	}
	want := simclock.Lat(100) + model.WireDelayNS
	if got.Cost != want {
		t.Fatalf("cost = %v, want %v", got.Cost, want)
	}
	_ = pa
}

func TestRuntFramesDropped(t *testing.T) {
	sw := newTestSwitch()
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	pa.Send(Frame{Data: []byte{1, 2, 3}})
	if _, ok := pb.Poll(); ok {
		t.Fatal("runt frame was delivered")
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	sw := newTestSwitch()
	pa := sw.NewPort(0)
	pb := sw.NewPort(2) // tiny ring
	_ = pb
	for i := 0; i < 10; i++ {
		pa.Send(frame(macB, macA, "spam"))
	}
	// macB is unknown, so every send floods to pb alone: its two slots take
	// the first two frames and each of the other eight is one overflow.
	st := sw.Stats()
	if st.Delivered != 2 || st.DroppedRxFull != 8 {
		t.Fatalf("delivered %d, dropped on a full ring %d; want 2 and 8", st.Delivered, st.DroppedRxFull)
	}
	// Conservation: every frame delivered is in the ring, once, in order.
	for i := 0; i < 2; i++ {
		if f, ok := pb.Poll(); !ok || string(f.Data[MinFrameLen:]) != "spam" {
			t.Fatalf("poll %d of the ring: %v", i, ok)
		}
	}
	if _, ok := pb.Poll(); ok {
		t.Fatal("the ring gave back more frames than it was delivered")
	}
	// Drained, the ring takes frames again.
	pa.Send(frame(macB, macA, "spam"))
	if st := sw.Stats(); st.Delivered != 3 || st.DroppedRxFull != 8 || st.Delivered+st.DroppedRxFull != st.Flooded {
		t.Fatalf("after a drain: %+v", st)
	}
}

func TestLossInjection(t *testing.T) {
	sw := newTestSwitch()
	sw.SetImpairments(Impairments{LossRate: 1.0})
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	for i := 0; i < 5; i++ {
		pa.Send(frame(macB, macA, "gone"))
	}
	if _, ok := pb.Poll(); ok {
		t.Fatal("frame survived 100% loss")
	}
	if sw.Stats().InjectedLoss != 5 {
		t.Fatalf("InjectedLoss = %d, want 5", sw.Stats().InjectedLoss)
	}
}

func TestDuplicationInjection(t *testing.T) {
	sw := newTestSwitch()
	sw.SetImpairments(Impairments{DupRate: 1.0})
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	_ = pb
	pa.Send(frame(macB, macA, "twice"))
	n := 0
	for {
		if _, ok := sw.ports[1].Poll(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("received %d copies, want 2", n)
	}
}

func TestReorderInjection(t *testing.T) {
	sw := newTestSwitch()
	sw.SetImpairments(Impairments{ReorderRate: 1.0})
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	_ = pb
	pa.Send(frame(macB, macA, "1")) // held
	pa.Send(frame(macB, macA, "2")) // delivered first, then "1"
	var got []string
	for {
		f, ok := sw.ports[1].Poll()
		if !ok {
			break
		}
		got = append(got, string(f.Data[14:]))
	}
	if len(got) != 2 || got[0] != "2" || got[1] != "1" {
		t.Fatalf("order = %v, want [2 1]", got)
	}
}

func TestFlushReleasesHeldFrame(t *testing.T) {
	sw := newTestSwitch()
	sw.SetImpairments(Impairments{ReorderRate: 1.0})
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	_ = pb
	pa.Send(frame(macB, macA, "held"))
	if _, ok := sw.ports[1].Poll(); ok {
		t.Fatal("held frame delivered early")
	}
	sw.Flush()
	if _, ok := sw.ports[1].Poll(); !ok {
		t.Fatal("Flush did not release the held frame")
	}
}

func TestLinkDownDropsAtSender(t *testing.T) {
	sw := newTestSwitch()
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)

	sw.SetLinkState(pa.ID(), false)
	for i := 0; i < 3; i++ {
		pa.Send(frame(macB, macA, "void"))
	}
	if _, ok := pb.Poll(); ok {
		t.Fatal("frame crossed an administratively down link")
	}
	if got := sw.Stats().LinkDownDrops; got != 3 {
		t.Fatalf("global LinkDownDrops = %d, want 3", got)
	}
	if got := sw.PortStats(pa.ID()).LinkDownDrops; got != 3 {
		t.Fatalf("port %d LinkDownDrops = %d, want 3", pa.ID(), got)
	}
	if got := sw.PortStats(pb.ID()).LinkDownDrops; got != 0 {
		t.Fatalf("receiver port charged %d LinkDownDrops for a tx-side cut", got)
	}

	// Healing the link restores delivery.
	sw.SetLinkState(pa.ID(), true)
	pa.Send(frame(macB, macA, "back"))
	f, ok := pb.Poll()
	if !ok {
		t.Fatal("no delivery after the link came back up")
	}
	if string(f.Data[14:]) != "back" {
		t.Fatalf("payload after heal = %q", f.Data[14:])
	}
}

func TestLinkDownDropsAtReceiver(t *testing.T) {
	sw := newTestSwitch()
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)

	// Teach the switch where B lives so the frame is unicast, then cut B.
	pb.Send(frame(macA, macB, "learn"))
	pa.Poll()
	sw.SetLinkState(pb.ID(), false)

	pa.Send(frame(macB, macA, "drowned"))
	if _, ok := pb.Poll(); ok {
		t.Fatal("frame delivered to a down port")
	}
	if got := sw.Stats().LinkDownDrops; got != 1 {
		t.Fatalf("global LinkDownDrops = %d, want 1", got)
	}
	// The drop is attributed to the receiver's port, not the sender's.
	if got := sw.PortStats(pb.ID()).LinkDownDrops; got != 1 {
		t.Fatalf("receiver port LinkDownDrops = %d, want 1", got)
	}
	if got := sw.PortStats(pa.ID()).LinkDownDrops; got != 0 {
		t.Fatalf("sender port LinkDownDrops = %d, want 0", got)
	}
}

func TestCorruptionInjection(t *testing.T) {
	sw := newTestSwitch()
	sw.SetImpairments(Impairments{CorruptRate: 1.0})
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)

	sent := frame(macB, macA, "precious payload")
	orig := append([]byte(nil), sent.Data...)
	pa.Send(sent)

	got, ok := pb.Poll()
	if !ok {
		t.Fatal("corrupted frame was not delivered (corruption must not drop)")
	}
	// Exactly one byte differs, and only past the Ethernet header.
	diffs := 0
	for i := range orig {
		if got.Data[i] != orig[i] {
			diffs++
			if i < MinFrameLen {
				t.Fatalf("corruption touched header byte %d", i)
			}
		}
	}
	if diffs != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diffs)
	}
	// The frame is marked with the byte: what a receiving NIC that checks
	// checksums in hardware reads its verdict from.
	if i := got.Flip() - 1; got.Flip() == 0 || got.Data[i] != orig[i]^0xFF {
		t.Fatalf("Flip = %d does not mark the flipped byte", got.Flip())
	}
	// The sender's buffer is untouched: corruption copies.
	for i := range orig {
		if sent.Data[i] != orig[i] {
			t.Fatal("corruption scribbled on the sender's buffer")
		}
	}
	if got := sw.Stats().InjectedCorrupt; got != 1 {
		t.Fatalf("global InjectedCorrupt = %d, want 1", got)
	}
	if got := sw.PortStats(pa.ID()).InjectedCorrupt; got != 1 {
		t.Fatalf("port InjectedCorrupt = %d, want 1", got)
	}
}

func TestPortStatsCountTxAndDelivered(t *testing.T) {
	sw := newTestSwitch()
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)

	// Learn both directions so traffic is unicast.
	pa.Send(frame(macB, macA, "l1"))
	pb.Poll()
	pb.Send(frame(macA, macB, "l2"))
	pa.Poll()

	for i := 0; i < 4; i++ {
		pa.Send(frame(macB, macA, "x"))
		pb.Poll()
	}
	sa, sb := sw.PortStats(pa.ID()), sw.PortStats(pb.ID())
	if sa.TxFrames != 5 { // learn + 4
		t.Fatalf("A TxFrames = %d, want 5", sa.TxFrames)
	}
	if sb.Delivered != 5 {
		t.Fatalf("B Delivered = %d, want 5", sb.Delivered)
	}
}

func TestDeterministicInjection(t *testing.T) {
	run := func() Stats {
		model := simclock.Datacenter2019()
		sw := NewSwitch(&model, 42)
		sw.SetImpairments(Impairments{LossRate: 0.3, DupRate: 0.2})
		pa := sw.NewPort(0)
		pb := sw.NewPort(0)
		_ = pb
		for i := 0; i < 200; i++ {
			pa.Send(frame(macB, macA, "d"))
		}
		return sw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different stats: %+v vs %+v", a, b)
	}
}

// TestSendBurstIsSends: a burst through SendBurst meets the faults that
// the same frames sent one by one do — each frame its own draws, in order
// — and comes out the far side identical, marks included.
func TestSendBurstIsSends(t *testing.T) {
	run := func(burst bool) ([]Frame, Stats) {
		model := simclock.Datacenter2019()
		sw := NewSwitch(&model, 42)
		sw.SetImpairments(Impairments{LossRate: 0.1, DupRate: 0.1, ReorderRate: 0.1, CorruptRate: 0.1})
		pa, pb := sw.NewPort(0), sw.NewPort(0)
		var frames []Frame
		for i := 0; i < 300; i++ {
			f := frame(macB, macA, fmt.Sprintf("frame %03d", i))
			f.SetCsum(CsumPending)
			frames = append(frames, f)
		}
		if burst {
			pa.SendBurst(frames)
		} else {
			for _, f := range frames {
				pa.Send(f)
			}
		}
		sw.Flush()
		var got []Frame
		for f, ok := pb.Poll(); ok; f, ok = pb.Poll() {
			got = append(got, f)
		}
		return got, sw.Stats()
	}
	sends, sendStats := run(false)
	burst, burstStats := run(true)
	if sendStats != burstStats || sendStats.InjectedCorrupt == 0 {
		t.Fatalf("one by one %+v, in a burst %+v", sendStats, burstStats)
	}
	if len(sends) != len(burst) {
		t.Fatalf("%d frames delivered one by one, %d in a burst", len(sends), len(burst))
	}
	for i := range sends {
		a, b := sends[i], burst[i]
		if !bytes.Equal(a.Data, b.Data) || a.Flip() != b.Flip() || a.Csum() != b.Csum() || a.Cost != b.Cost {
			t.Fatalf("frame %d: %q flip %d one by one, %q flip %d in a burst", i, a.Data, a.Flip(), b.Data, b.Flip())
		}
	}
}
