package nic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

// tsoHeader is an Ethernet, IPv4 and TCP header from macA to macB with IP
// id 7 and sequence number 1000, checksums left to the device.
func tsoHeader() []byte {
	h := ethFrame(macB, macA, "")
	h = append(h, 0x45, 0, 0, 0, 0, 7, 0, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2)
	h = binary.BigEndian.AppendUint16(h, 1)
	h = binary.BigEndian.AppendUint16(h, 2)
	h = binary.BigEndian.AppendUint32(h, 1000)
	h = binary.BigEndian.AppendUint32(h, 5)
	return append(h, 0x50, 0x18, 0x10, 0, 0, 0, 0, 0)
}

// TestTSOCutsAtMSS: a descriptor of 350 bytes held as two spans, the
// split inside a frame, leaves as frames of 100, 100, 100 and 50 bytes, in
// order and in one burst, each the header with its own IP total length and
// id and sequence number and its slice of the payload, with the pending
// checksum mark and the descriptor's cost plus the device's.
func TestTSOCutsAtMSS(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 7)
	dev := New(&model, sw, Config{MAC: macA})
	rx := sw.NewPort(0)
	dev.Tx(ethFrame(macB, macA, "learn"), 0)
	rx.Send(fabric.Frame{Data: ethFrame(macA, macB, "learn")})
	rx.Poll()

	payload := make([]byte, 350)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	hdr := tsoHeader()
	tso := &TSO{Hdr: hdr, Payload: [2][]byte{payload[:130], payload[130:]}, MSS: 100, Cost: 11, Pool: fabric.NewFramePool()}
	if refused := dev.TxTSO(tso); refused != 0 || len(tso.Frames) != 0 {
		t.Fatalf("TxTSO refused %d frames and left %d in the scratch", refused, len(tso.Frames))
	}
	for i, n := range []int{100, 100, 100, 50} {
		f, ok := rx.Poll()
		if !ok {
			t.Fatalf("frame %d never arrived", i)
		}
		want := append([]byte(nil), hdr...)
		binary.BigEndian.PutUint16(want[ipOff+2:], uint16(20+20+n))
		binary.BigEndian.PutUint16(want[ipOff+4:], uint16(7+i))
		binary.BigEndian.PutUint32(want[tcpOff+4:], uint32(1000+100*i))
		want = append(want, payload[100*i:100*i+n]...)
		if !bytes.Equal(f.Data, want) {
			t.Fatalf("frame %d:\n got %x\nwant %x", i, f.Data, want)
		}
		if wantCost := 11 + model.NICProcessNS + model.DMACost(len(want)) + model.WireDelayNS; f.Csum() != fabric.CsumPending || f.Cost != wantCost {
			t.Fatalf("frame %d: csum %d cost %v, want pending and %v", i, f.Csum(), f.Cost, wantCost)
		}
		f.Release()
	}
	if _, ok := rx.Poll(); ok {
		t.Fatal("a fifth frame arrived")
	}
	if st := dev.Stats(); st.TxFrames != 5 { // the learning frame and four
		t.Fatalf("TxFrames = %d, want 5", st.TxFrames)
	}
}

// refuseAll is a frame quota with no room.
type refuseAll struct{}

func (refuseAll) ChargeFrame(int) bool { return false }
func (refuseAll) CreditFrame(int)      {}

// TestTSORefusedFramesCount: frames the pool has no buffer for are lost
// and counted, as a failed descriptor allocation is.
func TestTSORefusedFramesCount(t *testing.T) {
	a, _, _ := pair(t)
	pool := fabric.NewFramePool()
	pool.SetOwner("tenant", refuseAll{})
	tso := &TSO{Hdr: tsoHeader(), Payload: [2][]byte{make([]byte, 250)}, MSS: 100, Pool: pool}
	if refused := a.TxTSO(tso); refused != 3 {
		t.Fatalf("TxTSO refused %d frames, want 3", refused)
	}
}

// TestChecksumVerdict: a device with offloads judges a pending frame by
// the fabric's corruption mark — intact is good, a byte flipped in the
// IPv4 header fails that header's sum, one past it the TCP sum; a device
// without offloads, and any frame whose sums are in its bytes, get no
// verdict.
func TestChecksumVerdict(t *testing.T) {
	for _, tc := range []struct {
		flip     int32
		csum     fabric.Csum
		plain    bool
		want     fabric.Csum
		scenario string
	}{
		{0, fabric.CsumPending, false, fabric.CsumGood, "intact"},
		{ipOff + 1, fabric.CsumPending, false, fabric.CsumBadIP, "first IPv4 byte"},
		{tcpOff, fabric.CsumPending, false, fabric.CsumBadIP, "last IPv4 byte"},
		{tcpOff + 1, fabric.CsumPending, false, fabric.CsumBadL4, "first TCP byte"},
		{60, fabric.CsumPending, false, fabric.CsumBadL4, "payload"},
		{60, fabric.CsumNone, false, fabric.CsumNone, "sums in the bytes"},
		{60, fabric.CsumPending, true, fabric.CsumPending, "device without offloads"},
	} {
		model := simclock.Datacenter2019()
		sw := fabric.NewSwitch(&model, 7)
		tx := sw.NewPort(0)
		rx := New(&model, sw, Config{MAC: macB, NoOffloads: tc.plain})
		f := fabric.Frame{Data: append(tsoHeader(), "payload bytes"...)}
		f.SetCsum(tc.csum)
		if tc.flip != 0 {
			f.Corrupt(int(tc.flip) - 1)
		}
		tx.Send(f)
		got := rx.RxBurst(0, 1)
		if len(got) != 1 || got[0].Csum() != tc.want {
			t.Errorf("%s: got %v, want verdict %d", tc.scenario, got, tc.want)
		}
	}
}
