package netstack

import (
	"bytes"
	"math/rand"
	"testing"

	"demikernel/internal/fabric"
)

// openCwnd lifts the client's congestion window out of the way so one
// Send puts a whole multi-segment burst on the wire.
func openCwnd(w *world, c *TCPConn) {
	w.a.mu.Lock()
	c.cwnd = 1 << 20
	w.a.mu.Unlock()
}

func segsSent(s *Stack) int64 { return s.Stats().TCPSegsSent }

// TestAckOnePerInOrderBurst: N in-order segments ingested by one Poll
// are answered by exactly one ACK, and that ACK acknowledges all of
// them and advertises the window as it stands after all of them.
func TestAckOnePerInOrderBurst(t *testing.T) {
	const mss, n = 1000, 10
	w := newWorld(t, Config{MSS: mss}, Config{MSS: mss})
	c, srv := dialPair(t, w, 8000)
	openCwnd(w, c)
	base := c.sndUna

	msg := make([]byte, n*mss)
	rand.New(rand.NewSource(1)).Read(msg)
	if sent, err := c.Send(msg, 0); err != nil || sent != len(msg) {
		t.Fatalf("Send = %d, %v", sent, err)
	}
	if got := w.devB.QueueDepth(0); got != n {
		t.Fatalf("%d frames waiting at the receiver, want the %d-segment burst", got, n)
	}

	before := segsSent(w.b)
	w.b.Poll()
	if acks := segsSent(w.b) - before; acks != 1 {
		t.Fatalf("burst of %d in-order segments drew %d ACKs, want 1", n, acks)
	}
	w.a.Poll()
	w.a.mu.Lock()
	una, wnd, queued := c.sndUna, c.peerWnd, c.sndBuf.Len()
	w.a.mu.Unlock()
	if una != base+n*mss || queued != 0 {
		t.Fatalf("the ACK acknowledged %d bytes (%d still queued), want %d", una-base, queued, n*mss)
	}
	if want := 64*1024 - n*mss; wnd != want {
		t.Fatalf("the ACK advertised window %d, want %d (RxWindow less the burst)", wnd, want)
	}
	if got, _, _ := srv.Recv(0); !bytes.Equal(got, msg) {
		t.Fatal("burst payload corrupted")
	}
}

// TestAckGapIsImmediateAndFastRetransmits: with the first segment of a
// burst lost, every later segment draws its duplicate ACK at once — not
// at the end of the burst — and the third one triggers fast retransmit;
// the retransmission, which fills the gap, is acknowledged at once too.
func TestAckGapIsImmediateAndFastRetransmits(t *testing.T) {
	const mss, n = 1000, 5
	w := newWorld(t, Config{MSS: mss}, Config{MSS: mss})
	c, srv := dialPair(t, w, 8000)
	openCwnd(w, c)

	msg := make([]byte, n*mss)
	rand.New(rand.NewSource(2)).Read(msg)
	if sent, err := c.Send(msg, 0); err != nil || sent != len(msg) {
		t.Fatalf("Send = %d, %v", sent, err)
	}
	// Take the burst off the wire by hand and lose its first segment.
	burst := w.devB.AppendRxBurst(nil, 0, 64)
	if len(burst) != n {
		t.Fatalf("%d frames on the wire, want %d", len(burst), n)
	}
	burst[0].Release()
	w.b.mu.Lock()
	for i, f := range burst[1:] {
		before := w.b.stats.TCPSegsSent
		w.b.handleFrameLocked(f)
		f.Release()
		if acks := w.b.stats.TCPSegsSent - before; acks != 1 {
			w.b.mu.Unlock()
			t.Fatalf("out-of-order segment %d drew %d ACKs before the burst ended, want 1", i+1, acks)
		}
	}
	w.b.mu.Unlock()

	w.a.Poll() // the sender sees n-1 duplicate ACKs in one burst
	st := w.a.Stats()
	if st.DupAcksRcvd != n-1 || st.FastRetransmits != 1 {
		t.Fatalf("dup ACKs %d, fast retransmits %d; want %d and 1", st.DupAcksRcvd, st.FastRetransmits, n-1)
	}

	// The retransmitted head fills the gap: one immediate ACK for it,
	// covering everything that was parked behind it.
	before := segsSent(w.b)
	w.b.mu.Lock()
	for _, f := range w.devB.AppendRxBurst(nil, 0, 64) {
		w.b.handleFrameLocked(f)
		f.Release()
	}
	acks, pending := w.b.stats.TCPSegsSent-before, len(w.b.ackQueue)
	w.b.mu.Unlock()
	if acks != 1 || pending != 0 {
		t.Fatalf("gap-filling segment drew %d immediate ACKs and left %d deferred, want 1 and 0", acks, pending)
	}
	w.pump()
	if got, _, _ := srv.Recv(0); !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted across the fast retransmit")
	}
	if rto := w.a.Stats().Retransmits; rto != 0 {
		t.Fatalf("recovery took %d retransmission timeouts, want fast retransmit only", rto)
	}
}

// TestAckWindowUpdateAfterZeroWindowDrain: when the application drains
// a receive buffer whose window had closed, the window-update ACK goes
// out from the read itself — nothing is in flight to ride, and no burst
// is coming to end.
func TestAckWindowUpdateAfterZeroWindowDrain(t *testing.T) {
	const mss, window = 1024, 4096
	w := newWorld(t, Config{MSS: mss}, Config{MSS: mss, RxWindow: window})
	c, srv := dialPair(t, w, 8000)
	openCwnd(w, c)

	msg := make([]byte, 2*window)
	rand.New(rand.NewSource(3)).Read(msg)
	if sent, err := c.Send(msg, 0); err != nil || sent != len(msg) {
		t.Fatalf("Send = %d, %v", sent, err)
	}
	w.pump()
	w.a.mu.Lock()
	wnd := c.peerWnd
	w.a.mu.Unlock()
	if wnd != 0 {
		t.Fatalf("sender sees window %d after filling the receive buffer, want 0", wnd)
	}

	before := segsSent(w.b)
	got, _, err := srv.Recv(0)
	if err != nil || len(got) != window {
		t.Fatalf("drain returned %d bytes, %v; want %d", len(got), err, window)
	}
	if acks := segsSent(w.b) - before; acks != 1 {
		t.Fatalf("draining a closed window sent %d window updates, want 1", acks)
	}
	w.a.Poll()
	w.pump()
	rest, _, _ := srv.Recv(0)
	if !bytes.Equal(append(got, rest...), msg) {
		t.Fatal("stream corrupted across the window reopen")
	}
	if rt := w.a.Stats().Retransmits; rt != 0 {
		t.Fatalf("the window reopened by %d timeouts, want by the window-update ACK", rt)
	}
}

// TestAckDeferredNeverOutlivesPoll: whatever mix of in-order data
// arrives, no acknowledgement is still owed when Poll returns.
func TestAckDeferredNeverOutlivesPoll(t *testing.T) {
	w := newWorld(t, Config{MSS: 700}, Config{MSS: 700})
	c, srv := dialPair(t, w, 8000)
	w.sw.SetImpairments(fabric.Impairments{ReorderRate: 0.2, DupRate: 0.1})
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		if _, err := c.Send(make([]byte, 1+r.Intn(5000)), 0); err != nil {
			t.Fatal(err)
		}
		w.a.Poll()
		w.b.Poll()
		w.b.mu.Lock()
		queued, pending := len(w.b.ackQueue), srv.ackPending
		w.b.mu.Unlock()
		if queued != 0 || pending {
			t.Fatalf("round %d: Poll returned with %d connections queued for an ACK (pending=%v)", i, queued, pending)
		}
		srv.Recv(0)
	}
}
