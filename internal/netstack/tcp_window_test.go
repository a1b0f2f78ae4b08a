package netstack

// Regression tests for the slow-client stall bugs surfaced by the HTTP
// workload: a receiver that drains late must (a) announce the reopened
// window instead of leaving the sender to discover it via RTO, (b)
// deliver out-of-order segments parked while the reassembly buffer was
// full, and (c) a sender whose window-update ACK was lost must probe the
// zero window instead of deadlocking. Each test fails deterministically
// when its fix in tcp.go is reverted.

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// TestTCPWindowReopenNoRetransmit: the sender fills the receiver's tiny
// window and stalls with nothing in flight; the application then drains.
// RecvAppend must emit the window-update ACK itself — the transfer has to
// complete with zero retransmissions (before the fix, every reopen cost
// one RTO-driven retransmit).
func TestTCPWindowReopenNoRetransmit(t *testing.T) {
	// RTO is set far above the test's runtime so an RTO-based recovery
	// cannot masquerade as success: without the window-update ACK the
	// transfer stalls until the retransmit fires and the stat trips.
	w := newWorld(t, Config{MSS: 512, RTO: 500 * time.Millisecond},
		Config{MSS: 512, RxWindow: 1024, RTO: 500 * time.Millisecond})
	c, srv := dialPair(t, w, 8000)
	msg := make([]byte, 8_000)
	rand.New(rand.NewSource(11)).Read(msg)
	sent := 0
	// Fill the window without draining: the sender must stall around the
	// 1024-byte advertised window with everything it sent ACKed.
	for i := 0; i < 50; i++ {
		if sent < len(msg) {
			n, err := c.Send(msg[sent:], 0)
			if err != nil {
				t.Fatal(err)
			}
			sent += n
		}
		w.pump()
	}
	h := srv.Hold()
	buffered := h.c.rcvBuf.Len()
	h.Release()
	if buffered == 0 {
		t.Fatal("receiver buffered nothing; stall never engaged")
	}
	// Drain-and-refill: every RecvAppend that reopens the window must
	// unblock the sender by itself.
	var got []byte
	w.pumpUntil(t, func() bool {
		if sent < len(msg) {
			n, _ := c.Send(msg[sent:], 0)
			sent += n
		}
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 10*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted across window reopens")
	}
	if rt, frt := w.a.Stats().Retransmits, w.a.Stats().FastRetransmits; rt != 0 || frt != 0 {
		t.Fatalf("window reopens recovered via retransmission (rto=%d fast=%d), want window-update ACKs", rt, frt)
	}
}

// TestTCPRecvRedrainsOutOfOrder: an out-of-order segment parked because
// the reassembly buffer had no room (space < len(payload) in
// drainOutOfOrderLocked) must be delivered when the application drains —
// not held until the sender retransmits it. Segments are injected
// directly into the connection so no retransmission can ever repair a
// miss: before the fix the parked bytes are simply never delivered.
func TestTCPRecvRedrainsOutOfOrder(t *testing.T) {
	// Both ways of reading: Recv, and a consumer of the ring's spans, for
	// which this is the case that makes spans stale after a discard.
	for name, recv := range map[string]func(srv *TCPConn) []byte{
		"Recv": func(srv *TCPConn) []byte {
			b, _, err := srv.Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"RecvSpans+RecvDiscard": func(srv *TCPConn) []byte {
			h := srv.Hold()
			defer h.Release()
			first, second, _, err := h.RecvSpans()
			if err != nil {
				t.Fatal(err)
			}
			b := append(append([]byte(nil), first...), second...)
			h.RecvDiscard(len(b))
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Config{MSS: 512}, Config{MSS: 512, RxWindow: 1024})
			_, srv := dialPair(t, w, 8000)

			full := make([]byte, 1536)
			rand.New(rand.NewSource(12)).Read(full)
			base := srv.rcvNxt
			inject := func(off, n int) {
				w.b.mu.Lock()
				srv.handleSegmentLocked(tcpSegment{
					srcPort: srv.key.remotePort,
					dstPort: srv.key.localPort,
					seq:     base + uint32(off),
					ack:     srv.sndNxt,
					flags:   flagACK | flagPSH,
					window:  0xffff,
					payload: full[off : off+n],
				}, 0)
				w.b.mu.Unlock()
			}
			inject(0, 768)    // in-order: rcvBuf holds 768, space 256
			inject(1024, 512) // future segment: stashed in ooo
			inject(768, 256)  // fills the gap exactly; rcvBuf full (1024)
			// The stashed segment cannot drain yet: space (0) < payload (512).
			if len(srv.ooo) != 1 {
				t.Fatalf("ooo stash = %d segments, want 1 parked", len(srv.ooo))
			}

			got := recv(srv)
			if len(got) != 1024 {
				t.Fatalf("first drain returned %d bytes, want 1024", len(got))
			}
			// The drain freed 1024 bytes of window; the parked segment must have
			// moved into rcvBuf during the same call.
			if len(srv.ooo) != 0 {
				t.Fatal("out-of-order segment still parked after the app drained")
			}
			got = append(got, recv(srv)...)
			if !bytes.Equal(got, full) {
				t.Fatalf("reassembled %d bytes, corrupt or short (want %d)", len(got), len(full))
			}
		})
	}
}

// TestTCPZeroWindowProbeRecoversLostUpdate: the sender goes fully ACKed
// against a zero window, the receiver's window-update ACK is lost on a
// down link, and the application then queues more data. Nothing is in
// flight, so only a persist-timer probe can discover the reopened
// window; before the fix the connection deadlocks silently.
func TestTCPZeroWindowProbeRecoversLostUpdate(t *testing.T) {
	w := newWorld(t, Config{MSS: 512, RTO: 5 * time.Millisecond},
		Config{MSS: 512, RxWindow: 1024, RTO: 5 * time.Millisecond})
	c, srv := dialPair(t, w, 8000)
	msg := make([]byte, 1536)
	rand.New(rand.NewSource(13)).Read(msg)

	// Phase 1: fill the receiver's window exactly. Everything sent is
	// ACKed (final ACK advertises window 0), so the sender's sndBuf
	// empties and its retransmission timer is cleared — the quiescent
	// state with no recovery traffic in flight.
	if n, err := c.Send(msg[:1024], 0); err != nil || n != 1024 {
		t.Fatalf("Send = %d, %v", n, err)
	}
	w.pumpUntil(t, func() bool {
		w.b.mu.Lock()
		filled := srv.rcvBuf.Len() == 1024
		w.b.mu.Unlock()
		w.a.mu.Lock()
		drained := c.sndBuf.Len() == 0 && c.peerWnd == 0
		w.a.mu.Unlock()
		return filled && drained
	}, 5*time.Second)

	// Phase 2: cut the receiver's link and drain the application. The
	// window-update ACK the drain emits dies on the wire.
	w.sw.SetLinkState(w.devB.PortID(), false)
	got, _, err := srv.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 {
		t.Fatalf("drained %d bytes, want 1024", len(got))
	}
	w.pump() // flush the doomed ACK into the down link
	w.sw.SetLinkState(w.devB.PortID(), true)
	if w.sw.Stats().LinkDownDrops == 0 {
		t.Fatal("window update was not dropped; the lost-ACK scenario never engaged")
	}

	// Phase 3: more data. The sender still believes the window is zero;
	// with nothing in flight only the zero-window probe can save it.
	if _, err := c.Send(msg[1024:], 0); err != nil {
		t.Fatal(err)
	}
	w.pumpUntil(t, func() bool {
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 5*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted across the zero-window probe")
	}
	if w.a.Stats().Retransmits == 0 {
		t.Fatal("no probe recorded; recovery happened some other way")
	}
}

// TestTCPZeroWindowProbeDroppedResumesAtUna: the persist probe's byte is
// sent past a window that is still closed, so the receiver drops it and
// answers with window 0. When the application then drains and the window
// update arrives, the sender must resume at sndUna — the lost byte
// included. It used to resume one byte past it: the receiver stashed an
// out-of-order segment, two duplicate ACKs never made a fast retransmit,
// and the stream sat out another (backed-off) timeout. The clock is a fake
// that stands still after the drain, so a recovery by RTO cannot pass.
func TestTCPZeroWindowProbeDroppedResumesAtUna(t *testing.T) {
	const mss, window = 1024, 4096
	clk := stoppedClock()
	w := newWorld(t, Config{MSS: mss, Clock: clk}, Config{MSS: mss, RxWindow: window, Clock: clk})
	c, srv := dialPair(t, w, 8000)
	openCwnd(w, c)

	msg := make([]byte, window+1500)
	rand.New(rand.NewSource(15)).Read(msg)
	if sent, err := c.Send(msg, 0); err != nil || sent != len(msg) {
		t.Fatalf("Send = %d, %v", sent, err)
	}
	w.pump()
	sender := func() (wnd int, flight uint32) {
		w.a.mu.Lock()
		defer w.a.mu.Unlock()
		return c.peerWnd, c.sndNxt - c.sndUna
	}
	if wnd, flight := sender(); wnd != 0 || flight != 0 {
		t.Fatalf("receive buffer full: sender sees window %d with %d bytes in flight, want 0 and 0", wnd, flight)
	}

	rcvd := w.b.Stats().TCPSegsRcvd
	clk.Step(25 * time.Millisecond) // past the RTO: the persist timer fires
	w.pump()
	if rt := w.a.Stats().Retransmits; rt != 1 {
		t.Fatalf("%d timer firings, want the one zero-window probe", rt)
	}
	if probes := w.b.Stats().TCPSegsRcvd - rcvd; probes != 1 {
		t.Fatalf("%d segments reached the receiver, want the one probe", probes)
	}
	if wnd, flight := sender(); wnd != 0 || flight != 0 {
		t.Fatalf("after the probe: window %d, %d bytes in flight; want 0 and the probe byte not counted", wnd, flight)
	}

	got, _, err := srv.Recv(0) // the drain sends the window update
	if err != nil || len(got) != window {
		t.Fatalf("drain returned %d bytes, %v; want %d", len(got), err, window)
	}
	w.pump()
	rest, _, _ := srv.Recv(0)
	a, b := w.a.Stats(), w.b.Stats()
	if !bytes.Equal(append(got, rest...), msg) {
		t.Errorf("%d of %d bytes delivered with the clock standing still after the drain", len(got)+len(rest), len(msg))
	}
	if a.Retransmits != 1 || a.FastRetransmits != 0 || a.DupAcksRcvd != 0 || b.OutOfOrderSegs != 0 {
		t.Errorf("sender: %d timeouts, %d fast retransmits, %d duplicate ACKs; receiver: %d out-of-order segments; want 1 (the probe), 0, 0, 0",
			a.Retransmits, a.FastRetransmits, a.DupAcksRcvd, b.OutOfOrderSegs)
	}
}

// TestTCPSendPartialWriteResume pins the Send/SendBuffered short-write
// contract: a full send buffer yields (n < len(b), nil) — never an error,
// never silent truncation — and a caller-side resume loop completes the
// transfer. The steady-state chunk loop is also fenced to stay
// allocation-free, so the resume path is safe inside zero-alloc servers.
func TestTCPSendPartialWriteResume(t *testing.T) {
	w := newWorld(t, Config{MSS: 1400}, Config{MSS: 1400})
	c, srv := dialPair(t, w, 8000)

	// 300 KiB against the 256 KiB sndBufMax: the first Send must come up
	// short with a nil error.
	msg := make([]byte, 300*1024)
	rand.New(rand.NewSource(14)).Read(msg)
	n, err := c.Send(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n == len(msg) {
		t.Fatalf("Send accepted %d bytes past sndBufMax", n)
	}
	if n != sndBufMax {
		t.Fatalf("short write accepted %d, want %d", n, sndBufMax)
	}
	// A second Send against the still-full buffer is the documented
	// (0, nil) backpressure signal.
	if n2, err := c.Send(msg[n:], 0); err != nil || n2 != 0 {
		t.Fatalf("Send on full buffer = (%d, %v), want (0, nil)", n2, err)
	}
	sent := n
	got := make([]byte, 0, len(msg))
	w.pumpUntil(t, func() bool {
		if sent < len(msg) {
			nn, err := c.Send(msg[sent:], 0)
			if err != nil {
				t.Fatal(err)
			}
			sent += nn
		}
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 20*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("resume loop corrupted the stream")
	}

	// Alloc fence: one chunk sent, pumped, and drained per run with all
	// buffers warm must not allocate (pooled frames, reused scratch).
	chunk := msg[:512]
	scratch := make([]byte, 0, 4096)
	roundTrip := func() {
		nn, err := c.Send(chunk, 0)
		if err != nil {
			t.Fatal(err)
		}
		rcvd := 0
		for rcvd < nn {
			w.pump()
			b, _, err := srv.RecvAppend(scratch[:0], 0)
			if err != nil {
				t.Fatal(err)
			}
			rcvd += len(b)
		}
	}
	roundTrip() // warm pools and scratch
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs > 0 {
		t.Errorf("steady-state partial-write loop allocates %.1f/op, want 0", allocs)
	}
}
