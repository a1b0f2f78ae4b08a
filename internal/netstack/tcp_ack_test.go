package netstack

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

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

// heldAcks reports how many connections sit on the stack's ACK list, and
// the age in polls of the oldest acknowledgement still owed by one of them
// (0: marked during the latest poll; -1: nothing owed).
func heldAcks(s *Stack) (queued, oldest int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldest = -1
	for _, c := range s.ackQueue {
		if c.ackPending {
			oldest = max(oldest, int(s.pollSeq-c.ackSince))
		}
	}
	return len(s.ackQueue), oldest
}

// TestAckDeferredNeverOutlivesPoll: whatever mix of in-order data
// arrives, under reordering and duplication, an acknowledgement owed when
// Poll returns was marked by that very poll — a held ACK is never older
// than one poll — and after a second consecutive poll nothing is owed and
// the list is empty. (Restated: the state this test used to assert, "no
// acknowledgement is owed when Poll returns", no longer exists — small
// in-order data is now acknowledged by the next segment sent or by the
// next poll, whichever comes first.)
func TestAckDeferredNeverOutlivesPoll(t *testing.T) {
	w := newWorld(t, Config{MSS: 700}, Config{MSS: 700})
	c, srv := dialPair(t, w, 8000)
	w.sw.SetImpairments(fabric.Impairments{ReorderRate: 0.2, DupRate: 0.1})
	r := rand.New(rand.NewSource(4))
	held := 0
	for i := 0; i < 200; i++ {
		if _, err := c.Send(make([]byte, 1+r.Intn(5000)), 0); err != nil {
			t.Fatal(err)
		}
		w.a.Poll()
		w.b.Poll()
		if _, oldest := heldAcks(w.b); oldest > 0 {
			t.Fatalf("round %d: Poll returned holding an ACK marked %d polls before it", i, oldest)
		} else if oldest == 0 {
			held++
		}
		w.b.Poll()
		if queued, oldest := heldAcks(w.b); queued != 0 || oldest >= 0 {
			t.Fatalf("round %d: after two consecutive polls %d connections are listed for an ACK (oldest owed: %d polls)", i, queued, oldest)
		}
		srv.Recv(0)
	}
	if held == 0 {
		t.Fatal("coverage: no poll ever returned holding an ACK")
	}
}

// TestAckPiggybacksOnReply: a request answered between two polls costs two
// segments a round trip — the reply carries the request's acknowledgement
// and the next request the reply's — and a request whose reply is withheld
// costs three, the pure ACK leaving on the receiver's second poll and not
// before. Either way a stack that nothing arrives at has sent its last
// segment, and emptied the list, by its second poll.
func TestAckPiggybacksOnReply(t *testing.T) {
	const rounds = 200
	w := newWorld(t, Config{}, Config{})
	c, srv := dialPair(t, w, 8000)
	w.pump()
	msg := make([]byte, 64)
	send := func(from *TCPConn) {
		t.Helper()
		if n, err := from.Send(msg, 0); err != nil || n != len(msg) {
			t.Fatalf("Send = %d, %v", n, err)
		}
	}
	recv := func(at *TCPConn) {
		t.Helper()
		if b, _, err := at.Recv(0); err != nil || len(b) != len(msg) {
			t.Fatalf("Recv = %d bytes, %v; want the %d-byte message", len(b), err, len(msg))
		}
	}
	total := func() int64 { return segsSent(w.a) + segsSent(w.b) }
	// atRest: the client still owes the last reply's ACK. Its next poll
	// sends it; from the poll after that both stacks are silent and listed
	// for nothing.
	atRest := func(what string) {
		t.Helper()
		before := total()
		w.a.Poll()
		w.b.Poll()
		if got := total() - before; got != 1 {
			t.Fatalf("%s: %d segments on the first poll after the last round, want the client's one pure ACK", what, got)
		}
		for i := 0; i < 3; i++ {
			w.a.Poll()
			w.b.Poll()
			qa, _ := heldAcks(w.a)
			qb, _ := heldAcks(w.b)
			if got := total() - before; got != 1 || qa+qb != 0 {
				t.Fatalf("%s: poll %d after the last round: %d segments sent since it, %d+%d connections listed for an ACK; want 1, 0+0",
					what, i+2, got, qa, qb)
			}
		}
	}

	before := total()
	for i := 0; i < rounds; i++ {
		send(c)
		w.b.Poll()
		recv(srv)
		send(srv)
		w.a.Poll()
		recv(c)
	}
	if got := total() - before; got != 2*rounds {
		t.Fatalf("%d request/reply rounds cost %d segments, want %d: two a round", rounds, got, 2*rounds)
	}
	// A connection marked afresh every round trip is still listed once.
	for side, s := range map[string]*Stack{"client": w.a, "server": w.b} {
		if queued, _ := heldAcks(s); queued != 1 {
			t.Fatalf("the %s's one connection is listed for an ACK %d times after %d rounds", side, queued, rounds)
		}
	}
	atRest("replies between polls")

	before = total()
	for i := 0; i < rounds; i++ {
		send(c)
		sent := segsSent(w.b)
		w.b.Poll()
		if got := segsSent(w.b) - sent; got != 0 {
			t.Fatalf("round %d: the poll that took the request in sent %d segments, want the ACK held", i, got)
		}
		recv(srv)
		w.b.Poll()
		if got := segsSent(w.b) - sent; got != 1 {
			t.Fatalf("round %d: %d segments after the receiver's second poll, want the one pure ACK", i, got)
		}
		send(srv)
		w.a.Poll()
		recv(c)
	}
	if got := total() - before; got != 3*rounds {
		t.Fatalf("%d rounds with the reply withheld for a poll cost %d segments, want %d: three a round", rounds, got, 3*rounds)
	}
	atRest("replies withheld")
}

// TestAckHeldDiesWithConnection: a connection that leaves the stack while
// it is listed for an ACK — reset, orderly close, give-up — is dropped from
// the list by the next poll without a segment being sent for it, and
// Shutdown, which no poll follows, empties the list itself.
func TestAckHeldDiesWithConnection(t *testing.T) {
	clk := stoppedClock()
	s, dev := newTapStack(t, clk)
	a := &timerActor{s: s, dev: dev, conns: make([]*TCPConn, 4)}
	// fromPeer delivers the peer's next in-order segment to connection i.
	fromPeer := func(i int, flags uint8, payload []byte) {
		c := a.conns[i]
		s.mu.Lock()
		defer s.mu.Unlock()
		c.handleSegmentLocked(tcpSegment{
			srcPort: c.key.remotePort, dstPort: c.key.localPort,
			seq: c.rcvNxt, ack: c.sndNxt, flags: flags, window: 0xffff, payload: payload,
		}, 0)
	}
	for i := range a.conns {
		a.dial(i, 0)
		a.inject(i, flagSYN|flagACK, a.conns[i].sndNxt, 0xffff)
		fromPeer(i, flagACK|flagPSH, make([]byte, 64))
	}
	if queued, oldest := heldAcks(s); queued != len(a.conns) || oldest != 0 {
		t.Fatalf("%d connections listed for an ACK (oldest owed: %d polls), want all %d holding theirs", queued, oldest, len(a.conns))
	}
	// Connection i leaves by exits[i]; the last one stays.
	exits := []struct {
		how  string
		exit func(i int)
	}{
		{"reset", func(i int) { fromPeer(i, flagRST, nil) }},
		{"orderly close", func(i int) { a.conns[i].Close(); fromPeer(i, flagACK|flagFIN, nil) }},
		{"give-up", func(i int) { s.mu.Lock(); a.conns[i].giveUpLocked(); s.mu.Unlock() }},
	}
	for i, x := range exits {
		x.exit(i)
		if !connClosed(a.conns[i]) {
			t.Fatalf("%s: the connection is still open", x.how)
		}
	}
	wire := len(dev.log)
	s.Poll()
	// The one connection left alive sent its ACK; the dead ones nothing.
	if sent := len(dev.log) - wire; sent != 1 {
		t.Fatalf("the poll after three connections died holding ACKs sent %d segments, want the survivor's one", sent)
	}
	if queued, _ := heldAcks(s); queued != 0 {
		t.Fatalf("%d connections still listed for an ACK after the poll", queued)
	}
	for i, x := range exits {
		if c := a.conns[i]; c.ackQueued {
			t.Fatalf("%s: the connection still thinks it is on the ACK list", x.how)
		}
	}

	fromPeer(3, flagACK|flagPSH, make([]byte, 64))
	s.Shutdown(nil)
	if _, _, acks := s.WorkQueued(); acks != 0 || a.conns[3].ackQueued {
		t.Fatalf("after shutdown: %d connections listed for an ACK, want 0", acks)
	}
}

// TestTCPConnSizeClass: the ACK hold's state went into TCPConn's padding.
// At 288 bytes the struct fills its allocator size class exactly; one more
// word moves every connection to the 320-byte class.
func TestTCPConnSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(TCPConn{}); size > 288 {
		t.Fatalf("TCPConn is %d bytes, want at most 288", size)
	}
}

// BenchmarkNetstack_PingPong64 is one 64 B request and its 64 B reply
// between two stacks, one poll a side per half round trip: the netstack,
// NIC and fabric share of an echo without the libOS above them. segs/op is
// what the round trip put on the wire — 2, the reply carrying the request's
// acknowledgement and the next request the reply's; it read 4 while every
// poll that took data in sent a pure ACK before it returned.
func BenchmarkNetstack_PingPong64(b *testing.B) {
	w := newWorld(b, Config{}, Config{})
	c, srv := dialPair(b, w, 8000)
	w.pump()
	msg := make([]byte, 64)
	scratch := make([]byte, 0, 128)
	half := func(from, to *TCPConn, at *Stack) {
		if n, err := from.Send(msg, 0); err != nil || n != len(msg) {
			b.Fatalf("Send = %d, %v", n, err)
		}
		at.Poll()
		if got, _, err := to.RecvAppend(scratch[:0], 0); err != nil || len(got) != len(msg) {
			b.Fatalf("RecvAppend = %d bytes, %v", len(got), err)
		}
	}
	half(c, srv, w.b) // warm pools and rings
	half(srv, c, w.a)
	before := segsSent(w.a) + segsSent(w.b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		half(c, srv, w.b)
		half(srv, c, w.a)
	}
	b.StopTimer()
	b.ReportMetric(float64(segsSent(w.a)+segsSent(w.b)-before)/float64(b.N), "segs/op")
}
