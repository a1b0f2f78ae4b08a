package netstack

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

// contents returns the ring's queued bytes as one slice.
func (r *byteRing) contents() []byte {
	first, second := r.spans(0, r.n)
	return append(append([]byte(nil), first...), second...)
}

// TestByteRingAgainstSlice drives a byteRing and the plain slice it
// replaced through the same random writes, discards, partial reads and
// offset reads; they must agree byte for byte after every step, the
// storage must stay within limit, and the run must actually wrap.
func TestByteRingAgainstSlice(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		limit := 64 + r.Intn(4096)
		var ring byteRing
		var model []byte
		wraps := 0
		for step := 0; step < 20000; step++ {
			switch op := r.Intn(10); {
			case op < 4: // write, up to the cap
				p := make([]byte, r.Intn(limit/2+1))
				r.Read(p)
				p = p[:min(len(p), limit-len(model))]
				ring.write(p, limit)
				model = append(model, p...)
			case op < 6: // ACK: drop a prefix
				n := r.Intn(len(model) + 1)
				ring.discard(n)
				model = model[n:]
			case op < 8: // partial read
				n := r.Intn(len(model) + 1)
				first, second := ring.spans(0, n)
				got := append(append([]byte("prefix"), first...), second...)
				ring.discard(n)
				if !bytes.Equal(got, append([]byte("prefix"), model[:n]...)) {
					t.Fatalf("seed %d step %d: spans(0, %d) then discard diverged from the model", seed, step, n)
				}
				model = model[n:]
			default: // segment read at an offset, as trySendLocked does
				off := r.Intn(len(model) + 1)
				n := r.Intn(len(model) - off + 1)
				first, second := ring.spans(off, n)
				if second != nil {
					wraps++
				}
				if got := append(append([]byte(nil), first...), second...); !bytes.Equal(got, model[off:off+n]) {
					t.Fatalf("seed %d step %d: spans(%d, %d) diverged from the model", seed, step, off, n)
				}
			}
			if ring.Len() != len(model) || !bytes.Equal(ring.contents(), model) {
				t.Fatalf("seed %d step %d: ring holds %d bytes, model %d, or contents differ", seed, step, ring.Len(), len(model))
			}
			if len(ring.buf) > limit {
				t.Fatalf("seed %d step %d: storage %d exceeds limit %d", seed, step, len(ring.buf), limit)
			}
		}
		if wraps == 0 {
			t.Fatalf("seed %d: no read ever wrapped the ring", seed)
		}
	}
	var idle byteRing
	if idle.discard(0); idle.buf != nil {
		t.Fatal("an untouched ring allocated storage")
	}
}

// streamModel is the plain-slice model of one direction of a TCP
// connection: every byte Send accepted, in order, and how many of them
// Recv has returned. The connection's two rings must at all times hold
// exactly the model's unacknowledged and undelivered ranges.
type streamModel struct {
	t         *testing.T
	w         *world
	c, srv    *TCPConn
	base      uint32 // sequence number of sent[0]
	sent      []byte
	delivered int
	// face is how the model sends and receives: the public calls, or the
	// same under one Hold (SendBuffered, FlushSend, RecvAppend, Err), or the
	// Hold's RecvSpans and RecvDiscard with the copy made here.
	face face

	sndWrapped, rcvWrapped, shortWrite bool
}

type face int

const (
	publicCalls face = iota
	underHold
	spansAndDiscard
)

func (m *streamModel) send(p []byte) {
	m.t.Helper()
	m.w.a.mu.Lock()
	room := sndBufMax - m.c.sndBuf.Len()
	m.w.a.mu.Unlock()
	var n int
	var err error
	if m.face != publicCalls {
		h := m.c.Hold()
		if n, err = h.SendBuffered(p, 0); n > 0 {
			h.FlushSend()
		}
		if err == nil {
			err = h.Err()
		}
		h.Release()
	} else {
		n, err = m.c.Send(p, 0)
	}
	if err != nil {
		m.t.Fatalf("Send: %v", err)
	}
	if want := min(len(p), room); n != want {
		m.t.Fatalf("Send accepted %d of %d bytes with %d free, want %d", n, len(p), room, want)
	}
	m.shortWrite = m.shortWrite || n < len(p)
	m.sent = append(m.sent, p[:n]...)
}

func (m *streamModel) recv(max int) {
	m.t.Helper()
	var b []byte
	var err error
	switch m.face {
	case spansAndDiscard:
		h := m.srv.Hold()
		var first, second []byte
		if first, second, _, err = h.RecvSpans(); err == nil {
			b = append(append(b, first...), second...)
			if max > 0 && len(b) > max {
				b = b[:max] // a consumer that stops at a frame's end takes less than it was shown
			}
			h.RecvDiscard(len(b))
			err = h.Err()
		}
		h.Release()
	case underHold:
		h := m.srv.Hold()
		if b, _, err = h.RecvAppend(nil, max); err == nil {
			err = h.Err()
		}
		h.Release()
	default:
		b, _, err = m.srv.RecvAppend(nil, max)
	}
	if err != nil {
		m.t.Fatalf("RecvAppend: %v", err)
	}
	if max > 0 && len(b) > max {
		m.t.Fatalf("RecvAppend(max=%d) returned %d bytes", max, len(b))
	}
	if !bytes.Equal(b, m.sent[m.delivered:m.delivered+len(b)]) {
		m.t.Fatalf("RecvAppend returned bytes that differ from the stream at offset %d", m.delivered)
	}
	m.delivered += len(b)
}

// check compares both rings with the model.
func (m *streamModel) check(step int) {
	m.t.Helper()
	m.w.a.mu.Lock()
	acked := int(m.c.sndUna - m.base)
	queued := m.c.sndBuf.contents()
	_, second := m.c.sndBuf.spans(0, m.c.sndBuf.Len())
	m.w.a.mu.Unlock()
	m.sndWrapped = m.sndWrapped || second != nil
	if acked+len(queued) != len(m.sent) || !bytes.Equal(queued, m.sent[acked:]) {
		m.t.Fatalf("step %d: send ring holds %d bytes after %d acked, model has %d sent; or contents differ",
			step, len(queued), acked, len(m.sent))
	}
	m.w.b.mu.Lock()
	ready := m.srv.rcvBuf.contents()
	_, second = m.srv.rcvBuf.spans(0, m.srv.rcvBuf.Len())
	next := int(m.srv.rcvNxt - m.base)
	m.w.b.mu.Unlock()
	m.rcvWrapped = m.rcvWrapped || second != nil
	if m.delivered+len(ready) != next || !bytes.Equal(ready, m.sent[m.delivered:next]) {
		m.t.Fatalf("step %d: receive ring holds %d bytes after %d delivered, rcvNxt at %d; or contents differ",
			step, len(ready), m.delivered, next)
	}
}

// TestTCPRingsAgainstStreamModel interleaves, from a seed, Send (up to
// and past sndBufMax), ACK advance (pumping), retransmit-head (loss
// windows that end in RTO or fast retransmit), zero-window probes (a
// reader that stops until the persist timer fires) and partial
// RecvAppend(max), checking both rings against the model after every
// step. The receive window is a few MSS so both rings wrap many times. A
// second set of seeds (ackHoldSchedule) interleaves both stacks' polls and
// writes in both directions, for the acknowledgement rules.
func TestTCPRingsAgainstStreamModel(t *testing.T) { streamModelSchedules(t, publicCalls) }

// TestHoldMatchesPublicCalls runs TestTCPRingsAgainstStreamModel's
// schedules with every send and receive made under a Hold: the held calls
// and the public ones (each a Hold around one call) meet the same model
// at every step of the same seeds.
func TestHoldMatchesPublicCalls(t *testing.T) { streamModelSchedules(t, underHold) }

// TestRecvSpansMatchPublicCalls runs the same schedules with every receive
// made as a consumer of the ring's spans makes it: look (RecvSpans), copy
// out some or all, RecvDiscard what was taken. (A discard that itself lets
// a stashed out-of-order segment into the ring, after which spans still held
// would be stale, needs a sender that overran the window: that case is
// TestTCPRecvRedrainsOutOfOrder's, which injects it.)
func TestRecvSpansMatchPublicCalls(t *testing.T) { streamModelSchedules(t, spansAndDiscard) }

func streamModelSchedules(t *testing.T, face face) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			rto := 2 * time.Millisecond
			w := newWorld(t, Config{MSS: 200 + r.Intn(1200), RTO: rto},
				Config{MSS: 512, RTO: rto, RxWindow: 3000 + r.Intn(6000)})
			c, srv := dialPair(t, w, 8000)
			m := &streamModel{t: t, w: w, c: c, srv: srv, base: c.sndUna, face: face}
			chunk := make([]byte, sndBufMax+50_000)

			for step := 0; step < 1500; step++ {
				switch op := r.Intn(20); {
				case op < 6:
					p := chunk[:1+r.Intn(6000)]
					r.Read(p)
					m.send(p)
				case op < 12:
					m.recv(1 + r.Intn(2500))
				case op < 16:
					w.pump()
				case op < 18: // loss window: the head is retransmitted
					w.sw.SetImpairments(fabric.Impairments{LossRate: 0.3})
					w.pump()
					time.Sleep(rto)
					w.pump()
					w.sw.SetImpairments(fabric.Impairments{})
				case op < 19: // stalled reader: window closes, probes go out
					before := w.a.Stats().Retransmits
					r.Read(chunk)
					m.send(chunk) // more than sndBufMax: a short write
					w.pumpUntil(t, func() bool {
						m.check(step)
						return w.a.Stats().Retransmits > before
					}, 5*time.Second)
				default:
					m.recv(0)
				}
				m.check(step)
			}
			w.pumpUntil(t, func() bool {
				m.recv(0)
				m.check(-1)
				return m.delivered == len(m.sent)
			}, 20*time.Second)

			if !m.sndWrapped || !m.rcvWrapped || !m.shortWrite {
				t.Fatalf("coverage: send ring wrapped=%v, receive ring wrapped=%v, short write=%v; want all",
					m.sndWrapped, m.rcvWrapped, m.shortWrite)
			}
			if st := w.a.Stats(); st.Retransmits == 0 {
				t.Fatal("coverage: no retransmission or zero-window probe was ever sent")
			}
		})
	}
	// Delayed ACK against burst ACK: which acknowledgement rule a segment
	// meets — the reply that carries it, the burst end at two full
	// segments, the next poll — is set by how sends, the two stacks' polls
	// and the receiver's own writes interleave, so the schedule is what the
	// seed draws. On a clean link the clock stands still: no interleaving
	// may need a timeout to finish.
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("ackhold/clean/seed%d", seed), func(t *testing.T) {
			ackHoldSchedule(t, seed, fabric.Impairments{}, face)
		})
		t.Run(fmt.Sprintf("ackhold/impaired/seed%d", seed), func(t *testing.T) {
			ackHoldSchedule(t, seed, fabric.Impairments{LossRate: 0.05, DupRate: 0.1, ReorderRate: 0.15}, face)
		})
	}
}

// ackHoldSchedule runs one seeded schedule of the delayed-ACK dimension of
// TestTCPRingsAgainstStreamModel, both directions of the connection held
// against a stream model each.
func ackHoldSchedule(t *testing.T, seed int64, imp fabric.Impairments, face face) {
	r := rand.New(rand.NewSource(seed))
	clk := stoppedClock()
	mss := 200 + r.Intn(1200)
	w := newWorld(t, Config{MSS: mss, Clock: clk}, Config{MSS: 200 + r.Intn(1200), RxWindow: 8*mss + r.Intn(60_000), Clock: clk})
	c, srv := dialPair(t, w, 8000)
	w.pump()
	fwd := &streamModel{t: t, w: w, c: c, srv: srv, base: c.sndUna, face: face}
	rev := &streamModel{t: t, w: &world{a: w.b, b: w.a}, c: srv, srv: c, base: srv.sndUna, face: face}
	w.sw.SetImpairments(imp)
	clean := imp == fabric.Impairments{}
	chunk := make([]byte, 5*mss)
	message := func() []byte {
		p := chunk[:1+r.Intn(len(chunk))]
		r.Read(p)
		return p
	}
	check := func(step int) {
		t.Helper()
		if step%16 == 0 || step < 0 { // the ring comparison copies both rings
			fwd.check(step)
			rev.check(step)
		}
		for _, s := range []*Stack{w.a, w.b} {
			if _, oldest := heldAcks(s); oldest > 0 {
				t.Fatalf("step %d: an ACK marked %d polls ago is still held", step, oldest)
			}
		}
	}
	for step := 0; step < 2000; step++ {
		switch op := r.Intn(10); {
		case op < 2:
			fwd.send(message())
		case op < 4:
			w.a.Poll()
		case op < 6:
			w.b.Poll()
		case op < 7: // the receiver writes: its segments carry what it owes
			rev.send(message())
		case op < 9:
			fwd.recv(0)
		default:
			rev.recv(0)
		}
		check(step)
	}
	delivered := func() int { return fwd.delivered + rev.delivered }
	for rounds, idle := 0, 0; fwd.delivered < len(fwd.sent) || rev.delivered < len(rev.sent); rounds++ {
		before := delivered()
		w.a.Poll()
		w.b.Poll()
		fwd.recv(0)
		rev.recv(0)
		if delivered() > before {
			check(-1)
			idle = 0
		} else if idle++; idle > 8 {
			if clean {
				t.Fatalf("no progress on a clean link with the clock standing still: %d of %d and %d of %d bytes delivered",
					fwd.delivered, len(fwd.sent), rev.delivered, len(rev.sent))
			}
			clk.Step(maxRTO) // only a timer recovers a loss with nothing behind it
			idle = 0
		}
		if rounds > 100_000 {
			t.Fatalf("stream never completed: %d of %d and %d of %d bytes delivered",
				fwd.delivered, len(fwd.sent), rev.delivered, len(rev.sent))
		}
	}
	sa, sb := w.a.Stats(), w.b.Stats()
	if clean && sa.Retransmits+sb.Retransmits+sa.FastRetransmits+sb.FastRetransmits+sa.OutOfOrderSegs+sb.OutOfOrderSegs != 0 {
		t.Fatalf("clean link: %d+%d timeouts, %d+%d fast retransmits, %d+%d out-of-order segments; want none",
			sa.Retransmits, sb.Retransmits, sa.FastRetransmits, sb.FastRetransmits, sa.OutOfOrderSegs, sb.OutOfOrderSegs)
	}
	if !clean && sa.Retransmits+sb.Retransmits+sa.FastRetransmits+sb.FastRetransmits == 0 {
		t.Fatal("coverage: the impaired link never cost a retransmission")
	}
}

// BenchmarkNetstack_AckDequeue is the cost of one ACK that releases an
// MSS from the head of the send queue, with 4 KiB and with 128 KiB
// queued behind it. The dequeue is an index advance, so the two read the
// same; the shift-copy it replaced moved the whole queue per ACK.
func BenchmarkNetstack_AckDequeue(b *testing.B) {
	for _, queued := range []int{4 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("%dKiB", queued>>10), func(b *testing.B) {
			const mss = 1024
			s := &Stack{cfg: Config{MSS: mss, RTO: time.Second}, clock: simclock.NewClock()}
			c := s.newConnLocked(connKey{}, stateClosed) // closed: the ACK path sends nothing
			c.sndBuf.write(make([]byte, queued), sndBufMax)
			c.sndNxt = c.sndUna + uint32(queued)
			refill := make([]byte, mss)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.processAckLocked(tcpSegment{flags: flagACK, ack: c.sndUna + mss, window: 0xffff})
				c.sndBuf.write(refill, sndBufMax)
				c.sndNxt += mss
			}
		})
	}
}
