package catnip

// The byte path, on two transports driven directly: a push is queued by
// reference and resumes wherever in its encoding the send ring filled;
// pool memory freed while its push waits is recycled only afterwards,
// whichever way the push ends, and once however many copies of its SGA are
// freed; and a payload byte is written four times between the two
// applications' buffers. Run under -race.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
)

// privatePools gives each transport of a rig a frame pool of its own, so
// that a pool's counters are one transport's.
func privatePools(a, b *Config) {
	a.PoolFactory, b.PoolFactory = fabric.NewFramePool, fabric.NewFramePool
}

// settle polls until the dialer's front frame stops moving into its send
// ring — the peer's window is shut and the ring is full — and returns how
// many bytes of it the ring took. The clock stands still, so no probe is
// ever sent.
func (r *wlRig) settle(ea *endpoint) int {
	r.t.Helper()
	sent := func() int {
		ea.t.mu.Lock()
		defer ea.t.mu.Unlock()
		if ea.txq.Len() == 0 {
			return -1
		}
		return ea.txq.Front().sent
	}
	for quiet, last := 0, -2; quiet < 4; {
		r.poll()
		if now := sent(); now != last {
			quiet, last = 0, now
		} else {
			quiet++
		}
	}
	return sent()
}

// pattern is n bytes that differ by position and by salt.
func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt ^ byte(i>>8)
	}
	return b
}

// popAll pops k SGAs from e, polling, and returns their flattened bytes.
func (r *wlRig) popAll(e core.Endpoint, k int) [][]byte {
	r.t.Helper()
	var got [][]byte
	for len(got) < k {
		done := false
		e.Pop(func(c queue.Completion) {
			if c.Err != nil {
				r.t.Fatalf("pop %d: %v", len(got), c.Err)
			}
			got = append(got, c.SGA.Bytes())
			c.SGA.Free()
			done = true
		})
		r.until("pop", func() bool { return done })
	}
	return got
}

// popSGA pops one SGA from e, polling, and returns it unfreed.
func (r *wlRig) popSGA(e core.Endpoint) sga.SGA {
	r.t.Helper()
	var s sga.SGA
	done := false
	e.Pop(func(c queue.Completion) { s, done = c.SGA, c.Err == nil })
	r.until("pop", func() bool { return done })
	return s
}

// TestPushResumesMidFrame: a peer that does not read shuts its window, the
// send ring fills, and a pushed frame stops with k bytes of its encoding in
// the ring — for every k of a two-segment frame: inside the header, at its
// end, inside each length prefix, at each segment's first and last byte. The
// frames behind it wait. Once the peer reads, everything arrives intact and
// in order, and every DoneFunc fires once, not before the ring has taken its
// frame's last byte.
func TestPushResumesMidFrame(t *testing.T) {
	frame := sga.New([]byte("seg-0"), []byte("segment"))
	const filler = 16384
	// What the connection absorbs with the reader stopped: the peer's receive
	// window plus the send ring. Measured, not assumed.
	capacity := func() int {
		r := newWLRig(t, 0)
		a, _ := r.connect()
		n, size := 0, sga.New(make([]byte, filler)).MarshalledSize()
		for ; n < 64; n++ {
			a.Push(sga.New(make([]byte, filler)), 0, func(queue.Completion) {})
		}
		ea := a.(*endpoint)
		stuck := r.settle(ea)
		ea.t.mu.Lock()
		defer ea.t.mu.Unlock()
		return (n-ea.txq.Len())*size + stuck
	}()
	if capacity < 2*filler {
		t.Fatalf("a stopped reader absorbs %d bytes", capacity)
	}
	for k := 1; k < frame.MarshalledSize(); k++ {
		t.Run(fmt.Sprint("stall at byte ", k), func(t *testing.T) {
			r := newWLRig(t, 0)
			a, b := r.connect()
			ea := a.(*endpoint)
			fired := map[int]int{}
			var want [][]byte
			push := func(s sga.SGA) {
				i := len(want)
				want = append(want, s.Bytes())
				a.Push(s, 0, func(c queue.Completion) {
					ea.t.mu.Lock()
					queued := ea.txq.Len()
					ea.t.mu.Unlock()
					// Frames queue in order: with more of them waiting than
					// were pushed after this one, this one still is.
					if c.Err != nil || queued > len(want)-(i+1) {
						t.Errorf("push %d completed with %v and %d frames of %d queued", i, c.Err, queued, len(want))
					}
					fired[i]++
				})
			}
			// Fillers whose encodings sum to capacity-k, then the frame.
			room := capacity - k
			for room > 0 {
				n := min(room, filler+12)
				if room-n > 0 && room-n < 13 {
					n -= 13 // leave room for a last filler of at least a byte
				}
				push(sga.New(pattern(n-12, byte(len(want)))))
				room -= n
			}
			fillers := len(want)
			push(frame)
			push(sga.New(pattern(300, 0xaa)))
			push(sga.SGA{})
			if got := r.settle(ea); got != k {
				t.Fatalf("the frame stopped with %d of its bytes in the ring, want %d", got, k)
			}
			for i := fillers; i < len(want); i++ {
				if fired[i] != 0 {
					t.Fatalf("push %d completed with the ring full before its last byte", i)
				}
			}
			got := r.popAll(b, len(want))
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("message %d arrived changed (%d bytes, want %d)", i, len(got[i]), len(want[i]))
				}
			}
			r.poll()
			for i := range want {
				if fired[i] != 1 {
					t.Errorf("DoneFunc of push %d fired %d times, want once", i, fired[i])
				}
			}
		})
	}
}

// stall fills a's send ring against a reader that has stopped, so that
// whatever is pushed next waits in txq untouched.
func (r *wlRig) stall(a core.Endpoint) {
	for i := 0; i < 2; i++ {
		a.Push(sga.New(make([]byte, overSendBuffer)), 0, func(queue.Completion) {})
	}
	r.settle(a.(*endpoint))
}

// TestFreeWhileQueuedDefers: memory from AllocSGA that the application frees
// while its push waits in txq stays out of the frame pool — the pump has yet
// to read it — and goes back when the push ends, however it ends: completion,
// a dead connection, Close, a crash.
func TestFreeWhileQueuedDefers(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(r *wlRig, a, b core.Endpoint)
		err  error // what the push completes with, nil for success
	}{
		{name: "completion", end: func(r *wlRig, a, b core.Endpoint) { r.popAll(b, 3) }},
		{name: "dead connection", err: core.ErrPeerDead, end: func(r *wlRig, a, b core.Endpoint) {
			r.tb.Crash()
			if err := r.tb.Restart(); err != nil {
				r.t.Fatal(err)
			}
			for i := 0; i < 8 && a.Err() == nil; i++ {
				r.advance(time.Second) // the probe that draws the reset
				r.poll()
				r.poll()
			}
		}},
		{name: "close", err: netstack.ErrConnClosed, end: func(r *wlRig, a, b core.Endpoint) { a.Close(); r.poll() }},
		{name: "crash", err: core.ErrLocalReset, end: func(r *wlRig, a, b core.Endpoint) { r.ta.Crash() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newWLRigWith(t, privatePools)
			a, b := r.connect()
			r.stall(a)
			out := r.ta.pool.Outstanding()
			s := r.ta.AllocSGA(1000)
			copy(s.Segments[0].Buf, pattern(1000, 1))
			fired, pushErr := 0, error(nil)
			a.Push(s, 0, func(c queue.Completion) { fired++; pushErr = c.Err })
			c := s
			s.Free()
			c.Free() // and a double free, through a copy, is only counted
			if st := r.ta.pool.Stats(); fired != 0 || st.Outstanding != out+1 || st.DoubleFrees != 1 {
				t.Fatalf("freed while queued: push fired %d times, %d pool buffers out, %d double frees; want 0, %d, 1",
					fired, st.Outstanding, st.DoubleFrees, out+1)
			}
			r.poll()
			if now := r.ta.pool.Outstanding(); now != out+1 {
				t.Fatalf("a poll with the frame still queued recycled its buffer")
			}
			tc.end(r, a, b)
			if now := r.ta.pool.Outstanding(); now != out {
				t.Fatalf("after the push ended: %d pool buffers out, want %d", now, out)
			}
			if fired != 1 || !errors.Is(pushErr, tc.err) {
				t.Fatalf("push fired %d times with %v, want once with %v", fired, pushErr, tc.err)
			}
		})
	}
}

// TestPoppedFreeWhileQueuedDefers: the same for an SGA that was popped here
// and pushed onward, the forwarder's "Push(s); s.Free()": its pool buffer
// and header stay out while the push waits, through further pops that would
// otherwise be handed them again, and go back when the push ends.
func TestPoppedFreeWhileQueuedDefers(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(r *wlRig, b core.Endpoint) [][]byte
	}{
		{name: "completion", end: func(r *wlRig, b core.Endpoint) [][]byte { return r.popAll(b, 3) }},
		{name: "crash", end: func(r *wlRig, b core.Endpoint) [][]byte { r.ta.Crash(); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newWLRigWith(t, privatePools)
			a, b := r.connect()
			msg := pattern(1000, 5)
			b.Push(sga.New(msg), 0, func(queue.Completion) {})
			s := r.popSGA(a)
			if _, held := s.Reg.(*fabric.FrameBuf); !held {
				t.Fatal("a popped SGA carries nothing to hold its buffer by")
			}
			r.stall(a)
			out := r.ta.pool.Outstanding()
			fired := 0
			a.Push(s, 0, func(queue.Completion) { fired++ })
			s.Free()
			s.Free()
			// More traffic the freed buffer would have been recycled into.
			for i := 0; i < 4; i++ {
				b.Push(sga.New(pattern(1000, 0x50+byte(i))), 0, func(queue.Completion) {})
				o := r.popSGA(a)
				o.Free()
			}
			if now := r.ta.pool.Outstanding(); fired != 0 || now != out {
				t.Fatalf("freed while queued: push fired %d times, %d pool buffers out, want 0 and %d", fired, now, out)
			}
			// s shares its segment storage with the queued frame.
			if !bytes.Equal(s.Bytes(), msg) {
				t.Fatal("the queued frame's segments changed under it")
			}
			if got := tc.end(r, b); got != nil && !bytes.Equal(got[2], msg) {
				t.Fatal("the forwarded message arrived changed")
			}
			r.poll()
			if now := r.ta.pool.Outstanding(); fired != 1 || now != out-1 {
				t.Fatalf("after the push ended: fired %d times, %d pool buffers out, want 1 and %d", fired, now, out-1)
			}
		})
	}
}

// TestPoppedDoubleFree: SGA.Free is idempotent across copies of one SGA,
// not only on the variable it is called on. A popped SGA freed through two
// copies goes back to the pool once, and the two pops after it get a header
// and a buffer each.
func TestPoppedDoubleFree(t *testing.T) {
	r := newWLRigWith(t, privatePools)
	a, b := r.connect()
	b.Push(sga.New(pattern(64, 1)), 0, func(queue.Completion) {})
	s := r.popSGA(a)
	c := s
	s.Free()
	c.Free()
	b.Push(sga.New(pattern(64, 2)), 0, func(queue.Completion) {})
	b.Push(sga.New(pattern(64, 3)), 0, func(queue.Completion) {})
	x, y := r.popSGA(a), r.popSGA(a)
	if x.Reg == y.Reg || &x.Segments[0].Buf[0] == &y.Segments[0].Buf[0] {
		t.Fatal("two pops share one header and one payload after a double free")
	}
	if !bytes.Equal(x.Bytes(), pattern(64, 2)) || !bytes.Equal(y.Bytes(), pattern(64, 3)) {
		t.Fatal("the pops after a double free arrived changed")
	}
	if n := r.ta.pool.Stats().DoubleFrees; n != 1 {
		t.Fatalf("%d double frees counted, want 1", n)
	}
	x.Free()
	y.Free()
}

// copyLedger counts how often a byte is written between the buffer one
// application pushed it from and the buffer the other popped it into. The
// copy statements themselves are the netstack's and the framer's; what this
// package can do without instrumenting them is measure the bytes that
// reached each kind of buffer a byte can be written into, and divide:
//
//	staging   pool buffers the sender holds after pushing heap memory (its
//	          pool's outstanding count) — none, since a push stages nothing
//	send ring stream bytes of completed pushes: a frame's sent count moves
//	          only by what SendBuffered copied in
//	wire      TCP payload bytes in the frames the receiver's NIC saw (a
//	          hardware filter reads every one), retransmissions included
//	recv ring the same bytes, provided none arrived twice or out of order,
//	          which is checked
//	app       payload bytes of the SGAs popped, into one pool buffer each:
//	          pool buffers the receiver took beyond its own frames and one
//	          per SGA are counted as a further copy each (a regrow, a clone)
//
// Each hop is divided by what one copy of the traffic is there — the stream
// with its framing up to the receive ring, the payload above it — so a clean
// run reads exactly the number of hops.
type copyLedger struct {
	r           *wlRig
	wire        int64 // TCP payload bytes seen by tb's NIC
	staged      int64 // pool buffers out at ta
	poolGets    int64 // pool buffers taken at tb
	framesSentB int64
}

func newCopyLedger(r *wlRig) *copyLedger {
	l := &copyLedger{r: r}
	r.tb.dev.AddFilter(nic.HWFilter{Match: func(f []byte) bool {
		const eth, ip, tcp = 14, 20, 20
		if len(f) >= eth+ip+tcp && f[12] == 0x08 && f[13] == 0x00 && f[eth+9] == 6 {
			l.wire += int64(len(f) - eth - ip - tcp)
		}
		return false
	}})
	l.reset()
	return l
}

// gets is the pool buffers t has taken: one per frame it sent, and the rest.
func gets(t *Transport) int64 {
	st := t.pool.Stats()
	return st.Pooled + st.Misses
}

func (l *copyLedger) reset() {
	l.wire = 0
	l.staged = l.r.ta.pool.Outstanding()
	l.poolGets = gets(l.r.tb)
	l.framesSentB = l.r.tb.Stack().Stats().TCPSegsSent
}

// perByte is the ledger's reading for traffic of the given stream bytes
// pushed at ta and payload bytes in sgas SGAs popped at tb since reset.
func (l *copyLedger) perByte(stream, payload, sgas int64) float64 {
	l.r.t.Helper()
	if st := l.r.tb.Stack().Stats(); st.OutOfOrderSegs != 0 || l.r.ta.Stack().Stats().Retransmits != 0 {
		l.r.t.Fatalf("the link was not clean: the wire count is not the receive ring's")
	}
	staged := l.r.ta.pool.Outstanding() - l.staged
	extra := gets(l.r.tb) - l.poolGets - (l.r.tb.Stack().Stats().TCPSegsSent - l.framesSentB) - sgas
	perSGA := float64(payload) / float64(sgas)
	return float64(stream+2*l.wire)/float64(stream) + (float64(payload)+float64(staged+extra)*perSGA)/float64(payload)
}

// stream16k is the repo benchmark's workload of that name without the libOS:
// 8 pushes of 16 KiB kept outstanding one way, each slot pushed again only
// once its message was popped at the other end.
type stream16k struct {
	r               *wlRig
	a, b            core.Endpoint
	msgs            [8]sga.SGA
	sent, delivered int
	pushed          func(queue.Completion)
	popped          func(queue.Completion)
}

func newStream16k(r *wlRig) *stream16k {
	s := &stream16k{r: r}
	s.a, s.b = r.connect()
	for i := range s.msgs {
		s.msgs[i] = sga.New(pattern(16384, byte(i)))
	}
	s.pushed = func(c queue.Completion) {
		if c.Err != nil {
			r.t.Fatalf("push: %v", c.Err)
		}
	}
	s.popped = func(c queue.Completion) {
		if c.Err != nil || c.SGA.Len() != 16384 || c.SGA.Segments[0].Buf[1] != s.msgs[s.delivered%8].Segments[0].Buf[1] {
			r.t.Fatalf("message %d: %v, %d bytes", s.delivered, c.Err, c.SGA.Len())
		}
		c.SGA.Free()
		s.delivered++
		s.b.Pop(s.popped)
	}
	s.b.Pop(s.popped)
	return s
}

// step is one pass of the benchmark's loop: fill the window, poll both
// sides; the pop's completion re-arms itself.
func (s *stream16k) step() {
	for s.sent < s.delivered+len(s.msgs) {
		s.a.Push(s.msgs[s.sent%len(s.msgs)], 0, s.pushed)
		s.sent++
	}
	s.r.ta.Poll()
	s.r.tb.Poll()
}

func (s *stream16k) deliver(n int) {
	for target := s.delivered + n; s.delivered < target; {
		s.step()
	}
}

// copiesSince is l's reading over the messages delivered since message
// number from, with nothing outstanding at either end of that stretch.
func (s *stream16k) copiesSince(l *copyLedger, from int) float64 {
	n := int64(s.delivered - from)
	return l.perByte(n*int64(s.msgs[0].MarshalledSize()), n*16384, n)
}

// drain delivers what is outstanding without pushing more.
func (s *stream16k) drain() {
	for s.sent > s.delivered {
		s.r.poll()
	}
}

// TestCopiesPerPayloadByte: by the ledger a payload byte is written four
// times on its way — send ring, wire frame, receive ring, the buffer the
// application gets — on a 16 KiB stream and on a 64 B echo alike.
func TestCopiesPerPayloadByte(t *testing.T) {
	t.Run("stream16k", func(t *testing.T) {
		r := newWLRigWith(t, privatePools)
		s := newStream16k(r)
		s.deliver(64) // open the congestion window, size rings and pools
		s.drain()     // so that the ledger's window holds whole messages
		l := newCopyLedger(r)
		from := s.delivered
		s.deliver(256)
		s.drain()
		if got := s.copiesSince(l, from); got != 4 {
			t.Fatalf("%.3f copies a payload byte over %d messages of 16 KiB, want 4", got, s.delivered-from)
		}
	})
	t.Run("echo64", func(t *testing.T) {
		r := newWLRigWith(t, privatePools)
		a, b := r.connect()
		msg := sga.New(pattern(64, 9))
		echoes := 0
		var serve func(c queue.Completion)
		serve = func(c queue.Completion) {
			if c.Err != nil {
				t.Fatalf("server pop: %v", c.Err)
			}
			b.Push(c.SGA, 0, func(queue.Completion) {}) // completes inline: the ring has room
			c.SGA.Free()
			b.Pop(serve)
		}
		b.Pop(serve)
		echo := func() {
			done := false
			a.Pop(func(c queue.Completion) {
				if c.Err != nil || !bytes.Equal(c.SGA.Bytes(), msg.Bytes()) {
					t.Fatalf("echo %d: %v", echoes, c.Err)
				}
				c.SGA.Free()
				done = true
			})
			a.Push(msg, 0, func(queue.Completion) {})
			r.until("echo", func() bool { return done })
			echoes++
		}
		for i := 0; i < 64; i++ {
			echo()
		}
		r.poll()
		r.poll()
		// The request's leg: pushed at ta, popped at tb.
		l := newCopyLedger(r)
		for i := 0; i < 256; i++ {
			echo()
		}
		// tb's replies are frames with payload too, sent not received: the
		// filter sits on tb's receive side and never sees them.
		if got := l.perByte(256*int64(msg.MarshalledSize()), 256*64, 256); got != 4 {
			t.Fatalf("%.3f copies a payload byte over 256 requests of 64 B, want 4", got)
		}
	})
}

// BenchmarkCatnip_Stream16k is the catnip rung of the repo benchmark's
// stream16k: two transports on one switch, one goroutine, 8 pushes of
// 16 KiB outstanding, no libOS and no application above them. An op is one
// message delivered. segs/op is what it put on the wire, both directions
// (12 data segments and the ACKs they drew); copies/B is copyLedger's
// reading over the timed messages.
func BenchmarkCatnip_Stream16k(b *testing.B) {
	r := newWLRigWith(b, privatePools)
	s := newStream16k(r)
	s.deliver(64)
	s.drain()
	l := newCopyLedger(r)
	segs := func() int64 { return r.ta.Stack().Stats().TCPSegsSent + r.tb.Stack().Stats().TCPSegsSent }
	before, from := segs(), s.delivered
	b.SetBytes(16384)
	b.ReportAllocs()
	b.ResetTimer()
	s.deliver(b.N)
	b.StopTimer()
	s.drain()
	b.ReportMetric(float64(segs()-before)/float64(s.delivered-from), "segs/op")
	b.ReportMetric(s.copiesSince(l, from), "copies/B")
}
