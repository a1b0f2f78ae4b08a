package catnip

// In-package checks of the transport's own tables and lists, on two
// transports driven directly (no libOS above them): closing gives back
// everything opening took, and a reader that catches up on a parked drain
// gets it resumed by the next poll.

import (
	"fmt"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

type wlRig struct {
	t     testing.TB
	model simclock.CostModel
	// clock is the stacks' clock: it stands still until stepped by hand
	// (advance), and is read by whichever goroutine polls.
	clock  *simclock.Clock
	sw     *fabric.Switch
	ta, tb *Transport
	lis    core.Endpoint
}

const wlPort = 7

func newWLRig(t testing.TB, readyCap int) *wlRig {
	return newWLRigWith(t, func(_, b *Config) { b.RxReadyCap = readyCap })
}

// newWLRigWith is newWLRig with the two transports' configurations, dialer's
// and listener's, open to adjustment.
func newWLRigWith(t testing.TB, adjust func(a, b *Config)) *wlRig {
	return newWLRigOn(t, 1, nic.Config{}, adjust)
}

// newWLRigOn is newWLRigWith on a switch whose faults are drawn from seed,
// with both devices configured as dev but for their MACs.
func newWLRigOn(t testing.TB, seed int64, dev nic.Config, adjust func(a, b *Config)) *wlRig {
	r := &wlRig{t: t, model: simclock.Datacenter2019(), clock: simclock.NewClock()}
	r.clock.SetSkew(-1e6)
	r.sw = fabric.NewSwitch(&r.model, seed)
	sw := r.sw
	ca := Config{MAC: fabric.MAC{2, 0, 0, 0, 0, 0xa}, IP: netstack.IP(10, 0, 0, 0xa), Clock: r.clock}
	cb := Config{MAC: fabric.MAC{2, 0, 0, 0, 0, 0xb}, IP: netstack.IP(10, 0, 0, 0xb), Clock: r.clock}
	adjust(&ca, &cb)
	build := func(cfg Config) *Transport {
		dev.MAC = cfg.MAC
		return newSet(&r.model, nic.New(&r.model, sw, dev), nil, cfg, 1, 1).Shard(0)
	}
	r.ta, r.tb = build(ca), build(cb)
	var err error
	if r.lis, err = r.tb.Socket(); err != nil {
		t.Fatal(err)
	}
	if err := r.lis.Bind(core.Addr{Port: wlPort}); err != nil {
		t.Fatal(err)
	}
	if err := r.lis.Listen(); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *wlRig) poll() { r.ta.Poll(); r.tb.Poll() }

// advance steps the stacks' clock by d.
func (r *wlRig) advance(d time.Duration) { r.clock.Step(d) }

// until polls until cond holds.
func (r *wlRig) until(what string, cond func() bool) {
	r.t.Helper()
	for i := 0; !cond(); i++ {
		if i > 10_000 {
			r.t.Fatalf("%s: no progress", what)
		}
		r.poll()
	}
}

// connect dials tb's listener from ta and returns both ends.
func (r *wlRig) connect() (a, b core.Endpoint) {
	r.t.Helper()
	a, err := r.ta.Socket()
	if err != nil {
		r.t.Fatal(err)
	}
	if err := a.Connect(core.Addr{IP: netstack.IP(10, 0, 0, 0xb), Port: wlPort}); err != nil {
		r.t.Fatal(err)
	}
	r.until("handshake", func() bool {
		if b == nil {
			if ep, ok, err := r.lis.Accept(); err != nil {
				r.t.Fatal(err)
			} else if ok {
				b = ep
			}
		}
		return b != nil && a.Connected()
	})
	return a, b
}

// atRest requires empty work lists on both transports once every timer
// deadline has passed.
func (r *wlRig) atRest(what string) {
	r.t.Helper()
	r.advance(time.Minute)
	r.poll()
	r.poll()
	for name, tr := range map[string]*Transport{"dialer": r.ta, "listener": r.tb} {
		if timers, ready, acks, pumps := tr.WorkQueued(); timers+ready+acks+pumps != 0 {
			r.t.Fatalf("%s: %s at rest has %d timer entries, %d ready connections, %d held ACKs, %d endpoints to pump", what, name, timers, ready, acks, pumps)
		}
	}
}

// TestCloseReleasesEndpoint: 10 000 connect → echo → close cycles, each
// closing the server's end with two requests received and not popped,
// leave the endpoint tables, the stacks' connection tables, the work lists
// and both frame pools where they started; so do 100 datagram endpoints,
// each closed holding a datagram nobody popped. Before Close removed the
// endpoint from Transport.eps, each cycle left one behind on either side;
// before Close freed what nobody popped, each left two frames out.
func TestCloseReleasesEndpoint(t *testing.T) {
	r := newWLRig(t, 0)
	frames, lisFrames := r.ta.pool.Outstanding(), r.tb.pool.Outstanding()
	msg := sga.New(make([]byte, 64))
	for cycle := 0; cycle < 10_000; cycle++ {
		a, b := r.connect()
		var atB, atA queue.Completion
		gotB, gotA := false, false
		b.Pop(func(c queue.Completion) { atB, gotB = c, true })
		// One flush, so the request and the two behind it arrive, and are
		// decoded, together.
		for i := 0; i < 3; i++ {
			a.(*endpoint).PushBatched(msg, 0, func(queue.Completion) {})
		}
		a.Pump()
		r.until("request", func() bool { return gotB })
		if held := heldBy(b); held != 2 {
			t.Fatalf("cycle %d: the server holds %d requests, want the 2 behind the one popped", cycle, held)
		}
		a.Pop(func(c queue.Completion) { atA, gotA = c, true })
		b.Push(atB.SGA, 0, func(queue.Completion) {})
		atB.SGA.Free() // the push completed inside Push: the send ring had room
		r.until("response", func() bool { return gotA })
		if atB.Err != nil || atA.Err != nil || atA.SGA.Len() != msg.Len() {
			t.Fatalf("cycle %d: echo failed: %v, %v, %d bytes", cycle, atB.Err, atA.Err, atA.SGA.Len())
		}
		atA.SGA.Free()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		r.until("orderly close", func() bool {
			return len(r.ta.Stack().EstablishedFlows())+len(r.tb.Stack().EstablishedFlows()) == 0
		})
	}
	if len(r.ta.eps) != 0 || len(r.tb.eps) != 1 {
		t.Fatalf("endpoint tables hold %d and %d endpoints, want 0 and the listener", len(r.ta.eps), len(r.tb.eps))
	}
	if r.lis.(*endpoint).slot != 0 {
		t.Fatalf("the listener moved to slot %d of a table of one", r.lis.(*endpoint).slot)
	}
	r.atRest("after 10k cycles")
	pools := func(what string) {
		t.Helper()
		if got, lis := r.ta.pool.Outstanding(), r.tb.pool.Outstanding(); got != frames || lis != lisFrames {
			t.Fatalf("%s: frame pools outstanding went from %d and %d to %d and %d", what, frames, lisFrames, got, lis)
		}
	}
	pools("after 10k cycles")

	// The datagram table likewise, each endpoint closed with a datagram
	// received and not popped.
	sender, err := r.tb.SocketUDP()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		u, err := r.ta.SocketUDP()
		if err != nil {
			t.Fatal(err)
		}
		port := uint16(5000 + i)
		if err := u.Bind(core.Addr{Port: port}); err != nil {
			t.Fatal(err)
		}
		if err := sender.Connect(core.Addr{IP: netstack.IP(10, 0, 0, 0xa), Port: port}); err != nil {
			t.Fatal(err)
		}
		rcvd := r.ta.Stack().Stats().UDPRcvd
		sender.Push(msg, 0, func(queue.Completion) {})
		r.until("datagram", func() bool { return r.ta.Stack().Stats().UDPRcvd > rcvd })
		r.poll()
		if err := u.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	if r.ta.HasUDP() || r.tb.HasUDP() {
		t.Fatalf("datagram tables hold %d and %d closed endpoints", len(r.ta.udps), len(r.tb.udps))
	}
	pools("after 100 datagram endpoints")
}

// heldBy returns how many completions ep holds that nobody has popped.
func heldBy(ep core.Endpoint) int {
	e := ep.(*endpoint)
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	return e.rx.Held()
}

// TestParkedDrainResumes: a burst past RxReadyCap parks the receive
// drain at the frame that fills the pop side — the decoder stops at a
// frame's end, so it never holds more than the cap — and once the reader
// has popped the backlog down to half the cap, without ever waiting, the
// endpoint is on the pump list, and the next poll refills the pop side
// from the bytes TCP was holding.
func TestParkedDrainResumes(t *testing.T) {
	// The "left parked" loop below has one step to take at a cap of 4, and
	// three at 8.
	for _, readyCap := range []int{4, 8} {
		t.Run(fmt.Sprint("cap ", readyCap), func(t *testing.T) { parkedDrainResumes(t, readyCap) })
	}
}

func parkedDrainResumes(t *testing.T, readyCap int) {
	const burst = 200 // 200 KB: three receive windows' worth
	r := newWLRig(t, readyCap)
	a, b := r.connect()
	eb := b.(*endpoint)
	for i := 0; i < burst; i++ {
		a.Push(sga.New(append([]byte{byte(i)}, make([]byte, 999)...)), 0, func(queue.Completion) {})
	}
	for i := 0; i < 4; i++ { // past the cap's worth of frames and one more
		r.poll()
	}
	next := 0
	pop := func() {
		t.Helper()
		done := false
		b.Pop(func(c queue.Completion) {
			done = true
			if c.Err != nil || c.SGA.Bytes()[0] != byte(next) {
				t.Fatalf("pop %d: %v", next, c.Err)
			}
			c.SGA.Free()
		})
		if !done {
			t.Fatalf("pop %d had to wait: the backlog ran dry", next)
		}
		next++
	}
	state := func() (buffered int, parked bool, pumps int) {
		t.Helper()
		_, _, _, pumps = r.tb.WorkQueued()
		eb.t.mu.Lock()
		defer eb.t.mu.Unlock()
		if eb.rx.Held() > readyCap {
			t.Fatalf("%d completions buffered past a cap of %d", eb.rx.Held(), readyCap)
		}
		return eb.rx.Held(), eb.rxStalled, pumps
	}
	// The first pop is the waiter that starts the drain. Of what the window
	// let through the drain serves the waiter the first frame, holds the
	// cap's worth after it, and parks.
	done := false
	b.Pop(func(c queue.Completion) { done = true; c.SGA.Free() })
	next++
	if n, parked, pumps := state(); !done || n != readyCap || !parked || pumps != 0 || r.tb.RxStalls() != 1 {
		t.Fatalf("after the first pop: served %v, %d buffered, parked %v, %d to pump, %d stalls; want true, %d, true, 0, 1",
			done, n, parked, pumps, r.tb.RxStalls(), readyCap)
	}
	for n, _, _ := state(); n > readyCap/2+1; n, _, _ = state() {
		pop()
		r.poll() // a parked drain is not work: polls leave it alone
		if _, parked, pumps := state(); !parked || pumps != 0 {
			t.Fatalf("%d buffered: parked %v, %d to pump; want the drain left parked", n-1, parked, pumps)
		}
	}
	pop() // down to half the cap
	if n, parked, pumps := state(); n != readyCap/2 || !parked || pumps != 1 {
		t.Fatalf("reader caught up: %d buffered, parked %v, %d to pump; want %d, true, 1", n, parked, pumps, readyCap/2)
	}
	r.poll()
	if n, parked, pumps := state(); n != readyCap || !parked || pumps != 0 {
		t.Fatalf("after the resuming poll: %d buffered, parked %v, %d to pump; want the backlog refilled to the cap, parked again, 0", n, parked, pumps)
	}
	for next < burst {
		done := false
		b.Pop(func(c queue.Completion) {
			done = true
			if c.Err != nil || c.SGA.Bytes()[0] != byte(next) {
				t.Fatalf("pop %d: %v", next, c.Err)
			}
			c.SGA.Free()
		})
		r.until("pop", func() bool { return done })
		state()
		next++
	}
	r.atRest("burst consumed")
}

// TestEchoSegmentsAgainstWaiters: what an echo costs in segments is set by
// how its bytes fall across the receiver's polls, not by how many pops wait
// for it; a server keeping 8 pops armed reads the same as one keeping 1.
//
// In-order data that amounts to two full segments is acknowledged when the
// burst that brought it ends, and the drain that follows — there is a
// waiter, so the endpoint reads the bytes out, whole frame or not — answers
// again when it reopened the window by an MSS. Less than that is
// acknowledged by the connection's next segment, or alone by its next poll.
// A 4 KiB echo is three segments each way, so in the steady state each side
// sends 3 + 2. The first message of a connection straddles two polls behind
// the initial congestion window of two segments: those two draw the ACK and
// the window update, and the third, alone in its poll and short of an MSS,
// draws neither. The server's echo then carries that acknowledgement (5
// segments); the client, which sends nothing more, acknowledges the echo's
// third segment with the pure ACK of the loop's first trailing poll (6).
//
// A 64 B echo is one segment each way and nothing else while rounds run
// back to back (TestAckPiggybacksOnReply in netstack). Here the server
// pushes the echo between its poll and the client's, so the echo carries the
// request's acknowledgement and the server sends 1; the client has nothing
// to send until the next round, which this loop starts only after two more
// polls, and the first of them sends the echo's acknowledgement alone: 2.
// (Restated: the counts used to be 6, 5, 5 a side for 4 KiB, every poll that
// took data in answering with an ACK of its own before it returned. That
// end-of-burst-only rule no longer exists.)
//
// Under real pollers whether a message straddles two polls, and whether a
// reply beats the next poll, is scheduling, which is why E1's per-layer
// frame counts move between runs (DESIGN.md, "What a poll touches").
func TestEchoSegmentsAgainstWaiters(t *testing.T) {
	segments := func(waiters, size int) (perRound [3][2]int64) {
		r := newWLRig(t, 0)
		a, b := r.connect()
		var arrived []sga.SGA
		serverPop := func(c queue.Completion) {
			if c.Err != nil {
				t.Fatalf("server pop: %v", c.Err)
			}
			arrived = append(arrived, c.SGA)
		}
		for i := 0; i < waiters; i++ {
			b.Pop(serverPop)
		}
		sent := func() [2]int64 {
			return [2]int64{r.ta.Stack().Stats().TCPSegsSent, r.tb.Stack().Stats().TCPSegsSent}
		}
		msg := sga.New(make([]byte, size))
		for round := range perRound {
			before := sent()
			echoed := false
			a.Pop(func(c queue.Completion) {
				if c.Err != nil || len(c.SGA.Bytes()) != size {
					t.Fatalf("client pop: %v", c.Err)
				}
				c.SGA.Free()
				echoed = true
			})
			a.Push(msg, 0, func(queue.Completion) {})
			r.until("echo", func() bool {
				for _, s := range arrived {
					b.Push(s, 0, func(queue.Completion) {})
					s.Free()
					b.Pop(serverPop)
				}
				arrived = arrived[:0]
				return echoed
			})
			r.poll() // the last ACKs
			r.poll()
			after := sent()
			perRound[round] = [2]int64{after[0] - before[0], after[1] - before[1]}
		}
		return perRound
	}
	for _, tc := range []struct {
		size int
		want [3][2]int64
	}{
		{4096, [3][2]int64{{6, 5}, {5, 5}, {5, 5}}},
		{64, [3][2]int64{{2, 1}, {2, 1}, {2, 1}}},
	} {
		for _, waiters := range []int{1, 8} {
			if got := segments(waiters, tc.size); got != tc.want {
				t.Errorf("%d B, %d waiters: segments sent per echo [client server] = %v, want %v", tc.size, waiters, got, tc.want)
			}
		}
	}
}
