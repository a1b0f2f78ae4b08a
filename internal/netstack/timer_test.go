package netstack

// The timer heap against a reference: two stacks are driven through the
// same seeded history under one stopped clock, one ticking through the lazy
// deadline heap, the other through referenceTick below — a scan of every
// connection, fired in (deadline, arm order). They must put the same
// segments on the wire, give up on the same connections and report them
// ready in the same order, step for step; the heap's own invariants are
// checked after every step too.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
)

// tapDevice is a NIC that writes down every TCP segment it is asked to
// transmit, and receives what a test puts in rx, counting the bursts it is
// asked for.
type tapDevice struct {
	t      *testing.T
	log    []string
	rx     []fabric.Frame
	bursts int
}

func (d *tapDevice) MAC() fabric.MAC { return macA }

func (d *tapDevice) Tx(data []byte, _ simclock.Lat) { d.record(data) }

func (d *tapDevice) TxFrame(f fabric.Frame) {
	d.record(f.Data)
	f.Release()
}

func (d *tapDevice) RxPending(int) bool { return len(d.rx) > 0 }

func (d *tapDevice) Offloads() bool { return false }

func (d *tapDevice) TxTSO(*nic.TSO) int { panic("tapDevice has no segmentation offload") }

func (d *tapDevice) AppendRxBurst(dst []fabric.Frame, _, max int) []fabric.Frame {
	d.bursts++
	n := min(max, len(d.rx))
	dst = append(dst, d.rx[:n]...)
	d.rx = d.rx[n:]
	return dst
}

func (d *tapDevice) record(frame []byte) {
	h, body, ok := parseIPv4(frame[ethHdrLen:], fabric.CsumNone)
	if !ok {
		d.t.Fatalf("stack transmitted a bad IPv4 packet")
	}
	seg, ok := parseTCP(body, h.src, h.dst, fabric.CsumNone)
	if !ok {
		d.t.Fatalf("stack transmitted a bad TCP segment")
	}
	d.log = append(d.log, fmt.Sprintf("port %d flags %#02x seq %d len %d",
		seg.srcPort, seg.flags, seg.seq, len(seg.payload)))
}

// stoppedClock is the stacks' shared notion of time: a clock that stands
// still until the test steps it.
func stoppedClock() *simclock.Clock {
	c := simclock.NewClock()
	c.SetSkew(-1e6)
	return c
}

func newTapStack(t *testing.T, clk *simclock.Clock) (*Stack, *tapDevice) {
	model := simclock.Datacenter2019()
	dev := &tapDevice{t: t}
	s := New(&model, dev, Config{IP: ipA, MSS: 512, RTO: 20 * time.Millisecond, MaxRetransmits: 4, Clock: clk})
	s.arp[ipB] = macB // resolved: every segment reaches the tap, none parks behind ARP
	return s, dev
}

// referenceTick is the trivially-correct timer pass: look at every
// connection, and fire the due ones earliest first, arm order breaking
// ties.
func referenceTick(s *Stack) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.UnixNano()
	var due []*TCPConn
	for _, c := range s.conns {
		if c.deadline != 0 && c.deadline <= now {
			due = append(due, c)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].deadline != due[j].deadline {
			return due[i].deadline < due[j].deadline
		}
		return int32(due[i].armSeq-due[j].armSeq) < 0
	})
	for _, c := range due {
		c.fireTimerLocked()
	}
}

// nextDeadline is the clock reading, in Unix nanoseconds, of the heap's
// head once cleared entries are dropped off it, as the tick drops them,
// and false if no timer is armed. The head sorts no later than any armed
// connection's deadline, so a clock stepped to it passes no timer.
func (s *Stack) nextDeadline() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.timers) > 0 && s.timers[0].c.deadline == 0 {
		s.timerRemoveLocked(s.timers[0].c)
	}
	if len(s.timers) == 0 {
		return 0, false
	}
	return s.timers[0].at, true
}

// takeReady empties the ready queue as PollReady does, without polling.
func takeReady(s *Stack) []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeReadyLocked(nil)
}

// checkTimerHeap verifies what the lazy heap promises between calls.
func checkTimerHeap(t *testing.T, s *Stack, where string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.timers {
		e := &s.timers[i]
		if int(e.c.timerSlot) != i+1 {
			t.Fatalf("%s: entry %d belongs to a connection that thinks it is in slot %d", where, i, e.c.timerSlot-1)
		}
		if i > 0 && e.before(&s.timers[(i-1)/2]) {
			t.Fatalf("%s: entry %d sorts before its parent", where, i)
		}
		if s.conns[e.c.key] != e.c {
			t.Fatalf("%s: entry %d is for a connection no longer in the demux table", where, i)
		}
		if d := e.c.deadline; d != 0 && (d < e.at || d == e.at && int32(e.c.armSeq-e.seq) < 0) {
			t.Fatalf("%s: entry %d sorts after its connection's deadline", where, i)
		}
	}
	for _, c := range s.conns {
		if c.deadline != 0 && c.timerSlot == 0 {
			t.Fatalf("%s: port %d is armed but has no heap entry", where, c.key.localPort)
		}
	}
}

// timerActor applies one history to one stack. Everything it decides
// comes from values both stacks share, so two actors stay in lockstep
// for as long as their stacks behave alike.
type timerActor struct {
	s     *Stack
	dev   *tapDevice
	conns []*TCPConn // by index; the connection's owner is its index
	ready []any
	// earlier counts arms that moved a queued deadline forward in time.
	earlier int
}

const peerISS = 7000

func (a *timerActor) dial(i int, gen int) {
	c, err := a.s.DialTCPFrom(uint16(1000+i), ipB, uint16(80+gen))
	if err != nil {
		a.dev.t.Fatalf("dial %d: %v", i, err)
	}
	h := c.Hold()
	h.SetOwner(i)
	h.Release()
	a.conns[i] = c
}

// inject delivers one segment from the peer to connection i.
func (a *timerActor) inject(i int, flags uint8, ack uint32, window uint16) {
	c := a.conns[i]
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	at := int64(0)
	if c.timerSlot != 0 {
		at = a.s.timers[c.timerSlot-1].at
	}
	seq := uint32(peerISS + 1)
	if flags&flagSYN != 0 {
		seq = peerISS
	}
	c.handleSegmentLocked(tcpSegment{
		srcPort: c.key.remotePort, dstPort: c.key.localPort,
		seq: seq, ack: ack, flags: flags, window: window,
	}, 0)
	if at != 0 && c.deadline != 0 && c.deadline < at {
		a.earlier++
	}
}

func (a *timerActor) step(op, i, arg int, gen *int) {
	c := a.conns[i]
	a.s.mu.Lock()
	state, flight, queued, closing := c.state, c.sndNxt-c.sndUna, c.sndBuf.Len(), c.finQueued
	una, nxt := c.sndUna, c.sndNxt
	a.s.mu.Unlock()
	switch {
	case state == stateClosed:
		*gen++
		a.dial(i, *gen)
	case state == stateSynSent:
		if op < 6 {
			a.inject(i, flagSYN|flagACK, nxt, 0xffff)
		}
	case op < 4 && !closing:
		if _, err := c.Send(make([]byte, 1+arg%1500), 0); err != nil {
			a.dev.t.Fatalf("send on %d: %v", i, err)
		}
	case op < 6:
		if flight > 0 {
			a.inject(i, flagACK, una+1+uint32(arg)%flight, 0xffff) // partial or full
		}
	case op == 6:
		a.inject(i, flagACK, nxt, 0) // everything acknowledged, window shut: persist
	case op == 7:
		if queued > 0 {
			a.inject(i, flagACK, nxt, 0xffff) // window reopens, probe bytes acknowledged
		}
	case op == 8:
		if arg%4 == 0 {
			a.inject(i, flagRST, 0, 0)
		}
	case op == 9:
		if arg%2 == 0 {
			c.Close()
		} else if closing && flight > 0 {
			a.inject(i, flagACK|flagFIN, nxt, 0xffff) // our FIN acknowledged, theirs delivered
		}
	}
}

func TestTimersAgainstReferenceScan(t *testing.T) {
	const conns, steps = 64, 4000
	for seed := int64(1); seed <= 6; seed++ {
		var logs [2][]string
		for run := range logs {
			clk := stoppedClock()
			var heap, ref timerActor
			heap.s, heap.dev = newTapStack(t, clk)
			ref.s, ref.dev = newTapStack(t, clk)
			heap.conns, ref.conns = make([]*TCPConn, conns), make([]*TCPConn, conns)
			for i := 0; i < conns; i++ {
				heap.dial(i, 0)
				ref.dial(i, 0)
			}
			rng := rand.New(rand.NewSource(seed))
			genHeap, genRef := 0, 0
			for step := 0; step < steps; step++ {
				where := fmt.Sprintf("seed %d step %d", seed, step)
				if rng.Intn(4) == 0 {
					advance := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
						21 * time.Millisecond, 80 * time.Millisecond, 700 * time.Millisecond}[rng.Intn(7)]
					clk.Step(advance)
					heap.s.mu.Lock()
					_, heap.ready = heap.s.PollReady(heap.ready)
					heap.s.mu.Unlock()
					referenceTick(ref.s)
					ref.ready = append(ref.ready, takeReady(ref.s)...)
				} else {
					op, i, arg := rng.Intn(10), rng.Intn(conns), rng.Intn(1<<16)
					heap.step(op, i, arg, &genHeap)
					ref.step(op, i, arg, &genRef)
				}
				checkTimerHeap(t, heap.s, where)
				for k := len(logs[run]); k < len(heap.dev.log) || k < len(ref.dev.log); k++ {
					got, want := "nothing", "nothing"
					if k < len(heap.dev.log) {
						got = heap.dev.log[k]
					}
					if k < len(ref.dev.log) {
						want = ref.dev.log[k]
					}
					if got != want {
						t.Fatalf("%s: segment %d on the wire is [%s] with the heap, [%s] with the reference scan", where, k, got, want)
					}
				}
				logs[run] = append(logs[run], heap.dev.log[len(logs[run]):]...)
				if got, want := fmt.Sprint(heap.ready), fmt.Sprint(ref.ready); got != want {
					t.Fatalf("%s: ready owners %s with the heap, %s with the reference scan", where, got, want)
				}
				heap.ready, ref.ready = heap.ready[:0], ref.ready[:0]
				if got, want := heap.s.Stats(), ref.s.Stats(); got != want {
					t.Fatalf("%s: stats %+v with the heap, %+v with the reference scan", where, got, want)
				}
			}
			st := heap.s.Stats()
			if st.GiveUps == 0 || st.Retransmits < 100 || st.RSTsRcvd == 0 || heap.earlier == 0 {
				t.Fatalf("seed %d coverage: %d give-ups, %d timer firings, %d resets, %d deadlines moved earlier; want some of each",
					seed, st.GiveUps, st.Retransmits, st.RSTsRcvd, heap.earlier)
			}
		}
		if fmt.Sprint(logs[0]) != fmt.Sprint(logs[1]) {
			t.Fatalf("seed %d: two runs put different segments on the wire", seed)
		}
	}
}

// TestTimerHeapForgetsRemovedConns: each of the four ways out of s.conns
// takes the connection's heap entry along, armed or lazily cleared.
func TestTimerHeapForgetsRemovedConns(t *testing.T) {
	clk := stoppedClock()
	s, dev := newTapStack(t, clk)
	a := &timerActor{s: s, dev: dev, conns: make([]*TCPConn, 4)}
	gone := func(i int, how string) {
		t.Helper()
		c := a.conns[i]
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, there := s.conns[c.key]; there || c.timerSlot != 0 || c.deadline != 0 {
			t.Fatalf("%s: in demux table %v, heap slot %d, deadline %d; want gone from all", how, there, c.timerSlot, c.deadline)
		}
		for i := range s.timers {
			if s.timers[i].c == c {
				t.Fatalf("%s: heap entry %d still names the connection", how, i)
			}
		}
	}
	for i := range a.conns {
		a.dial(i, 0)
	}

	a.inject(0, flagRST, 0, 0) // SYN timer armed
	gone(0, "reset")

	a.inject(1, flagSYN|flagACK, a.conns[1].sndNxt, 0xffff) // timer cleared, entry stays
	a.conns[1].Close()                                      // FIN re-arms it
	a.inject(1, flagACK|flagFIN, a.conns[1].sndNxt, 0xffff)
	gone(1, "orderly close")

	a.inject(3, flagSYN|flagACK, a.conns[3].sndNxt, 0xffff) // sits the give-up out, established
	for i := 0; a.conns[2].Err() == nil; i++ {
		if i > 100 {
			t.Fatal("unanswered SYN never gave up")
		}
		clk.Step(time.Second)
		s.Poll()
		checkTimerHeap(t, s, "give-up")
	}
	gone(2, "give-up")

	if _, err := a.conns[3].Send([]byte("unacknowledged"), 0); err != nil {
		t.Fatal(err)
	}
	s.Shutdown(nil)
	gone(3, "shutdown")
	if timers, ready, acks := s.WorkQueued(); timers != 0 || ready != 4 || acks != 0 {
		t.Fatalf("after shutdown: %d timer entries (want 0), %d ready connections (want all 4, each once), %d held ACKs (want 0)", timers, ready, acks)
	}
}

// BenchmarkNetstack_PollIdleConns is Stack.Poll on a stack at rest beside
// 1, 1 k and 100 k established connections: nothing to receive, no timer
// armed. The three read the same — the poll looks at the head of the timer
// heap, not at the connections — where a scan of the connection table grew
// with it.
func BenchmarkNetstack_PollIdleConns(b *testing.B) {
	for _, n := range []int{1, 1000, 100_000} {
		name := fmt.Sprint(n)
		if n >= 1000 {
			name = fmt.Sprintf("%dk", n/1000)
		}
		b.Run(name, func(b *testing.B) {
			w := newWorld(b, Config{}, Config{})
			// A client port pairs with one server port only once, so the
			// connections spread over as many listeners as that takes.
			const perListener = 50_000
			var listeners []*TCPListener
			for p := 0; p*perListener < n; p++ {
				l, err := w.b.ListenTCP(uint16(9000 + p))
				if err != nil {
					b.Fatal(err)
				}
				listeners = append(listeners, l)
			}
			accepted := 0
			for i := 0; i < n; {
				for burst := 0; burst < 32 && i < n; burst, i = burst+1, i+1 {
					if _, err := w.a.DialTCPFrom(uint16(1024+i%perListener), ipB, uint16(9000+i/perListener)); err != nil {
						b.Fatal(err)
					}
				}
				w.pump()
				for _, l := range listeners {
					for {
						if _, ok := l.Accept(); !ok {
							break
						}
						accepted++
					}
				}
			}
			if accepted != n {
				b.Fatalf("%d of %d connections established", accepted, n)
			}
			// Past every handshake's deadline: one poll retires the heap
			// entries the handshakes left behind, lazily cleared.
			w.clock.Step(time.Minute)
			w.pump()
			if timers, _, _ := w.b.WorkQueued(); timers != 0 {
				b.Fatalf("%d timer entries on a stack at rest", timers)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.b.Poll()
			}
		})
	}
}

// TestShortBurstEndsPoll: a poll whose burst comes back short of the
// maximum, with nothing pending behind it, asks the device for one burst —
// it does not come back for an empty one — and a full burst is followed
// by another.
func TestShortBurstEndsPoll(t *testing.T) {
	s, dev := newTapStack(t, stoppedClock())
	// ARP replies: the stack learns from them and sends nothing.
	reply := arpPacket{op: arpOpReply, senderHW: macB, senderIP: ipB, targetHW: macA, targetIP: ipA}
	for _, frames := range []int{0, 1, 3, rxBurstMax - 1, rxBurstMax, rxBurstMax + 1} {
		dev.rx, dev.bursts = nil, 0
		for i := 0; i < frames; i++ {
			dev.rx = append(dev.rx, fabric.Frame{Data: reply.marshal(appendEth(nil, macA, macB, etherTypeARP))})
		}
		if n := s.Poll(); n != frames {
			t.Fatalf("%d frames queued: the poll took %d", frames, n)
		}
		want := 1
		if frames >= rxBurstMax {
			want = 2
		}
		if dev.bursts != want || len(dev.log) != 0 {
			t.Fatalf("%d frames queued: %d bursts asked for, %d segments sent; want %d and 0", frames, dev.bursts, len(dev.log), want)
		}
	}
}
