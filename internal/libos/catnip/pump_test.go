package catnip

// The lock scopes of the data path, on two transports driven directly: a
// pump holds the shard lock once and fires what completed after
// releasing it, so a completion may call back into the endpoint; two
// goroutines pumping one endpoint keep the stream in order; and the
// orderings the pump promises — data before the EOF behind it, a dead
// connection failing everything on the pump that sees it — each have a
// test by name. (A parked drain resuming at half the cap is
// TestParkedDrainResumes.) Run under -race.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/netstack"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
)

// overSendBuffer is a push the TCP send buffer cannot take whole, so that
// its frame stays on the endpoint's txq.
const overSendBuffer = 400_000

// reentry hands out DoneFuncs that, fired, use the endpoint from inside
// the completion, and counts how often each fired.
type reentry struct {
	e     core.Endpoint
	mu    sync.Mutex
	fired map[string]int
}

func (x *reentry) count(what string) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.fired[what]
}

func (x *reentry) done(what string, reenter bool) queue.DoneFunc {
	x.mu.Lock()
	x.fired[what] = 0
	x.mu.Unlock()
	return func(queue.Completion) {
		x.mu.Lock()
		x.fired[what]++
		x.mu.Unlock()
		if !reenter {
			return
		}
		x.e.Pump()
		x.e.Pop(x.done(what+">pop", false))
		x.e.Push(sga.New(make([]byte, 64)), 0, x.done(what+">push", false))
		x.e.Pump()
		x.e.Close()
		x.e.Pop(x.done(what+">pop after close", false))
	}
}

// TestDoneFuncMayReenterEndpoint: a completion fired by any path — a push
// accepted inline, a pop served by a poll's pump, the failures of a dead
// connection, a peer's close, the endpoint's own close and a crash — may
// pump, pop, push and close the endpoint it came from. None of it may
// deadlock, and every DoneFunc, the ones handed over from inside a
// completion included, fires exactly once: with the case's goroutine
// alone, and beside a poller goroutine that pumps both transports (as
// LibOS.Background does), which fires some of the completions itself.
func TestDoneFuncMayReenterEndpoint(t *testing.T) {
	small := sga.New(make([]byte, 64))
	big := sga.New(make([]byte, overSendBuffer))
	for _, tc := range []struct {
		name string
		run  func(r *wlRig, a, b core.Endpoint, x *reentry)
	}{
		{"inline push", func(r *wlRig, a, b core.Endpoint, x *reentry) {
			a.Push(small, 0, x.done("push", true))
		}},
		{"pump-served pop", func(r *wlRig, a, b core.Endpoint, x *reentry) {
			a.Pop(x.done("pop", true))
			b.Push(small, 0, func(queue.Completion) {})
			r.until("the pop", func() bool { return x.count("pop") > 0 })
		}},
		{"dead connection", func(r *wlRig, a, b core.Endpoint, x *reentry) {
			a.Pop(x.done("pop", true))
			a.Push(big, 0, x.done("push", true))
			r.poll()
			r.tb.Crash()
			if err := r.tb.Restart(); err != nil {
				r.t.Fatal(err)
			}
			r.until("the reset", func() bool {
				r.advance(time.Second) // the retransmission that draws it
				return x.count("pop") > 0 && x.count("push") > 0
			})
		}},
		{"peer close", func(r *wlRig, a, b core.Endpoint, x *reentry) {
			a.Pop(x.done("pop 1", true))
			a.Pop(x.done("pop 2", true))
			b.Close()
			r.until("the FIN", func() bool { return x.count("pop 2") > 0 })
		}},
		{"close", func(r *wlRig, a, b core.Endpoint, x *reentry) {
			a.Pop(x.done("pop 1", true))
			a.Pop(x.done("pop 2", true))
			a.Close()
		}},
		{"crash", func(r *wlRig, a, b core.Endpoint, x *reentry) {
			a.Pop(x.done("pop", true))
			a.Push(big, 0, x.done("push", true))
			r.ta.Crash()
		}},
	} {
		for _, poller := range []bool{false, true} {
			name := tc.name
			if poller {
				name += " beside a poller"
			}
			t.Run(name, func(t *testing.T) {
				r := newWLRig(t, 0)
				a, b := r.connect()
				x := &reentry{e: a, fired: map[string]int{}}
				var stop atomic.Bool
				polled := make(chan struct{})
				go func() {
					defer close(polled)
					for poller && !stop.Load() {
						r.poll()
						runtime.Gosched()
					}
				}()
				finished := make(chan struct{})
				go func() {
					defer close(finished)
					tc.run(r, a, b, x)
					a.Close() // fails whatever a completion left waiting
				}()
				select {
				case <-finished:
				case <-time.After(20 * time.Second):
					t.Fatal("deadlock: a completion that re-entered its endpoint never returned")
				}
				stop.Store(true)
				<-polled
				for what, n := range x.fired {
					if n != 1 {
						t.Errorf("DoneFunc %q fired %d times, want once", what, n)
					}
				}
			})
		}
	}
}

// TestConcurrentPumpsKeepOrder: a poller goroutine pumps both transports
// (as LibOS.Background does) while one application goroutine a side pops
// and pushes, so every endpoint is pumped from two goroutines at once.
// 10 000 framed SGAs go out and come back; waiter k of either endpoint
// receives element k of the stream, and every DoneFunc fires exactly once.
func TestConcurrentPumpsKeepOrder(t *testing.T) {
	const (
		total  = 10_000
		window = 16 // echoes the client keeps in flight
		armed  = 4  // pops the server keeps waiting
	)
	r := newWLRig(t, 0)
	a, b := r.connect()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			r.poll()
			runtime.Gosched()
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	var fired [4][total]atomic.Int32 // client push, client pop, server pop, server push
	seqOf := func(c queue.Completion) int {
		if c.Err != nil {
			return -1
		}
		return int(binary.BigEndian.Uint32(c.SGA.Bytes()))
	}

	// The server: pop k carries element k, whichever goroutine's pump
	// served it; the echoes go back in stream order.
	type arrival struct {
		k int
		s sga.SGA
	}
	arrivals := make(chan arrival, total)
	serverPop := func(k int) queue.DoneFunc {
		return func(c queue.Completion) {
			fired[2][k].Add(1)
			if got := seqOf(c); got != k {
				t.Errorf("server waiter %d was served element %d (%v)", k, got, c.Err)
			}
			arrivals <- arrival{k, c.SGA}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < armed; k++ {
			b.Pop(serverPop(k))
		}
		held := map[int]sga.SGA{}
		for next := 0; next < total; {
			select {
			case got := <-arrivals:
				held[got.k] = got.s
			case <-time.After(20 * time.Second):
				t.Errorf("server: element %d never arrived", next)
				return
			}
			for s, ok := held[next]; ok; s, ok = held[next] {
				k := next
				b.Push(s, 0, func(queue.Completion) { fired[3][k].Add(1) })
				s.Free()
				delete(held, k)
				if k+armed < total {
					b.Pop(serverPop(k + armed))
				}
				next++
			}
		}
	}()

	// The client, on the test's goroutine.
	slots := make(chan struct{}, window)
	for k := 0; k < total; k++ {
		select {
		case slots <- struct{}{}:
		case <-time.After(20 * time.Second):
			t.Fatalf("client: echo %d never came back", k-window)
		}
		k := k
		a.Pop(func(c queue.Completion) {
			fired[1][k].Add(1)
			if got := seqOf(c); got != k {
				t.Errorf("client waiter %d was served echo %d (%v)", k, got, c.Err)
			}
			c.SGA.Free()
			<-slots
		})
		msg := make([]byte, 64)
		binary.BigEndian.PutUint32(msg, uint32(k))
		a.Push(sga.New(msg), 0, func(queue.Completion) { fired[0][k].Add(1) })
	}
	for i := 0; i < window; i++ { // the last echoes
		select {
		case slots <- struct{}{}:
		case <-time.After(20 * time.Second):
			t.Fatal("client: the last echoes never came back")
		}
	}
	for kind := range fired {
		for k := range fired[kind] {
			if n := fired[kind][k].Load(); n != 1 {
				t.Fatalf("DoneFunc %d of kind %d fired %d times, want once", k, kind, n)
			}
		}
	}
}

// TestEOFDeliveredAfterFinalBytes: the peer's last message and its FIN
// reach the receiver in one poll, with two pops waiting. The pump that
// reads them serves the first waiter the message and then fails the second
// with ErrClosed — in that order, and without waiting for another pump.
func TestEOFDeliveredAfterFinalBytes(t *testing.T) {
	r := newWLRig(t, 0)
	a, b := r.connect()
	var order []error
	for i := 0; i < 2; i++ {
		b.Pop(func(c queue.Completion) {
			order = append(order, c.Err)
			c.SGA.Free()
		})
	}
	a.Push(sga.New(make([]byte, 64)), 0, func(queue.Completion) {})
	a.Close()
	r.tb.Poll()
	if len(order) != 2 || order[0] != nil || !errors.Is(order[1], queue.ErrClosed) {
		t.Fatalf("the poll that took in the last bytes and the FIN completed the two pops with %v; want [<nil> ErrClosed]", order)
	}
}

// TestDeadConnFailsPushesAndWaiters: when the stack declares a connection
// dead, the pump that sees it fails the frames still queued behind the send
// buffer and the pops waiting, each with the error typed as ErrPeerDead
// around the stack's own.
func TestDeadConnFailsPushesAndWaiters(t *testing.T) {
	r := newWLRig(t, 0)
	a, _ := r.connect()
	var popErr, pushErr error
	pops, pushes := 0, 0
	a.Pop(func(c queue.Completion) { popErr = c.Err; pops++ })
	a.Push(sga.New(make([]byte, overSendBuffer)), 0, func(c queue.Completion) { pushErr = c.Err; pushes++ })
	r.poll()
	if _, _, _, pumps := r.ta.WorkQueued(); pushes != 0 || pumps != 1 {
		t.Fatalf("before the crash: push completed %d times, %d endpoints to pump; want the frame waiting on the pump list", pushes, pumps)
	}
	r.tb.Crash()
	if err := r.tb.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; a.Err() == nil; i++ { // until the poll that takes in the reset
		if pops+pushes != 0 || i > 1000 {
			t.Fatalf("round %d: %d pops and %d pushes completed on a connection still alive", i, pops, pushes)
		}
		r.tb.Poll()
		r.advance(time.Second)
		r.ta.Poll()
	}
	for what, got := range map[string]struct {
		n   int
		err error
	}{"pop": {pops, popErr}, "push": {pushes, pushErr}} {
		if got.n != 1 || !errors.Is(got.err, core.ErrPeerDead) || !errors.Is(got.err, netstack.ErrConnClosed) {
			t.Errorf("the %s completed %d times with %v on the poll that saw the reset; want once, ErrPeerDead wrapping ErrConnClosed", what, got.n, got.err)
		}
	}
}

// BenchmarkCatnip_Echo64 is one 64 B echo between two transports on one
// switch, driven from one goroutine with no libOS above them: the client's
// Pop and Push, the server's poll, its Push of the echo and Pop for the next
// request, the client's poll. It is the catnip rung of the repo benchmark's
// echo64 ladder (catnip, netstack, NIC and fabric, without core and the
// application), as BenchmarkNetstack_PingPong64 is the netstack rung.
// segs/op is what the round trip put on the wire: 2.
func BenchmarkCatnip_Echo64(b *testing.B) {
	r := newWLRig(b, 0)
	cli, srv := r.connect()
	var req sga.SGA
	requests, echoes := 0, 0
	onRequest := func(c queue.Completion) { req = c.SGA; requests++ }
	onEcho := func(c queue.Completion) { c.SGA.Free(); echoes++ }
	pushed := func(queue.Completion) {}
	msg := sga.New(make([]byte, 64))
	echo := func() {
		cli.Pop(onEcho)
		cli.Push(msg, 0, pushed)
		r.tb.Poll()
		srv.Push(req, 0, pushed)
		req.Free() // the push completed inside Push: the send ring had room
		srv.Pop(onRequest)
		r.ta.Poll()
	}
	srv.Pop(onRequest)
	for i := 0; i < 64; i++ {
		echo() // warm pools and rings
	}
	segs := func() int64 { return r.ta.Stack().Stats().TCPSegsSent + r.tb.Stack().Stats().TCPSegsSent }
	before, want := segs(), echoes+b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		echo()
	}
	b.StopTimer()
	if requests != want || echoes != want {
		b.Fatalf("%d requests and %d echoes completed, want %d of each: an echo took more than a poll a side", requests, echoes, want)
	}
	b.ReportMetric(float64(segs()-before)/float64(b.N), "segs/op")
}

// BenchmarkCatnip_PollIdleUDP is an idle Transport.Poll beside 0, 1 and
// 1 000 bound datagram endpoints. A datagram endpoint is pumped only when
// the stack reports its socket readable, so the three must read alike, and
// allocate nothing.
func BenchmarkCatnip_PollIdleUDP(b *testing.B) {
	for _, n := range []int{0, 1, 1000} {
		b.Run(fmt.Sprint(n, " endpoints"), func(b *testing.B) {
			r := newWLRig(b, 0)
			for i := 0; i < n; i++ {
				u, err := r.ta.SocketUDP()
				if err != nil {
					b.Fatal(err)
				}
				if err := u.Bind(core.Addr{Port: uint16(20000 + i)}); err != nil {
					b.Fatal(err)
				}
			}
			r.poll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.ta.Poll()
			}
		})
	}
}
