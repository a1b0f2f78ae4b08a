package catnap

// The orderings the pump promises on the kernel path, on two catnap
// transports driven directly: data before the EOF behind it, and waiter k of
// an endpoint served element k of its stream while a poller and the
// application pump it at once. Run under -race.

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/libos/catnip"
	"demikernel/internal/netstack"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

const pumpPort = 7

// pumpRig is two catnap transports on one switch; b listens.
type pumpRig struct {
	t      testing.TB
	model  simclock.CostModel
	ta, tb *Transport
	lis    core.Endpoint
}

func newPumpRig(t testing.TB) *pumpRig {
	r := &pumpRig{t: t, model: simclock.Datacenter2019()}
	sw := fabric.NewSwitch(&r.model, 1)
	host := func(x byte) *Transport {
		return New(&r.model, catnip.NewSharded(&r.model, sw, catnip.Config{
			MAC: fabric.MAC{2, 0, 0, 0, 0, x},
			IP:  netstack.IP(10, 0, 0, x),
		}, 1, 1))
	}
	r.ta, r.tb = host(0xa), host(0xb)
	var err error
	if r.lis, err = r.tb.Socket(); err != nil {
		t.Fatal(err)
	}
	if err := r.lis.Bind(core.Addr{Port: pumpPort}); err != nil {
		t.Fatal(err)
	}
	if err := r.lis.Listen(); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *pumpRig) poll() { r.ta.Poll(); r.tb.Poll() }

// connect dials tb's listener from ta and returns both ends.
func (r *pumpRig) connect() (a, b core.Endpoint) {
	r.t.Helper()
	a, err := r.ta.Socket()
	if err != nil {
		r.t.Fatal(err)
	}
	if err := a.Connect(core.Addr{IP: netstack.IP(10, 0, 0, 0xb), Port: pumpPort}); err != nil {
		r.t.Fatal(err)
	}
	for i := 0; b == nil || !a.Connected(); i++ {
		if i > 10_000 {
			r.t.Fatal("handshake: no progress")
		}
		r.poll()
		if b == nil {
			if ep, ok, err := r.lis.Accept(); err != nil {
				r.t.Fatal(err)
			} else if ok {
				b = ep
			}
		}
	}
	return a, b
}

// TestEOFDeliveredAfterFinalBytes: the peer's last message and its FIN
// reach the receiver in one poll, with two pops waiting. The pump that
// reads them serves the first waiter the message and then fails the second
// with ErrClosed — in that order, and without waiting for another pump.
func TestEOFDeliveredAfterFinalBytes(t *testing.T) {
	r := newPumpRig(t)
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

// TestConcurrentPumpsKeepOrder: a poller goroutine pumps both transports
// (as LibOS.Background does) while one application goroutine a side pops
// and pushes, so every endpoint is pumped from two goroutines at once.
// 2 000 framed SGAs go out and come back; waiter k of either endpoint
// receives element k of the stream, and every DoneFunc fires exactly once.
func TestConcurrentPumpsKeepOrder(t *testing.T) {
	const (
		total  = 2_000
		window = 16 // echoes the client keeps in flight
		armed  = 4  // pops the server keeps waiting
	)
	r := newPumpRig(t)
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
