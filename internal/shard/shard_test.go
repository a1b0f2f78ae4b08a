package shard

import (
	"runtime"
	"sync"
	"testing"

	"demikernel/internal/telemetry"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](8)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 8; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.Push(99) {
		t.Fatal("push succeeded on full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestRingRoundsCapacity(t *testing.T) {
	r := NewRing[int](5)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want next pow2 8", r.Cap())
	}
	if NewRing[int](0).Cap() != 2 {
		t.Fatal("minimum capacity should be 2")
	}
}

// TestRingPopClearsSlot: a popped slot drops its reference, so a ring of
// pooled frames (a NIC's descriptor ring, a fabric port's) pins no buffer
// it has handed out.
func TestRingPopClearsSlot(t *testing.T) {
	r := NewRing[*int](2)
	r.Push(new(int))
	r.Pop()
	if r.buf[0] != nil {
		t.Fatal("pop left a reference in the ring slot")
	}
}

// TestRingSPSCStress pushes values through the ring from one producer
// goroutine to one consumer goroutine. Run with -race this is the fence
// for the lock-free ordering: the tail store must publish the element
// write, the head store must publish the slot reuse. Spin loops yield so
// the test also completes promptly on a single-CPU machine.
func TestRingSPSCStress(t *testing.T) {
	const total = 100_000
	r := NewRing[int](64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := 0
		for next < total {
			v, ok := r.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v != next {
				t.Errorf("out of order: got %d want %d", v, next)
				return
			}
			next++
		}
	}()
	for i := 0; i < total; i++ {
		for !r.Push(i) {
			runtime.Gosched()
		}
	}
	<-done
}

func TestGroupMesh(t *testing.T) {
	g := NewGroup(4, 8)
	if g.Size() != 4 {
		t.Fatalf("Size = %d", g.Size())
	}
	if g.Send(1, 1, Msg{}) {
		t.Fatal("self-send must be rejected")
	}
	if !g.Send(0, 2, Msg{Op: OpForward, Seq: 7, Payload: "hello"}) {
		t.Fatal("send failed")
	}
	if !g.Send(1, 2, Msg{Op: OpControl, Seq: 8}) {
		t.Fatal("send failed")
	}
	if g.PendingTo(2) != 2 {
		t.Fatalf("PendingTo = %d, want 2", g.PendingTo(2))
	}
	msgs := g.Recv(2, nil, 0)
	if len(msgs) != 2 {
		t.Fatalf("Recv got %d msgs, want 2", len(msgs))
	}
	// Messages carry their origin.
	if msgs[0].From != 0 || msgs[0].Op != OpForward || msgs[0].Seq != 7 || msgs[0].Payload != "hello" {
		t.Fatalf("msg 0 = %+v", msgs[0])
	}
	if msgs[1].From != 1 || msgs[1].Op != OpControl {
		t.Fatalf("msg 1 = %+v", msgs[1])
	}
	if n := counter(g, "shard.0.xs_sent"); n != 1 {
		t.Fatalf("shard 0 sent = %d, want 1", n)
	}
	if n := counter(g, "shard.2.xs_received"); n != 2 {
		t.Fatalf("shard 2 received = %d, want 2", n)
	}
}

// counter reads one of g's mesh counters through the registry, as an
// operator does.
func counter(g *Group, name string) int64 {
	reg := telemetry.NewRegistry()
	g.RegisterTelemetry(reg, "shard")
	v, _ := reg.Snapshot().Get(name)
	return v
}

func TestGroupBackpressure(t *testing.T) {
	g := NewGroup(2, 2)
	for i := 0; i < 2; i++ {
		if !g.Send(0, 1, Msg{Seq: uint64(i)}) {
			t.Fatalf("send %d should fit", i)
		}
	}
	if g.Send(0, 1, Msg{Seq: 99}) {
		t.Fatal("send should fail when the edge ring is full")
	}
	if n := counter(g, "shard.0.xs_dropped"); n != 1 {
		t.Fatalf("dropped = %d, want 1", n)
	}
}

// TestGroupRecvMax verifies the bounded drain: a worker can cap how many
// cross-shard messages it absorbs per tick.
func TestGroupRecvMax(t *testing.T) {
	g := NewGroup(2, 16)
	for i := 0; i < 6; i++ {
		g.Send(0, 1, Msg{Seq: uint64(i)})
	}
	first := g.Recv(1, nil, 4)
	if len(first) != 4 {
		t.Fatalf("bounded Recv got %d, want 4", len(first))
	}
	rest := g.Recv(1, first[:0], 0)
	if len(rest) != 2 {
		t.Fatalf("drain got %d, want 2", len(rest))
	}
}

// TestGroupConcurrentMesh runs all n workers concurrently, each sending
// to every peer and draining its own inbound edges — the -race fence for
// the SPSC discipline under full mesh load.
func TestGroupConcurrentMesh(t *testing.T) {
	const n = 4
	const perEdge = 5000
	g := NewGroup(n, 128)
	var wg sync.WaitGroup
	recvCounts := make([]int, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sent := make([]int, n)
			remainingSends := perEdge * (n - 1)
			var inbox []Msg
			for recvCounts[w] < perEdge*(n-1) || remainingSends > 0 {
				progressed := false
				for to := 0; to < n; to++ {
					if to == w || sent[to] >= perEdge {
						continue
					}
					if g.Send(w, to, Msg{Seq: uint64(sent[to])}) {
						sent[to]++
						remainingSends--
						progressed = true
					}
				}
				inbox = g.Recv(w, inbox[:0], 0)
				recvCounts[w] += len(inbox)
				if !progressed && len(inbox) == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < n; w++ {
		if recvCounts[w] != perEdge*(n-1) {
			t.Fatalf("worker %d received %d, want %d", w, recvCounts[w], perEdge*(n-1))
		}
	}
}

func TestGroupTelemetry(t *testing.T) {
	g := NewGroup(2, 8)
	g.Send(0, 1, Msg{})
	reg := telemetry.NewRegistry()
	g.RegisterTelemetry(reg, "shard")
	snap := reg.Snapshot()
	want := map[string]int64{
		"shard.0.xs_sent":     1,
		"shard.1.xs_pending":  1,
		"shard.1.xs_received": 0,
	}
	for name, val := range want {
		got, ok := snap.Get(name)
		if !ok || got != val {
			t.Fatalf("%s = %d (present=%v), want %d", name, got, ok, val)
		}
	}
}
