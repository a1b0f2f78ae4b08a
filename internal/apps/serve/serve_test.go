package serve

import (
	"errors"
	"slices"
	"testing"

	demi "demikernel"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

const port = 9

// hold is what a push of the test protocol holds: the request it echoes
// and its place in push order.
type hold struct {
	seq int
	req sga.SGA
}

// rig is a loop on one catnip node serving an echo that arms two pops per
// connection and records the order its holds come back in; the client is
// a second node, driven by hand.
type rig struct {
	t        *testing.T
	c        *demi.Cluster
	srv, cli *demi.Node
	loop     *Loop[struct{}, hold]
	pushed   int
	released []int
}

func newRig(t *testing.T) *rig {
	t.Helper()
	c := demi.NewCluster(71)
	r := &rig{t: t, c: c, srv: c.MustSpawn(demi.Catnip, demi.WithHost(1)), cli: c.MustSpawn(demi.Catnip, demi.WithHost(2))}
	r.loop = New(r.srv.LibOS, App[struct{}, hold]{
		Accepted: func(c *Conn[struct{}, hold]) {
			r.loop.Pop(c)
			r.loop.Pop(c)
		},
		Popped: func(c *Conn[struct{}, hold], req sga.SGA, cost simclock.Lat) int {
			r.loop.Push(c, req, cost, hold{r.pushed, req})
			r.pushed++
			r.loop.Pop(c)
			return 1
		},
		Release: func(h hold) {
			r.released = append(r.released, h.seq)
			h.req.Free()
		},
	})
	if err := r.loop.Listen(port); err != nil {
		t.Fatal(err)
	}
	return r
}

// dial connects the client, polling the server for the handshake only.
func (r *rig) dial() demi.QD {
	r.t.Helper()
	qd, err := r.cli.Socket()
	if err != nil {
		r.t.Fatal(err)
	}
	stop := r.srv.Background()
	err = r.cli.Connect(qd, r.c.AddrOf(r.srv, port))
	stop()
	if err != nil {
		r.t.Fatal(err)
	}
	return qd
}

// until polls both nodes, and steps the loop if step is set, until cond
// holds.
func (r *rig) until(what string, step bool, cond func() bool) {
	r.t.Helper()
	for i := 0; !cond(); i++ {
		if i > 100_000 {
			r.t.Fatalf("no progress: %s", what)
		}
		r.cli.Poll()
		r.srv.Poll()
		if step {
			r.loop.Step()
		}
	}
}

// only returns the loop's one connection.
func (r *rig) only() *Conn[struct{}, hold] {
	r.t.Helper()
	for c := range r.loop.All() {
		return c
	}
	r.t.Fatal("no connection")
	return nil
}

func (r *rig) cqOccupancy() int64 { return r.loop.Ring().CountersSnapshot().CQOccupancy }

func TestTagRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 7, 1 << 20, 1<<31 - 1, 3<<32 | 5} {
		for _, push := range []bool{false, true} {
			if gotID, gotPush := untag(tag(id, push)); gotID != id || gotPush != push {
				t.Errorf("untag(tag(%#x, %v)) = %#x, %v", id, push, gotID, gotPush)
			}
		}
	}
	// A batch's generation sits above the request's tag and survives it.
	const gen = uint64(9) << 32
	if t0 := gen | tag(3, true); t0&^uint64(0xffffffff) != gen || t0&1 != 1 {
		t.Errorf("gen|tag(3, push) = %#x loses the generation or the kind", t0)
	}
}

// TestDroppedConnCQEFreed: a request whose pop completed onto the ring
// after its connection was dropped is freed by the step that harvests it.
func TestDroppedConnCQEFreed(t *testing.T) {
	r := newRig(t)
	qd := r.dial()
	r.until("the accept", true, func() bool { return r.loop.Conns() == 1 })
	if _, err := r.cli.Push(qd, demi.NewSGA(make([]byte, 64))); err != nil {
		t.Fatal(err)
	}
	r.until("the request's pop", false, func() bool { return r.cqOccupancy() > 0 })
	r.loop.Drop(r.only())
	pool := r.srv.Catnip.Pool()
	before := pool.Outstanding()
	r.loop.Step()
	if after := pool.Outstanding(); after != before-1 || r.cqOccupancy() != 0 {
		t.Fatalf("the step harvesting the dropped connection's request left %d buffers out (%d before) and %d CQEs; want one buffer back, none left",
			after, before, r.cqOccupancy())
	}
}

// TestHoldsReleasedInPushOrder: each push CQE releases the oldest hold of
// its connection, and a drop releases every hold still in flight, in push
// order, once each.
func TestHoldsReleasedInPushOrder(t *testing.T) {
	r := newRig(t)
	qd := r.dial()
	r.until("the accept", true, func() bool { return r.loop.Conns() == 1 })
	roundTrips := func(n int) {
		t.Helper()
		pops := make([]queue.QToken, 0, n)
		for i := 0; i < n; i++ {
			pop, err := r.cli.Pop(qd)
			if err != nil {
				t.Fatal(err)
			}
			pops = append(pops, pop)
			if _, err := r.cli.Push(qd, demi.NewSGA(make([]byte, 64))); err != nil {
				t.Fatal(err)
			}
		}
		for _, pop := range pops {
			var c queue.Completion
			r.until("an echo", true, func() (ok bool) {
				c, ok, _ = r.cli.TryWait(pop)
				return ok
			})
			c.SGA.Free()
		}
	}
	roundTrips(4)
	r.until("the echoes' push CQEs", true, func() bool { return r.only().Held() == 0 })
	want := []int{0, 1, 2, 3}
	if !slices.Equal(r.released, want) {
		t.Fatalf("holds released %v by their push CQEs, want %v", r.released, want)
	}

	// Two more requests: both echoes are submitted by one step, and the
	// connection is dropped before a step harvests their completions.
	for i := 0; i < 2; i++ {
		if _, err := r.cli.Push(qd, demi.NewSGA(make([]byte, 64))); err != nil {
			t.Fatal(err)
		}
	}
	r.until("both requests' pops", false, func() bool { return r.cqOccupancy() == 2 })
	r.loop.Step()
	c := r.only()
	if c.Held() != 2 {
		t.Fatalf("%d holds in flight after the step that echoed two requests, want 2", c.Held())
	}
	r.loop.Drop(c)
	r.loop.Drop(c) // twice: nothing more
	r.loop.Step()  // harvests the echoes' CQEs, for a connection gone
	want = append(want, 4, 5)
	if !slices.Equal(r.released, want) || c.Held() != 0 || r.loop.Conns() != 0 {
		t.Fatalf("after the drop: released %v, %d held, %d connections; want %v, 0, 0", r.released, c.Held(), r.loop.Conns(), want)
	}
}

// TestOneSubmitPerStep: whatever a step stages — pops for every connection
// it accepts, echoes and re-armed pops for every request it harvests —
// goes to the libOS as one SubmitBatch, and an idle step submits nothing.
func TestOneSubmitPerStep(t *testing.T) {
	r := newRig(t)
	submits := func() (calls, ops int64) {
		cnt := r.loop.Ring().CountersSnapshot()
		for _, n := range cnt.SubmitBatch {
			calls += n
		}
		return calls, cnt.Submitted
	}
	qds := []demi.QD{r.dial(), r.dial(), r.dial()}
	for i := 0; i < 4; i++ { // the handshakes' last ACKs
		r.cli.Poll()
		r.srv.Poll()
	}
	r.loop.Step()
	if calls, ops := submits(); r.loop.Conns() != 3 || calls != 1 || ops != 6 {
		t.Fatalf("the step accepting %d connections made %d submit calls of %d ops; want 3 connections, 1 call, 6 ops", r.loop.Conns(), calls, ops)
	}
	r.loop.Step()
	if calls, _ := submits(); calls != 1 {
		t.Fatalf("an idle step submitted (%d calls in all)", calls)
	}
	for _, qd := range qds {
		if _, err := r.cli.Push(qd, demi.NewSGA(make([]byte, 64))); err != nil {
			t.Fatal(err)
		}
	}
	r.until("three requests' pops", false, func() bool { return r.cqOccupancy() == 3 })
	if n := r.loop.Step(); n != 3 {
		t.Fatalf("the step served %d requests, want 3", n)
	}
	if calls, ops := submits(); calls != 2 || ops != 12 {
		t.Fatalf("after the step echoing 3 requests: %d submit calls of %d ops in all; want 2 and 12", calls, ops)
	}
}

// TestStopClosesConnsAndListener: the stop Start returns ends the loop's
// goroutine, closes its connections — the client sees its pop fail — and
// its listener, so the port can be served again.
func TestStopClosesConnsAndListener(t *testing.T) {
	r := newRig(t)
	stop := r.loop.Start()
	qd, err := r.cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Connect(qd, r.c.AddrOf(r.srv, port)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cli.Push(qd, demi.NewSGA([]byte("ping"))); err != nil {
		t.Fatal(err)
	}
	echo, err := r.cli.BlockingPop(qd)
	if err != nil || echo.Err != nil {
		t.Fatalf("echo: %v %v", err, echo.Err)
	}
	echo.SGA.Free()
	stop()
	if n := r.loop.Conns(); n != 0 || r.cqOccupancy() != 0 {
		t.Fatalf("after stop: %d connections, %d CQEs on the ring; want none", n, r.cqOccupancy())
	}
	if c, err := r.cli.BlockingPop(qd); err != nil || !errors.Is(c.Err, queue.ErrClosed) {
		t.Fatalf("the client's pop after stop completed with %v %v, want ErrClosed", err, c.Err)
	}
	again := New(r.srv.LibOS, App[struct{}, hold]{})
	if err := again.Listen(port); err != nil {
		t.Fatalf("the port could not be served again: %v", err)
	}
	again.Close()
}
