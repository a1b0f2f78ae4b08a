package queue

import (
	"errors"
	"sync/atomic"
	"testing"

	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

func collect(t *testing.T) (DoneFunc, *Completion) {
	t.Helper()
	c := &Completion{Err: errors.New("not completed")}
	return func(comp Completion) { *c = comp }, c
}

func TestMemQueuePushPop(t *testing.T) {
	q := NewMemQueue(0)
	pushDone, pushC := collect(t)
	q.Push(sga.New([]byte("elem")), 42, pushDone)
	if pushC.Err != nil {
		t.Fatal(pushC.Err)
	}
	popDone, popC := collect(t)
	q.Pop(popDone)
	if popC.Err != nil {
		t.Fatal(popC.Err)
	}
	if string(popC.SGA.Bytes()) != "elem" {
		t.Fatalf("popped %q", popC.SGA.Bytes())
	}
	if popC.Cost != 42 {
		t.Fatalf("cost = %v, want 42", popC.Cost)
	}
}

func TestMemQueueFIFO(t *testing.T) {
	q := NewMemQueue(0)
	for i := 0; i < 10; i++ {
		done, _ := collect(t)
		q.Push(sga.New([]byte{byte(i)}), 0, done)
	}
	for i := 0; i < 10; i++ {
		done, c := collect(t)
		q.Pop(done)
		if c.SGA.Bytes()[0] != byte(i) {
			t.Fatalf("pop %d returned %d", i, c.SGA.Bytes()[0])
		}
	}
}

func TestMemQueuePopBeforePush(t *testing.T) {
	q := NewMemQueue(0)
	done, c := collect(t)
	q.Pop(done)
	if c.Err == nil {
		t.Fatal("pop completed before any push")
	}
	pd, _ := collect(t)
	q.Push(sga.New([]byte("late")), 7, pd)
	if c.Err != nil {
		t.Fatalf("waiter not completed: %v", c.Err)
	}
	if string(c.SGA.Bytes()) != "late" {
		t.Fatalf("got %q", c.SGA.Bytes())
	}
}

func TestMemQueueZeroCopy(t *testing.T) {
	// The popped SGA must alias the pushed buffer: no payload copies.
	q := NewMemQueue(0)
	buf := []byte("shared")
	pd, _ := collect(t)
	q.Push(sga.New(buf), 0, pd)
	done, c := collect(t)
	q.Pop(done)
	c.SGA.Segments[0].Buf[0] = 'X'
	if buf[0] != 'X' {
		t.Fatal("pop returned a copy, not the pushed buffer")
	}
}

func TestMemQueueCapacityBackpressure(t *testing.T) {
	q := NewMemQueue(2)
	var completed atomic.Int32
	for i := 0; i < 3; i++ {
		q.Push(sga.New([]byte{byte(i)}), 0, func(Completion) { completed.Add(1) })
	}
	if completed.Load() != 2 {
		t.Fatalf("completions = %d, want 2 (third push stalls)", completed.Load())
	}
	done, c := collect(t)
	q.Pop(done)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if completed.Load() != 3 {
		t.Fatal("stalled push not admitted after pop freed space")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestMemQueueClose(t *testing.T) {
	q := NewMemQueue(0)
	done, c := collect(t)
	q.Pop(done)
	q.Close()
	if !errors.Is(c.Err, ErrClosed) {
		t.Fatalf("waiter err = %v", c.Err)
	}
	pd, pc := collect(t)
	q.Push(sga.New([]byte("x")), 0, pd)
	if !errors.Is(pc.Err, ErrClosed) {
		t.Fatalf("push after close err = %v", pc.Err)
	}
}

// --- composition ---

func TestFilterQueuePop(t *testing.T) {
	model := simclock.Datacenter2019()
	inner := NewMemQueue(0)
	f := NewFilterQueue(inner, func(s sga.SGA) bool { return s.Bytes()[0] == 'K' }, &model)
	for _, p := range []string{"drop1", "Keep1", "drop2", "Keep2"} {
		done, _ := collect(t)
		inner.Push(sga.New([]byte(p)), 0, done)
	}
	for _, want := range []string{"Keep1", "Keep2"} {
		done, c := collect(t)
		f.Pop(done)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if string(c.SGA.Bytes()) != want {
			t.Fatalf("got %q, want %q", c.SGA.Bytes(), want)
		}
		if c.Cost < model.FilterNS {
			t.Fatal("filter cost not charged")
		}
	}
}

func TestFilterQueuePush(t *testing.T) {
	model := simclock.Datacenter2019()
	inner := NewMemQueue(0)
	f := NewFilterQueue(inner, func(s sga.SGA) bool { return len(s.Bytes()) > 2 }, &model)
	done, c := collect(t)
	f.Push(sga.New([]byte("ok")), 0, done)
	if !errors.Is(c.Err, ErrFiltered) {
		t.Fatalf("err = %v, want ErrFiltered", c.Err)
	}
	if inner.Len() != 0 {
		t.Fatal("rejected element reached inner queue")
	}
	done2, c2 := collect(t)
	f.Push(sga.New([]byte("long enough")), 0, done2)
	if c2.Err != nil {
		t.Fatal(c2.Err)
	}
	if inner.Len() != 1 {
		t.Fatal("accepted element missing from inner queue")
	}
}

func TestMapQueueBothDirections(t *testing.T) {
	model := simclock.Datacenter2019()
	upper := func(s sga.SGA) sga.SGA {
		b := s.Bytes()
		for i := range b {
			if b[i] >= 'a' && b[i] <= 'z' {
				b[i] -= 32
			}
		}
		return sga.New(b)
	}
	inner := NewMemQueue(0)
	m := NewMapQueue(inner, upper, &model)

	done, _ := collect(t)
	m.Push(sga.New([]byte("push")), 0, done)
	popDone, popC := collect(t)
	inner.Pop(popDone)
	if string(popC.SGA.Bytes()) != "PUSH" {
		t.Fatalf("push-side map: %q", popC.SGA.Bytes())
	}

	pd, _ := collect(t)
	inner.Push(sga.New([]byte("pop")), 0, pd)
	md, mc := collect(t)
	m.Pop(md)
	if string(mc.SGA.Bytes()) != "POP" {
		t.Fatalf("pop-side map: %q", mc.SGA.Bytes())
	}
	if mc.Cost < model.MapNS {
		t.Fatal("map cost not charged")
	}
}

func TestSortQueuePriorityOrder(t *testing.T) {
	inner := NewMemQueue(0)
	// Priority: lower first byte pops first.
	s := NewSortQueue(inner, func(a, b sga.SGA) bool { return a.Bytes()[0] < b.Bytes()[0] }, 8)
	for _, p := range []byte{5, 1, 9, 3, 7} {
		done, _ := collect(t)
		inner.Push(sga.New([]byte{p}), 0, done)
	}
	s.Pump() // prefetch into the heap
	var got []byte
	for i := 0; i < 5; i++ {
		done, c := collect(t)
		s.Pop(done)
		s.Pump()
		if c.Err != nil {
			t.Fatalf("pop %d: %v", i, c.Err)
		}
		got = append(got, c.SGA.Bytes()[0])
	}
	want := []byte{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSortQueueWaiterServedOnArrival(t *testing.T) {
	inner := NewMemQueue(0)
	s := NewSortQueue(inner, func(a, b sga.SGA) bool { return a.Bytes()[0] < b.Bytes()[0] }, 4)
	done, c := collect(t)
	s.Pop(done) // waits: nothing buffered
	s.Pump()
	pd, _ := collect(t)
	inner.Push(sga.New([]byte{42}), 0, pd)
	s.Pump()
	if c.Err != nil {
		t.Fatalf("waiter not served: %v", c.Err)
	}
	if c.SGA.Bytes()[0] != 42 {
		t.Fatalf("got %d", c.SGA.Bytes()[0])
	}
}

func TestMergeQueuePopFromEither(t *testing.T) {
	a, b := NewMemQueue(0), NewMemQueue(0)
	m := NewMergeQueue(a, b, 4)
	pd, _ := collect(t)
	a.Push(sga.New([]byte("from-a")), 0, pd)
	pd2, _ := collect(t)
	b.Push(sga.New([]byte("from-b")), 0, pd2)
	m.Pump()
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		done, c := collect(t)
		m.Pop(done)
		m.Pump()
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		got[string(c.SGA.Bytes())] = true
	}
	if !got["from-a"] || !got["from-b"] {
		t.Fatalf("merged pops = %v", got)
	}
}

func TestMergeQueuePushToBoth(t *testing.T) {
	a, b := NewMemQueue(0), NewMemQueue(0)
	m := NewMergeQueue(a, b, 4)
	done, c := collect(t)
	m.Push(sga.New([]byte("dup")), 0, done)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("lens = %d,%d, want 1,1", a.Len(), b.Len())
	}
}

func TestComposedPipeline(t *testing.T) {
	// filter -> map over a memory queue: the §4.3 pipeline shape.
	model := simclock.Datacenter2019()
	inner := NewMemQueue(0)
	f := NewFilterQueue(inner, func(s sga.SGA) bool { return s.Bytes()[0] != '#' }, &model)
	m := NewMapQueue(f, func(s sga.SGA) sga.SGA {
		return sga.New(append([]byte("out:"), s.Bytes()...))
	}, &model)
	for _, p := range []string{"#comment", "data1", "#skip", "data2"} {
		done, _ := collect(t)
		inner.Push(sga.New([]byte(p)), 0, done)
	}
	for _, want := range []string{"out:data1", "out:data2"} {
		done, c := collect(t)
		m.Pop(done)
		if c.Err != nil || string(c.SGA.Bytes()) != want {
			t.Fatalf("got %q err %v, want %q", c.SGA.Bytes(), c.Err, want)
		}
	}
}
