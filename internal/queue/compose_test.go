package queue

import (
	"errors"
	"testing"

	"demikernel/internal/fabric"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

func TestFilterQueueCloseAndPump(t *testing.T) {
	model := simclock.Datacenter2019()
	inner := NewMemQueue(0)
	f := NewFilterQueue(inner, func(sga.SGA) bool { return true }, &model)
	if f.Pump() != 0 {
		t.Fatal("filter over mem queue should have no internal work")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	done, c := collect(t)
	f.Push(sga.New([]byte("x")), 0, done)
	if !errors.Is(c.Err, ErrClosed) {
		t.Fatalf("push after close err = %v", c.Err)
	}
}

func TestFilterDiscardedElementsFreed(t *testing.T) {
	model := simclock.Datacenter2019()
	inner := NewMemQueue(0)
	f := NewFilterQueue(inner, func(s sga.SGA) bool { return s.Bytes()[0] == 'K' }, &model)
	freed := 0
	pd, _ := collect(t)
	inner.Push(sga.New([]byte("drop")).WithFree(func() { freed++ }), 0, pd)
	pd2, _ := collect(t)
	inner.Push(sga.New([]byte("Keep")), 0, pd2)
	done, c := collect(t)
	f.Pop(done)
	if c.Err != nil || string(c.SGA.Bytes()) != "Keep" {
		t.Fatalf("pop: %v %q", c.Err, c.SGA.Bytes())
	}
	if freed != 1 {
		t.Fatalf("discarded element not freed: %d", freed)
	}
}

func TestMapQueueCloseAndPump(t *testing.T) {
	model := simclock.Datacenter2019()
	inner := NewMemQueue(0)
	m := NewMapQueue(inner, func(s sga.SGA) sga.SGA { return s }, &model)
	if m.Pump() != 0 {
		t.Fatal("map over mem queue should have no internal work")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSortQueuePushPassthrough(t *testing.T) {
	inner := NewMemQueue(0)
	s := NewSortQueue(inner, func(a, b sga.SGA) bool { return true }, 4)
	done, c := collect(t)
	s.Push(sga.New([]byte("via sorted")), 0, done)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if inner.Len() != 1 {
		t.Fatal("push did not reach the inner queue")
	}
}

func TestSortQueueBufferedAndClose(t *testing.T) {
	inner := NewMemQueue(0)
	s := NewSortQueue(inner, func(a, b sga.SGA) bool { return a.Bytes()[0] < b.Bytes()[0] }, 4)
	pd, _ := collect(t)
	inner.Push(sga.New([]byte{9}), 0, pd)
	s.Pump()
	if s.h.Len() != 1 {
		t.Fatalf("buffered = %d", s.h.Len())
	}
	// A waiter blocked at close must fail with ErrClosed.
	done1, c1 := collect(t)
	s.Pop(done1) // consumes the buffered element
	done2, c2 := collect(t)
	s.Pop(done2) // waits
	if c1.Err != nil {
		t.Fatal(c1.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(c2.Err, ErrClosed) {
		t.Fatalf("waiter err = %v", c2.Err)
	}
	done3, c3 := collect(t)
	s.Pop(done3)
	if !errors.Is(c3.Err, ErrClosed) {
		t.Fatalf("pop after close err = %v", c3.Err)
	}
}

func TestSortQueuePumpAfterClose(t *testing.T) {
	inner := NewMemQueue(0)
	s := NewSortQueue(inner, func(a, b sga.SGA) bool { return true }, 4)
	s.Close()
	if got := s.Pump(); got != 0 {
		t.Fatalf("Pump after close = %d", got)
	}
}

func TestMergeQueueClose(t *testing.T) {
	a, b := NewMemQueue(0), NewMemQueue(0)
	m := NewMergeQueue(a, b, 2)
	done, c := collect(t)
	m.Pop(done) // waits
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(c.Err, ErrClosed) {
		t.Fatalf("waiter err = %v", c.Err)
	}
	done2, c2 := collect(t)
	m.Pop(done2)
	if !errors.Is(c2.Err, ErrClosed) {
		t.Fatalf("pop after close err = %v", c2.Err)
	}
	// Inners closed too: pushes fail.
	pd, pc := collect(t)
	a.Push(sga.New([]byte("x")), 0, pd)
	if !errors.Is(pc.Err, ErrClosed) {
		t.Fatalf("inner push err = %v", pc.Err)
	}
	if got := m.Pump(); got != 0 {
		t.Fatalf("Pump after close = %d", got)
	}
}

func TestMergeQueuePushErrorPropagates(t *testing.T) {
	a, b := NewMemQueue(0), NewMemQueue(0)
	b.Close()
	m := NewMergeQueue(a, b, 2)
	done, c := collect(t)
	m.Push(sga.New([]byte("x")), 0, done)
	if !errors.Is(c.Err, ErrClosed) {
		t.Fatalf("merged push err = %v (one inner closed)", c.Err)
	}
}

// keepOpen is an inner queue whose Close does nothing, so that a pop a
// composite parked on it can still complete after the composite closed.
type keepOpen struct{ *MemQueue }

func (keepOpen) Close() error { return nil }

// TestCloseFreesWhatNobodyPopped: a queue that closes with elements nobody
// popped frees them, and a composite frees an inner element that lands
// after its Close. Three pool SGAs are pushed and pumped into the queue,
// which closes; a composite then gets a fourth from an inner pop it
// parked before the close. Every buffer is back in the pool, each freed
// once.
func TestCloseFreesWhatNobodyPopped(t *testing.T) {
	byFirstByte := func(a, b sga.SGA) bool { return a.Bytes()[0] < b.Bytes()[0] }
	for _, row := range []struct {
		name string
		// open returns the queue, the queue its elements are pushed into,
		// and the inner queue that answers a pop after the close (nil: none).
		open func() (q, in IoQueue, late *MemQueue)
	}{
		{"mem", func() (IoQueue, IoQueue, *MemQueue) {
			q := NewMemQueue(0)
			return q, q, nil
		}},
		{"merge", func() (IoQueue, IoQueue, *MemQueue) {
			a, b := NewMemQueue(0), NewMemQueue(0)
			return NewMergeQueue(a, keepOpen{b}, 4), a, b
		}},
		{"sort", func() (IoQueue, IoQueue, *MemQueue) {
			inner := NewMemQueue(0)
			q := NewSortQueue(keepOpen{inner}, byFirstByte, 8)
			return q, q, inner
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := fabric.NewFramePool()
			push := func(q IoQueue, b byte) {
				s := p.SGA(64)
				s.Segments[0].Buf[0] = b
				done, c := collect(t)
				q.Push(s, 0, done)
				if c.Err != nil {
					t.Fatal(c.Err)
				}
			}
			q, in, late := row.open()
			for b := byte(3); b > 0; b-- {
				push(in, b)
			}
			q.Pump()
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			if late != nil {
				push(late, 4)
			}
			if out := p.Outstanding(); out != 0 {
				t.Fatalf("%d pool buffers outstanding after Close, want 0", out)
			}
			if df := p.Stats().DoubleFrees; df != 0 {
				t.Fatalf("%d double frees", df)
			}
		})
	}
}
