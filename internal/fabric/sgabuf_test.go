package fabric

import (
	"fmt"
	"testing"
)

// TestSGABufFreeProtection: an SGA over the pool holds one pool buffer
// until its last reference is gone — the application's Free, or the end of
// a push that held it — and Outstanding counts it exactly, an oversized
// buffer included.
func TestSGABufFreeProtection(t *testing.T) {
	p := NewFramePool()
	for _, n := range []int{100, 1 << 20} {
		s := p.SGA(n)
		if s.Len() != n || p.Outstanding() != 1 {
			t.Fatalf("SGA(%d): %d bytes, %d buffers out; want %d, 1", n, s.Len(), p.Outstanding(), n)
		}
		h := s.Reg.(*FrameBuf)
		h.Retain() // a push queues it
		s.Free()
		if p.Outstanding() != 1 {
			t.Fatalf("SGA(%d) freed while held: recycled under the push", n)
		}
		h.Release()
		if p.Outstanding() != 0 {
			t.Fatalf("SGA(%d): %d buffers out after the push ended, want 0", n, p.Outstanding())
		}
	}
}

// TestSGABufDoubleFreeThroughCopy: a second Free through another copy of
// one SGA is counted and ignored, with a push holding it or not; the next
// two SGAs get two buffers.
func TestSGABufDoubleFreeThroughCopy(t *testing.T) {
	p := NewFramePool()
	for _, held := range []bool{false, true} {
		s := p.SGA(64)
		c := s
		if held {
			s.Reg.(*FrameBuf).Retain()
		}
		s.Free()
		c.Free()
		if want := map[bool]int64{false: 0, true: 1}[held]; p.Outstanding() != want {
			t.Fatalf("held %v: %d buffers out after two frees, want %d", held, p.Outstanding(), want)
		}
		if held {
			s.Reg.(*FrameBuf).Release()
		}
	}
	if st := p.Stats(); st.DoubleFrees != 2 || st.Outstanding != 0 {
		t.Fatalf("%d double frees, %d buffers out; want 2, 0", st.DoubleFrees, st.Outstanding)
	}
	x, y := p.SGA(64), p.SGA(64)
	if x.Reg == y.Reg || &x.Segments[0].Buf[0] == &y.Segments[0].Buf[0] {
		t.Fatal("two SGAs share one buffer after a double free")
	}
}

// TestSGABufOverQuotaIsHeap: past the accountant's cap the SGA is heap
// bytes in a bare pool buffer, uncounted, and frees like any other.
func TestSGABufOverQuotaIsHeap(t *testing.T) {
	p := NewFramePool()
	acct := &countingAcct{cap: 512}
	p.SetOwner("tenant-a", acct)
	s := p.SGA(1000)
	if _, ok := s.Reg.(*FrameBuf); !ok || s.Len() != 1000 || p.Outstanding() != 0 || p.Stats().QuotaDenied != 1 {
		t.Fatalf("over quota: pool buffer %v, %d bytes, %d buffers out, %d denials", ok, s.Len(), p.Outstanding(), p.Stats().QuotaDenied)
	}
	s.Free()
	if acct.held != 0 || p.Outstanding() != 0 {
		t.Fatalf("after Free: %d bytes charged, %d buffers out", acct.held, p.Outstanding())
	}
}

// BenchmarkFramePool_SGA is one pool SGA's life, AllocSGA to Free, at a
// small message and at the largest class: one pooled object each way,
// and no allocation.
func BenchmarkFramePool_SGA(b *testing.B) {
	for _, n := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			p := NewFramePool()
			cycle := func() {
				s := p.SGA(n)
				s.Segments[0].Buf[0] = 1
				s.Free()
			}
			if a := testing.AllocsPerRun(100, cycle); a != 0 {
				b.Fatalf("%v allocs per SGA", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
