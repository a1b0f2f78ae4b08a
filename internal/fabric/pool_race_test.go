package fabric

import (
	"sync"
	"testing"
)

// TestFrameBufRefsRaceStress pins the legal-use side of the audited
// Retain/Release contract (see Retain) under -race: Retain is only called
// while the caller itself holds a live reference. Under that discipline
// the count never flips 0→1, so no released buffer can be resurrected and
// the pool's recycle fence never fires, no matter how the retains,
// releases, reads, and pool recycling interleave across goroutines.
func TestFrameBufRefsRaceStress(t *testing.T) {
	p := NewFramePool()
	const (
		rounds  = 300
		fanout  = 8
		workers = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := p.Get(512)
				b.Bytes()[0] = byte(i)
				// Fan the buffer out to concurrent consumers. Each
				// Retain happens while the spawning goroutine still
				// holds its own reference — the audited invariant.
				var inner sync.WaitGroup
				for f := 0; f < fanout; f++ {
					b.Retain()
					inner.Add(1)
					go func() {
						defer inner.Done()
						_ = b.Bytes()[0] // read while referenced
						b.Release()
					}()
				}
				// The spawner drops its own reference immediately —
				// consumers keep the buffer alive; the last of them
				// recycles it while the next loop iteration is already
				// Get-ing from the same pool.
				b.Release()
				inner.Wait()
			}
		}(w)
	}
	wg.Wait()

	st := p.Stats()
	wantLives := int64(workers * rounds)
	if st.Pooled+st.Misses != wantLives {
		t.Fatalf("pool served %d buffers (pooled=%d misses=%d), want %d",
			st.Pooled+st.Misses, st.Pooled, st.Misses, wantLives)
	}
	if st.Recycled == 0 {
		t.Fatal("no buffer was ever recycled: the stress never exercised reuse")
	}
}

// TestSGABufHoldRaceStress: the application frees an SGA while a push on
// another goroutine holds it and lets it go; whichever drops the last
// reference recycles the buffer, once.
func TestSGABufHoldRaceStress(t *testing.T) {
	p := NewFramePool()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s := p.SGA(512)
				s.Segments[0].Buf[0] = byte(i)
				h := s.Reg.(*FrameBuf)
				h.Retain()
				done := make(chan struct{})
				go func() {
					_ = s.Segments[0].Buf[0] // the pump reads it
					h.Release()
					close(done)
				}()
				s.Free()
				<-done
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Outstanding != 0 || st.DoubleFrees != 0 {
		t.Fatalf("%d buffers out, %d double frees; want 0, 0", st.Outstanding, st.DoubleFrees)
	}
}

// TestFrameBufIllegalRetainPanics verifies the deterministic failure
// mode of the contract: Retain on a fully released buffer (refcount 0)
// must panic rather than resurrect storage the pool may already have
// handed to someone else.
func TestFrameBufIllegalRetainPanics(t *testing.T) {
	p := NewFramePool()
	b := p.Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final Release did not panic")
		}
	}()
	b.Retain()
}

// TestFrameBufReleaseUnderflowPanics: releasing more times than retained
// is a bug and must fail loudly.
func TestFrameBufReleaseUnderflowPanics(t *testing.T) {
	p := NewFramePool()
	b := p.Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}
