package fabric

import (
	"fmt"
	"strings"
	"testing"
)

// countingAcct is a test accountant with a byte cap.
type countingAcct struct {
	cap     int64
	held    int64
	charges int
	credits int
}

func (a *countingAcct) ChargeFrame(n int) bool {
	if a.cap > 0 && a.held+int64(n) > a.cap {
		return false
	}
	a.held += int64(n)
	a.charges++
	return true
}

func (a *countingAcct) CreditFrame(n int) {
	a.held -= int64(n)
	a.credits++
}

// TestFramePoolAccounting pins what one pool-backed SGA costs the pool's
// counters and its accountant, through both ways one is taken (SGA and
// FrameAlloc), for every size regime — none, a class, the largest class,
// oversized — with no accountant, one that takes every charge and one
// that refuses every charge; then the plain Get quota arithmetic.
func TestFramePoolAccounting(t *testing.T) {
	type taker struct {
		name string
		take func(p *FramePool, n int) (buf []byte, free func())
	}
	takers := []taker{
		{"SGA", func(p *FramePool, n int) ([]byte, func()) {
			s := p.SGA(n)
			c := s // a second copy, freed after the first
			return s.Segments[0].Buf, func() { s.Free(); c.Free() }
		}},
		{"FrameAlloc", func(p *FramePool, n int) ([]byte, func()) {
			buf, _, free, _ := p.FrameAlloc(n)
			return buf, func() { free(); free() }
		}},
	}
	accts := []struct {
		name string
		acct *countingAcct // nil: none
	}{{"none", nil}, {"permissive", &countingAcct{}}, {"refusing", &countingAcct{cap: 1}}}
	for _, tk := range takers {
		for _, n := range []int{0, 64, 1500, 16384, 16385, 1 << 20} {
			for _, a := range accts {
				t.Run(fmt.Sprintf("%s/%d/%s", tk.name, n, a.name), func(t *testing.T) {
					p := NewFramePool()
					var acct *countingAcct
					if a.acct != nil {
						acct = &countingAcct{cap: a.acct.cap}
						p.SetOwner("tenant-a", acct)
					}
					refused := acct != nil && acct.cap > 0 && n > 0
					pooled := n > 0 && !refused // a pool buffer is behind it
					charge, charges := 0, 0
					if pooled {
						charges = 1
						if charge = n; classFor(n) >= 0 {
							charge = frameClasses[classFor(n)] // class-rounded
						}
					}
					buf, free := tk.take(p, n)
					if len(buf) != n {
						t.Fatalf("%d bytes, want %d", len(buf), n)
					}
					want := FramePoolStats{}
					if pooled {
						want.Misses, want.Outstanding = 1, 1
					}
					if refused {
						want.QuotaDenied = 1
					}
					if st := p.Stats(); st != want {
						t.Fatalf("taken: stats %+v, want %+v", st, want)
					}
					if acct != nil && (acct.held != int64(charge) || acct.charges != charges || acct.credits != 0) {
						t.Fatalf("taken: %d bytes held, %d charges, %d credits; want %d, %d, 0",
							acct.held, acct.charges, acct.credits, charge, charges)
					}
					free() // and a second Free, through another copy
					want.Outstanding, want.DoubleFrees = 0, 1
					if pooled && n <= frameClasses[len(frameClasses)-1] {
						want.Recycled = 1
					}
					if st := p.Stats(); st != want {
						t.Fatalf("freed: stats %+v, want %+v", st, want)
					}
					if acct != nil && (acct.held != 0 || acct.charges != charges || acct.credits != charges) {
						t.Fatalf("freed: %d bytes held, %d charges, %d credits; want 0, %d, %d",
							acct.held, acct.charges, acct.credits, charges, charges)
					}
				})
			}
		}
	}

	p := NewFramePool()
	acct := &countingAcct{cap: 4096}
	p.SetOwner("tenant-a", acct)

	// 2048-byte class: two fit, the third is refused.
	b1 := p.Get(1500)
	b2 := p.Get(1500)
	if b1 == nil || b2 == nil {
		t.Fatal("in-quota Get returned nil")
	}
	if b3 := p.Get(1500); b3 != nil {
		t.Fatal("over-quota Get succeeded")
	}
	if p.Stats().QuotaDenied != 1 {
		t.Fatalf("QuotaDenied = %d, want 1", p.Stats().QuotaDenied)
	}
	// Charges are class-rounded: 1500 pins a 2048-byte class slot.
	if acct.held != 4096 {
		t.Fatalf("held = %d, want 4096 (class-rounded)", acct.held)
	}
	b1.Release()
	if acct.held != 2048 {
		t.Fatalf("held = %d after release, want 2048", acct.held)
	}
	// Freed quota is immediately allocatable again.
	if b := p.Get(1500); b == nil {
		t.Fatal("Get refused after quota freed")
	} else {
		b.Release()
	}
	b2.Release()
	if acct.held != 0 {
		t.Fatalf("held = %d after all releases, want 0", acct.held)
	}
}

func TestFramePoolAccountsOversized(t *testing.T) {
	p := NewFramePool()
	acct := &countingAcct{}
	p.SetOwner("tenant-a", acct)
	// Oversized buffers (beyond the largest class) are heap-backed and
	// never recycled, but they still pin tenant memory and must be
	// charged and credited like everything else.
	b := p.Get(1 << 20)
	if b == nil {
		t.Fatal("oversized Get refused without a cap")
	}
	if acct.held != 1<<20 {
		t.Fatalf("held = %d, want %d", acct.held, 1<<20)
	}
	b.Release()
	if acct.held != 0 || acct.credits != 1 {
		t.Fatalf("held=%d credits=%d after oversized release", acct.held, acct.credits)
	}
}

func TestFramePoolUnownedNeverDenies(t *testing.T) {
	p := NewFramePool()
	for i := 0; i < 64; i++ {
		b := p.Get(2048)
		if b == nil {
			t.Fatal("accountant-less pool returned nil")
		}
		b.Release()
	}
	if p.Stats().QuotaDenied != 0 {
		t.Fatal("accountant-less pool counted denials")
	}
}

// mustPanicWith runs f and asserts it panics with a message containing
// every needle — the owner-tag fence: violations name the offender.
func mustPanicWith(t *testing.T, f func(), needles ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		for _, n := range needles {
			if !strings.Contains(msg, n) {
				t.Fatalf("panic %q does not name %q", msg, n)
			}
		}
	}()
	f()
}

func TestDoubleReleaseNamesOwner(t *testing.T) {
	p := NewFramePool()
	p.SetOwner("hostile", nil)
	// Oversized buffer: its final release does not recycle into a
	// sync.Pool, so the double release deterministically underflows the
	// same FrameBuf rather than racing a recycled one.
	b := p.Get(1 << 20)
	b.Release()
	mustPanicWith(t, b.Release, "double release", "hostile")
}

func TestIllegalRetainNamesOwner(t *testing.T) {
	p := NewFramePool()
	p.SetOwner("hostile", nil)
	b := p.Get(1 << 20)
	b.Release()
	mustPanicWith(t, b.Retain, "Retain on released", "hostile")
}

func TestDoubleReleaseUnownedStillPanics(t *testing.T) {
	p := NewFramePool()
	b := p.Get(1 << 20)
	b.Release()
	mustPanicWith(t, b.Release, "double release")
}
