package simclock

import (
	"testing"
	"testing/quick"
)

func TestCopyCostCalibration(t *testing.T) {
	m := Datacenter2019()
	// The paper: copying a 4k page takes ~1µs on a 4GHz CPU.
	got := m.CopyCost(4096)
	if got < 900 || got > 1100 {
		t.Fatalf("CopyCost(4096) = %v, want ~1µs (paper §3.2)", got)
	}
}

func TestAppRequestCalibration(t *testing.T) {
	m := Datacenter2019()
	// The paper: Redis spends about 2µs per read request.
	if m.AppRequestNS != 2000 {
		t.Fatalf("AppRequestNS = %v, want 2000ns (paper §3.2)", m.AppRequestNS)
	}
	// Corollary in §3.2: a 4KB copy adds ~50% overhead to a Redis request.
	overhead := float64(m.CopyCost(4096)) / float64(m.AppRequestNS)
	if overhead < 0.4 || overhead > 0.6 {
		t.Fatalf("4KB copy overhead on app request = %.2f, want ~0.5", overhead)
	}
}

func TestLatString(t *testing.T) {
	cases := []struct {
		in   Lat
		want string
	}{
		{500, "500ns"},
		{1500, "1.50µs"},
		{2_000_000, "2.00ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Lat(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestLatAddAssociative(t *testing.T) {
	f := func(a, b, c int32) bool {
		x, y, z := Lat(a), Lat(b), Lat(c)
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyCostMonotonic(t *testing.T) {
	m := Datacenter2019()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.CopyCost(x) <= m.CopyCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDMAcheaperThanCopy(t *testing.T) {
	m := Datacenter2019()
	for _, n := range []int{64, 512, 4096, 65536} {
		if m.DMACost(n) >= m.CopyCost(n) {
			t.Errorf("DMA cost %v >= copy cost %v for %d bytes; DMA should be cheaper",
				m.DMACost(n), m.CopyCost(n), n)
		}
	}
}

func TestOffloadCostsScale(t *testing.T) {
	m := Datacenter2019()
	if m.OffloadedFilterCost() <= m.FilterNS {
		t.Errorf("offloaded filter %v should cost more per element than CPU filter %v",
			m.OffloadedFilterCost(), m.FilterNS)
	}
}

func TestCountersReset(t *testing.T) {
	var c Counters
	c.AddSyscall()
	c.AddCopy(100)
	c.Wakeups = 2
	c.WastedWakeups = 1
	c.Reset()
	if c != (Counters{}) {
		t.Fatalf("Reset left counters non-zero: %+v", c)
	}
}

func TestCountersAccumulate(t *testing.T) {
	var c Counters
	c.AddCopy(10)
	c.AddCopy(20)
	if c.BytesCopied != 30 {
		t.Fatalf("BytesCopied = %d, want 30", c.BytesCopied)
	}
	c.AddSyscall()
	c.AddSyscall()
	c.AddSyscall()
	if c.SyscallCrossings != 3 {
		t.Fatalf("SyscallCrossings = %d, want 3", c.SyscallCrossings)
	}
}
