package main

import (
	"testing"
	"time"
)

// TestHostStallIsAGapWithoutPolls: a gap between two clock readings
// counts as a host stall only when the driver made next to no polls in
// it; a wait the program caused shows as many polls and must not excuse
// a retransmit.
func TestHostStallIsAGapWithoutPolls(t *testing.T) {
	p := &pass{t0: time.Now()}
	p.clock()
	p.last -= int64(30 * time.Millisecond) // the previous reading was 30 ms ago
	p.polls += 2
	p.clock()
	if p.stall < int64(30*time.Millisecond) {
		t.Fatalf("a 30 ms gap with 2 polls in it read as a stall of %v", time.Duration(p.stall))
	}

	p = &pass{t0: time.Now()}
	p.clock()
	p.last -= int64(30 * time.Millisecond)
	p.polls += 8192 // what the driver spins through between two timeout checks
	p.clock()
	if p.stall >= int64(rtoFloor) {
		t.Fatalf("a 30 ms gap filled with polls read as a host stall of %v", time.Duration(p.stall))
	}
}

// TestSummarizeGatesOnFastWindowsAndReportsTheWhole: ten slices, the
// first window fast, the second at 60 % of it.
func TestSummarizeGatesOnFastWindowsAndReportsTheWhole(t *testing.T) {
	r := passResult{sliceNS: sliceNS}
	for i := 0; i < 2*windowSlices; i++ {
		w := timeSlice{ops: 100, bytes: 1000, samples: []uint32{5000}}
		if i >= windowSlices {
			w = timeSlice{ops: 60, bytes: 600, samples: []uint32{9000, 9000}}
		}
		r.slices = append(r.slices, w)
	}
	s := summarize(r)
	winSecs := float64(sliceNS) / 1e9 * windowSlices
	if s.fast != 1 || s.windows != 2 {
		t.Errorf("%d of %d windows fast, want 1 of 2", s.fast, s.windows)
	}
	if want := 100 * windowSlices / winSecs; s.opsPerS != want {
		t.Errorf("ops_per_s %v, want %v", s.opsPerS, want)
	}
	if s.p50us != 5 || s.samples != windowSlices {
		t.Errorf("lat_p50_us %v over %d samples, want 5 over %d", s.p50us, s.samples, windowSlices)
	}
	if want := 160 * windowSlices / (2 * winSecs); s.allOpsPerS != want {
		t.Errorf("whole ops/s %v, want %v", s.allOpsPerS, want)
	}
	if s.allP50us != 9 || s.allP99us != 9 || s.allSamples != 3*windowSlices {
		t.Errorf("whole p50 %v p99 %v over %d samples, want 9 and 9 over %d", s.allP50us, s.allP99us, s.allSamples, 3*windowSlices)
	}
}

// failingStepper verifies two ops and fails the third.
type failingStepper struct {
	failer
	n int
}

func (s *failingStepper) step(p *pass) {
	if s.n++; s.n == 3 {
		s.fail("op 3 returned different bytes")
		return
	}
	now := p.clock()
	p.record(now, 1000, 1, 64, 0)
}
func (s *failingStepper) quiesce() error { return nil }

// TestAFailedOpIsCounted: the pass ends at the first failed op and
// returns it counted beside the ops verified before it, which is what
// fail_share and the result line's attempted and failed are made of.
func TestAFailedOpIsCounted(t *testing.T) {
	res, err := newPass(0, 10, 16, nil).run(&failingStepper{})
	if err == nil {
		t.Fatal("the pass did not report the failed op")
	}
	if res.ops != 2 || res.failed != 1 {
		t.Errorf("%d verified, %d failed; want 2 and 1", res.ops, res.failed)
	}
}
