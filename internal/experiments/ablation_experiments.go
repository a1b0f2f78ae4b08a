package experiments

import (
	"fmt"

	demi "demikernel"
	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
)

// The ablations probe the design choices DESIGN.md calls out: is the
// bypass win really about syscalls alone, and how sensitive is the
// zero-copy argument to memory bandwidth? They are not paper figures;
// they stress the *reasons* behind the paper's claims.

// echoOverModel measures n echo round trips of size bytes between a pair
// of kind nodes charged from a custom cost model.
func echoOverModel(kind demi.Kind, seed int64, model simclock.CostModel, size, n int) (*metrics.Histogram, error) {
	rig, err := newEchoRig(demi.NewClusterWithModel(seed, model), kind, 0)
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	return rig.MeasureEcho(size, n)
}

// runA1 ablates the syscall cost: if syscalls were free, would the
// kernel path catch up? The paper argues no — "the kernel's I/O
// abstraction is as much a barrier to performance as the kernel itself"
// (§3.2): the copies, the heavier stack, and the POSIX semantics remain.
func runA1(seed int64) (*Result, error) {
	res := &Result{}
	tbl := metrics.NewTable("A1: 4KB echo RTT as the syscall price varies",
		"syscall cost", "kernel p50", "bypass p50", "kernel/bypass")
	var ratioAtZero, ratioAtFull float64
	for _, syscallNS := range []simclock.Lat{0, 250, 500, 1000, 2000} {
		model := simclock.Datacenter2019()
		model.SyscallNS = syscallNS
		kh, err := echoOverModel(demi.Catnap, seed, model, 4096, rttSamples)
		if err != nil {
			return nil, err
		}
		bh, err := echoOverModel(demi.Catnip, seed, model, 4096, rttSamples)
		if err != nil {
			return nil, err
		}
		ratio := float64(kh.Percentile(50)) / float64(bh.Percentile(50))
		if syscallNS == 0 {
			ratioAtZero = ratio
		}
		if syscallNS == 500 {
			ratioAtFull = ratio
		}
		tbl.AddRow(syscallNS, kh.Percentile(50), bh.Percentile(50), fmt.Sprintf("%.2fx", ratio))
	}
	res.Tables = append(res.Tables, tbl)

	res.check("kernel path stays slower even with free syscalls (§3.2: the abstraction is the barrier)",
		ratioAtZero > 1.2, "ratio at syscall=0 is %.2f", ratioAtZero)
	res.check("syscall price widens the gap", ratioAtFull > ratioAtZero,
		"ratio grows from %.2f to %.2f", ratioAtZero, ratioAtFull)
	return res, nil
}

// runA2 ablates the copy cost (memory bandwidth): the zero-copy
// advantage must scale with the price of a byte.
func runA2(seed int64) (*Result, error) {
	res := &Result{}
	tbl := metrics.NewTable("A2: 4KB KV GET as the copy price varies",
		"copy ns/B", "copy-path p50", "zero-copy p50", "delta")
	var deltas []simclock.Lat
	for _, perByte := range []float64{0.06, 0.244, 0.5, 1.0} {
		model := simclock.Datacenter2019()
		model.CopyPerByteNS = perByte

		var p50s [2]simclock.Lat
		for i, kind := range []demi.Kind{demi.Catnap, demi.Catnip} {
			p50, err := kvGetP50(demi.NewClusterWithModel(seed, model), kind, "k", make([]byte, 4096))
			if err != nil {
				return nil, err
			}
			p50s[i] = p50
		}
		delta := p50s[0] - p50s[1]
		deltas = append(deltas, delta)
		tbl.AddRow(fmt.Sprintf("%.3f", perByte), p50s[0], p50s[1], delta)
	}
	res.Tables = append(res.Tables, tbl)

	monotonic := true
	for i := 1; i < len(deltas); i++ {
		if deltas[i] <= deltas[i-1] {
			monotonic = false
		}
	}
	res.check("zero-copy advantage grows with copy price", monotonic,
		"deltas: %v", deltas)
	res.check("advantage persists even at DDR5-class bandwidth",
		deltas[0] > 0, "delta at 0.06 ns/B = %v", deltas[0])
	return res, nil
}
