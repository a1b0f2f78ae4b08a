package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	demi "demikernel"
	"demikernel/internal/apps/failover"
	"demikernel/internal/fabric"
	"demikernel/internal/metrics"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// rttSamples is the per-point sample count for latency experiments.
const rttSamples = 30

// runE1 reproduces Figure 1: the same echo over the legacy kernel path
// and over the kernel-bypass libOS, on an identical simulated wire.
func runE1(seed int64) (*Result, error) {
	res := &Result{}
	sizes := []int{64, 1024, 4096, 16384}
	tbl := metrics.NewTable("E1: echo RTT, kernel path vs kernel-bypass path",
		"msg bytes", "kernel p50", "bypass p50", "kernel/bypass", "kernel syscalls/req", "bypass syscalls/req")
	tbl.Note = "virtual latency from the documented cost model; both paths share the wire"

	var kernel4k, bypass4k simclock.Lat
	var counterTbl *metrics.Table
	// The fewest syscalls a kernel-path request made and the most a
	// bypass-path one did, per request, over every size.
	minKernelSys, maxBypassSys := math.Inf(1), 0.0
	for _, size := range sizes {
		kr, err := newEchoRig(demi.NewCluster(seed), demi.Catnap, 0)
		if err != nil {
			return nil, err
		}
		kr.srvNode.Kernel.ResetCounters()
		kr.cliNode.Kernel.ResetCounters()
		kh, err := kr.MeasureEcho(size, rttSamples)
		if err != nil {
			kr.Close()
			return nil, err
		}
		kernelSys := syscallsPerReq(kr.cliNode)
		kr.Close()

		br, err := newEchoRig(demi.NewCluster(seed), demi.Catnip, 0)
		if err != nil {
			return nil, err
		}
		// At the representative 4KB point, watch the bypass run through
		// the telemetry registry: snapshot every layer's counters before
		// and after, and report the per-layer activity the echo generated.
		var before telemetry.Snapshot
		reg := telemetry.NewRegistry()
		if size == 4096 {
			br.cluster.Switch.RegisterTelemetry(reg, "fabric")
			br.srvNode.RegisterTelemetry(reg, "server")
			br.cliNode.RegisterTelemetry(reg, "client")
			before = reg.Snapshot()
		}
		bh, err := br.MeasureEcho(size, rttSamples)
		if err != nil {
			br.Close()
			return nil, err
		}
		bypassSys := syscallsPerReq(br.cliNode)
		if size == 4096 {
			diff := reg.Snapshot().Diff(before).NonZero()
			counterTbl = metrics.NewTable("E1: per-layer counters across the 4KB bypass echo run ("+
				fmt.Sprintf("%d round trips)", rttSamples), "counter", "delta")
			counterTbl.Note = "telemetry.Registry diff over the measured window; the qtoken span path " +
				"and this registry are disabled by default and cost zero allocations on the hot path " +
				"(see hotpath_alloc_test.go and README §Hot-path performance)"
			for _, smp := range diff.Samples {
				// Instantaneous depth gauges (in-flight tokens, ring
				// occupancy, run-queue length) depend on where the
				// background pollers happen to be when the snapshot
				// lands; only monotonic activity counters are
				// deterministic across runs, so only those are reported.
				if instantaneousGauge(smp.Name) {
					continue
				}
				counterTbl.AddRow(smp.Name, smp.Value)
			}
		}
		br.Close()

		kp50, bp50 := kh.Percentile(50), bh.Percentile(50)
		if size == 4096 {
			kernel4k, bypass4k = kp50, bp50
		}
		tbl.AddRow(size, kp50, bp50, metrics.Ratio(kp50, bp50),
			fmt.Sprintf("%.1f", kernelSys), fmt.Sprintf("%.1f", bypassSys))
		minKernelSys, maxBypassSys = min(minKernelSys, kernelSys), max(maxBypassSys, bypassSys)
	}
	res.Tables = append(res.Tables, tbl)
	if counterTbl != nil {
		res.Tables = append(res.Tables, counterTbl)
	}

	res.check("bypass wins at 4KB", bypass4k < kernel4k,
		"bypass p50 %v < kernel p50 %v", bypass4k, kernel4k)
	res.check("kernel overhead is material (>=1.3x at 4KB)",
		float64(kernel4k) >= 1.3*float64(bypass4k),
		"ratio %.2f", float64(kernel4k)/float64(bypass4k))
	res.check("kernel path crosses at least twice a request (a send and a recv)", minKernelSys >= 2,
		"fewest kernel syscalls/req %.1f", minKernelSys)
	res.check("bypass path never crosses", maxBypassSys == 0,
		"most bypass syscalls/req %.1f", maxBypassSys)
	return res, nil
}

// syscallsPerReq is the client's kernel crossings per measured round trip
// since its counters were reset: none on a node with no kernel.
func syscallsPerReq(n *demi.Node) float64 {
	if n.Kernel == nil {
		return 0
	}
	return float64(n.Kernel.Counters().SyscallCrossings) / rttSamples
}

// instantaneousGauge reports whether a registry sample name is an
// instantaneous depth reading rather than a monotonic activity counter.
// Diffs of such gauges depend on background-poller timing, so the E1
// counter table excludes them to stay deterministic per seed.
func instantaneousGauge(name string) bool {
	for _, suffix := range []string{".outstanding", ".ready", ".occupancy", ".pending"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// runE3 reproduces the §3.2 copy claim with the KV store: POSIX copies
// on the kernel path vs zero-copy pushes on the bypass path.
func runE3(seed int64) (*Result, error) {
	res := &Result{}
	model := simclock.Datacenter2019()
	sizes := []int{64, 1024, 4096, 16384, 65536}

	tbl := metrics.NewTable("E3: KV GET cost vs value size — copy path vs zero-copy path",
		"value bytes", "catnap (copy) p50", "catnip (zero-copy) p50", "delta", "copy cost alone", "copy/app-compute")
	tbl.Note = "paper calibration: a 4KB copy is ~1µs, ~50% of a 2µs request"

	points := map[int]e3Point{}
	for _, size := range sizes {
		val := bytes.Repeat([]byte{0x5A}, size)

		var p e3Point
		for i, kind := range []demi.Kind{demi.Catnap, demi.Catnip} {
			p50, err := kvGetP50(demi.NewCluster(seed), kind, "key", val)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				p.copyP50 = p50
			} else {
				p.zcP50 = p50
			}
		}
		points[size] = p
		copyCost := model.CopyCost(size)
		tbl.AddRow(size, p.copyP50, p.zcP50, p.copyP50-p.zcP50, copyCost,
			fmt.Sprintf("%.0f%%", 100*float64(copyCost)/float64(model.AppRequestNS)))
	}
	res.Tables = append(res.Tables, tbl)

	copy4k := model.CopyCost(4096)
	res.check("4KB copy ≈ 1µs", copy4k >= 900 && copy4k <= 1100, "copy(4KB) = %v", copy4k)
	res.check("copy ≈ 50% of app compute at 4KB",
		float64(copy4k)/float64(model.AppRequestNS) > 0.4 &&
			float64(copy4k)/float64(model.AppRequestNS) < 0.6,
		"ratio %.2f", float64(copy4k)/float64(model.AppRequestNS))
	res.check("zero-copy wins at every size", allSizesWin(points),
		"copy-path p50 > zero-copy p50 for all sizes")
	res.check("gap grows with value size",
		points[65536].copyP50-points[65536].zcP50 > points[64].copyP50-points[64].zcP50,
		"delta 64B=%v, 64KB=%v", points[64].copyP50-points[64].zcP50,
		points[65536].copyP50-points[65536].zcP50)
	return res, nil
}

type e3Point struct{ copyP50, zcP50 simclock.Lat }

// kvGetP50 stores val under key on a fresh KV pair of kind nodes and
// returns the median virtual cost of rttSamples GETs of it.
func kvGetP50(c *demi.Cluster, kind demi.Kind, key string, val []byte) (simclock.Lat, error) {
	rig, err := NewKVRig(c, kind, 1, 1, 6379)
	if err != nil {
		return 0, err
	}
	defer rig.Close()
	client := rig.Client
	if _, err := client.Set(key, val); err != nil {
		return 0, fmt.Errorf("%s set: %w", kind, err)
	}
	var h metrics.Histogram
	for j := 0; j < rttSamples; j++ {
		_, cost, found, err := client.Get(key)
		if err != nil || !found {
			return 0, fmt.Errorf("%s get: found=%v err=%v", kind, found, err)
		}
		h.Record(cost)
	}
	return h.Percentile(50), nil
}

func allSizesWin(points map[int]e3Point) bool {
	for _, p := range points {
		if p.copyP50 <= p.zcP50 {
			return false
		}
	}
	return true
}

// runE6 reproduces the §6 observation about POSIX-preserving user-level
// stacks: a lean user stack with the POSIX-emulation tax is slower than
// the kernel; the Demikernel interface over the same lean stack is much
// faster than both.
func runE6(seed int64) (*Result, error) {
	res := &Result{}
	model := simclock.Datacenter2019()

	configs := []struct {
		label string
		kind  demi.Kind
		extra simclock.Lat
	}{
		{"linux kernel (catnap)", demi.Catnap, 0},
		{"mTCP-style user stack + POSIX emulation", demi.Catnip, model.PosixEmulationNS},
		{"demikernel interface (catnip)", demi.Catnip, 0},
	}
	tbl := metrics.NewTable("E6: 64B echo RTT across stack architectures",
		"stack", "p50", "p99", "vs kernel")
	p50s := make([]simclock.Lat, len(configs))
	for i, cfg := range configs {
		rig, err := newEchoRig(demi.NewCluster(seed), cfg.kind, cfg.extra)
		if err != nil {
			return nil, err
		}
		h, err := rig.MeasureEcho(64, rttSamples)
		rig.Close()
		if err != nil {
			return nil, err
		}
		p50s[i] = h.Percentile(50)
		tbl.AddRow(cfg.label, h.Percentile(50), h.Percentile(99), metrics.Ratio(h.Percentile(50), p50s[0]))
	}
	res.Tables = append(res.Tables, tbl)

	res.check("POSIX-preserving user stack slower than the kernel (mTCP claim)",
		p50s[1] > p50s[0], "mTCP-style %v > kernel %v", p50s[1], p50s[0])
	res.check("demikernel interface beats both", p50s[2] < p50s[0] && p50s[2] < p50s[1],
		"demikernel %v, kernel %v, mTCP-style %v", p50s[2], p50s[0], p50s[1])
	return res, nil
}

// runE9 reproduces the portability story: the unmodified KV application
// over three libOSes.
func runE9(seed int64) (*Result, error) {
	res := &Result{}
	deviceClass := map[demi.Kind]string{
		demi.Catnap:  "none (legacy kernel)",
		demi.Catnip:  "DPDK-class NIC",
		demi.Catmint: "RDMA-class NIC",
	}
	tbl := metrics.NewTable("E9: unmodified KV application across libOSes",
		"libOS", "device class", "SET p50", "GET p50", "ops OK")
	getP50 := map[demi.Kind]simclock.Lat{}

	for _, flavor := range []demi.Kind{demi.Catnap, demi.Catnip, demi.Catmint} {
		rig, err := NewKVRig(demi.NewCluster(seed), flavor, 1, 1, 6379)
		if err != nil {
			return nil, err
		}
		client, closeRig := rig.Client, rig.Close
		var setH, getH metrics.Histogram
		ok := true
		val := bytes.Repeat([]byte{7}, 512)
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%02d", i)
			cost, err := client.Set(key, append([]byte(nil), val...))
			if err != nil {
				ok = false
				break
			}
			setH.Record(cost)
		}
		for i := 0; i < 40 && ok; i++ {
			key := fmt.Sprintf("k%02d", i%20)
			got, cost, found, err := client.Get(key)
			if err != nil || !found || !bytes.Equal(got, val) {
				ok = false
				break
			}
			getH.Record(cost)
		}
		closeRig()
		getP50[flavor] = getH.Percentile(50)
		tbl.AddRow(flavor, deviceClass[flavor], setH.Percentile(50), getH.Percentile(50), ok)
		res.check(fmt.Sprintf("%s runs the app unmodified", flavor), ok, "all ops verified")
	}
	res.Tables = append(res.Tables, tbl)
	res.check("both bypass libOSes beat the kernel libOS",
		getP50[demi.Catnip] < getP50[demi.Catnap] && getP50[demi.Catmint] < getP50[demi.Catnap],
		"catnip %v, catmint %v, catnap %v", getP50[demi.Catnip], getP50[demi.Catmint], getP50[demi.Catnap])
	return res, nil
}

// runE11 reproduces the §5.2 framing requirement: multi-segment SGAs
// survive a lossy, reordering stream intact and in order.
func runE11(seed int64) (*Result, error) {
	res := &Result{}
	rig, err := newEchoRig(demi.NewCluster(seed), demi.Catnip, 0)
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	// Inject loss and reordering mid-run.
	rig.cluster.Switch.SetImpairments(fabric.Impairments{LossRate: 0.05, ReorderRate: 0.1})

	const n = 60
	intact, ordered := 0, true
	for i := 0; i < n; i++ {
		s := sga.New(
			[]byte(fmt.Sprintf("hdr-%03d", i)),
			bytes.Repeat([]byte{byte(i)}, 100+i*13),
			[]byte("tail"),
		)
		if err := failover.Send(rig.Client.Lib(), rig.Client.QD(), s, 0); err != nil {
			return nil, err
		}
		echo, _, err := failover.Recv(rig.Client.Lib(), rig.Client.QD())
		if err != nil {
			return nil, fmt.Errorf("pop %d: %w", i, err)
		}
		if echo.Equal(s) {
			intact++
		}
		if string(echo.Segments[0].Buf) != fmt.Sprintf("hdr-%03d", i) {
			ordered = false
		}
		echo.Free()
	}
	st := rig.cliNode.Catnip.Stack().Stats()
	tbl := metrics.NewTable("E11: SGA framing over TCP with 5% loss + 10% reordering",
		"messages", "intact", "in order", "retransmits", "fast retransmits", "out-of-order segs")
	tbl.AddRow(n, intact, ordered, st.Retransmits, st.FastRetransmits, st.OutOfOrderSegs)
	res.Tables = append(res.Tables, tbl)

	res.check("every SGA reconstructed exactly", intact == n, "%d/%d", intact, n)
	res.check("delivery order preserved", ordered, "FIFO across the stream held")
	res.check("loss was actually exercised", st.Retransmits+st.FastRetransmits > 0,
		"retransmissions observed: %d", st.Retransmits+st.FastRetransmits)
	return res, nil
}
