package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	demi "demikernel"
	"demikernel/internal/fabric"
	"demikernel/internal/metrics"
	"demikernel/internal/nic"
	"demikernel/internal/offload"
	"demikernel/internal/rdma"
	"demikernel/internal/simclock"
)

// runE2 reproduces Table 1: the taxonomy of kernel-bypass accelerators
// and, per libOS, the OS functionality that had to be supplied in
// software to close the gap.
func runE2(seed int64) (*Result, error) {
	res := &Result{}
	c := demi.NewCluster(seed)
	nodes := map[string]*demi.Node{
		"catnap":  c.MustSpawn(demi.Catnap, demi.WithHost(1)),
		"catnip":  c.MustSpawn(demi.Catnip, demi.WithHost(2)),
		"catmint": c.MustSpawn(demi.Catmint, demi.WithHost(3)),
	}
	catfishNode, err := c.Spawn(demi.Catfish, demi.WithBlocks(0))
	if err != nil {
		return nil, err
	}
	nodes["catfish"] = catfishNode

	tbl := metrics.NewTable("E2: accelerator taxonomy (Table 1) and the software gap",
		"libOS", "bypass", "HW transport", "HW offloads", "software the libOS supplies")
	order := []string{"catnap", "catnip", "catmint", "catfish"}
	feats := map[string]demi.Features{}
	for _, name := range order {
		f := nodes[name].Features()
		feats[name] = f
		tbl.AddRow(name, f.KernelBypass, f.HWTransport, f.HWOffloads,
			strings.Join(f.SoftwareSupplied, "; "))
	}
	res.Tables = append(res.Tables, tbl)

	res.check("only the kernel libOS lacks bypass",
		!feats["catnap"].KernelBypass && feats["catnip"].KernelBypass &&
			feats["catmint"].KernelBypass && feats["catfish"].KernelBypass, "")
	res.check("DPDK-class device needs the most software (a full stack)",
		len(feats["catnip"].SoftwareSupplied) > len(feats["catmint"].SoftwareSupplied),
		"catnip supplies %d components, catmint %d",
		len(feats["catnip"].SoftwareSupplied), len(feats["catmint"].SoftwareSupplied))
	res.check("RDMA provides transport in hardware, DPDK does not",
		feats["catmint"].HWTransport && !feats["catnip"].HWTransport, "")
	return res, nil
}

// runE7 reproduces §4.5: region-amortised transparent registration vs
// explicit per-buffer registration, and free-protection for in-flight
// buffers.
func runE7(seed int64) (*Result, error) {
	res := &Result{}
	model := simclock.Datacenter2019()
	const nMessages = 256
	const msgSize = 4096

	// Explicit per-message registration (raw verbs discipline).
	sw := fabric.NewSwitch(&model, seed)
	rawDev := rdma.New(&model, sw, fabric.MAC{0x02, 0, 0, 0, 0, 0x51})
	pd := rawDev.AllocPD()
	for i := 0; i < nMessages; i++ {
		mr := pd.RegisterMemory(make([]byte, msgSize))
		_ = mr
	}
	rawStats := rawDev.Stats()
	rawCost := simclock.Lat(rawStats.Registrations) * model.RegistrationNS

	// LibOS pool (catmint arenas).
	c := demi.NewCluster(seed)
	node := c.MustSpawn(demi.Catmint, demi.WithHost(1))
	var sgas []demi.SGA
	for i := 0; i < nMessages; i++ {
		sgas = append(sgas, node.AllocSGA(msgSize))
	}
	for _, s := range sgas {
		s.Free()
	}
	poolRegs := node.Catmint.Device().Stats().Registrations
	poolCost := simclock.Lat(poolRegs) * model.RegistrationNS
	poolPinned := node.Catmint.Device().Stats().PinnedBytes

	tbl := metrics.NewTable("E7a: registering memory for 256 x 4KB messages",
		"approach", "registrations", "registration cost", "pinned bytes")
	tbl.AddRow("explicit per-buffer (raw verbs)", rawStats.Registrations, rawCost, rawStats.PinnedBytes)
	tbl.AddRow("libOS regions (catmint pool)", poolRegs, poolCost, poolPinned)
	res.Tables = append(res.Tables, tbl)

	// Free-protection, on a catnip node's AllocSGA.
	deferred, violations, err := freeWhileQueued(seed, nMessages, msgSize)
	if err != nil {
		return nil, err
	}
	tbl2 := metrics.NewTable("E7b: free-protection for in-flight buffers",
		"metric", "value")
	tbl2.AddRow("app frees while in flight", nMessages)
	tbl2.AddRow("deferred deallocations", deferred)
	tbl2.AddRow("use-after-free aliasing violations", violations)
	res.Tables = append(res.Tables, tbl2)

	res.check("libOS registration is amortised (>=64x fewer registrations)",
		rawStats.Registrations >= 64*poolRegs,
		"explicit=%d pooled=%d", rawStats.Registrations, poolRegs)
	res.check("every early free was deferred", deferred == nMessages,
		"deferred=%d", deferred)
	res.check("no in-flight buffer was recycled", violations == 0, "violations=%d", violations)
	return res, nil
}

// freeWhileQueued pushes n buffers of size bytes from a catnip node's
// AllocSGA behind a push its send buffer cannot take whole, so that each
// waits in the send queue, and frees each at once (§4.5 allows this). A
// free is deferred when the buffer stays out of the node's frame pool; a
// violation is a fresh AllocSGA handed a buffer that is still queued. The
// node is a tenant, so that the pool it reads is its own.
func freeWhileQueued(seed int64, n, size int) (deferred, violations int, err error) {
	c := demi.NewCluster(seed)
	srv := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catnip, demi.WithHost(2), demi.WithTenant("e7", demi.TenantPolicy{}))
	stop := srv.Background()
	defer stop()
	lqd, _ := srv.Socket() // catnip sockets do not fail
	cqd, _ := cli.Socket()
	err = errors.Join(srv.Bind(lqd, demi.Addr{Port: 7}), srv.Listen(lqd))
	if err == nil {
		err = cli.Connect(cqd, c.AddrOf(srv, 7))
	}
	if err == nil {
		_, err = cli.Push(cqd, demi.NewSGA(make([]byte, 400_000))) // over the 256 KiB send buffer
	}
	if err != nil {
		return 0, 0, err
	}
	pool := cli.Catnip.Pool()
	queued := map[*byte]bool{}
	for i := 0; i < n; i++ {
		s := cli.AllocSGA(size)
		queued[&s.Segments[0].Buf[0]] = true
		if _, err := cli.Push(cqd, s); err != nil {
			return 0, 0, err
		}
		out := pool.Outstanding()
		s.Free()
		if pool.Outstanding() == out {
			deferred++
		}
		probe := cli.AllocSGA(size)
		if queued[&probe.Segments[0].Buf[0]] {
			violations++
		}
		probe.Free()
	}
	return deferred, violations, nil
}

// runE8 reproduces §4.2/§4.3: running a queue filter on the device frees
// the host CPU, and key-based steering improves cache utilisation.
func runE8(seed int64) (*Result, error) {
	res := &Result{}
	model := simclock.Datacenter2019()
	const nFrames = 2000
	const keepEvery = 4 // 25% of traffic matches

	macTx := fabric.MAC{0x02, 0, 0, 0, 0, 0x61}
	macRx := fabric.MAC{0x02, 0, 0, 0, 0, 0x62}
	mkFrame := func(i int) []byte {
		payload := "cold-data"
		if i%keepEvery == 0 {
			payload = "KEEP-data"
		}
		f := append(append(append([]byte{}, macRx[:]...), macTx[:]...), 0x08, 0x00)
		return append(f, payload...)
	}
	keep := func(f []byte) bool { return len(f) > 14 && f[14] == 'K' }

	run := func(onDevice bool) (hostEvals int, hostCost simclock.Lat, devEvals int64, delivered int) {
		sw := fabric.NewSwitch(&model, seed)
		tx := nic.New(&model, sw, nic.Config{MAC: macTx})
		rx := nic.New(&model, sw, nic.Config{MAC: macRx, RingDepth: nFrames})
		if onDevice {
			offload.InstallDrop(rx, keep)
		}
		for i := 0; i < nFrames; i++ {
			tx.Tx(mkFrame(i), 0)
		}
		for {
			frames := rx.RxBurst(0, 256)
			if len(frames) == 0 {
				break
			}
			for _, f := range frames {
				if onDevice {
					delivered++
					continue
				}
				// CPU fallback: the host evaluates the predicate.
				hostEvals++
				hostCost += model.FilterNS
				if keep(f.Data) {
					delivered++
				}
			}
		}
		return hostEvals, hostCost, rx.Stats().FilterEvals, delivered
	}

	cpuEvals, cpuCost, _, cpuDelivered := run(false)
	nicEvals, nicCost, devEvals, nicDelivered := run(true)

	tbl := metrics.NewTable("E8a: filter placement for 2000 frames (25% match)",
		"placement", "host evals", "host filter cost", "device evals", "matches delivered")
	tbl.AddRow("CPU fallback", cpuEvals, cpuCost, 0, cpuDelivered)
	tbl.AddRow("device (NIC filter table)", nicEvals, nicCost, devEvals, nicDelivered)
	res.Tables = append(res.Tables, tbl)

	// Steering: the NIC's own key steering against random spray over core
	// caches. Each frame is drained as soon as it is sent, so every core
	// sees its keys in the order they were sent; a core's cache is fed by
	// the receive queue the frame landed on.
	const nCores, cacheCap, nKeys, nAccesses = 4, 64, 512, 30000
	sw := fabric.NewSwitch(&model, seed)
	tx := nic.New(&model, sw, nic.Config{MAC: macTx})
	rx := nic.New(&model, sw, nic.Config{MAC: macRx, RxQueues: nCores})
	offload.KeySteering(rx, nCores, func(f []byte) ([]byte, bool) { return f[min(len(f), 14):], len(f) > 14 })
	header := append(append(append([]byte{}, macRx[:]...), macTx[:]...), 0x08, 0x00)
	r := rand.New(rand.NewSource(seed))
	steered := offload.NewCacheSim(nCores, cacheCap)
	sprayed := offload.NewCacheSim(nCores, cacheCap)
	for i := 0; i < nAccesses; i++ {
		// Zipf-ish skew: small keyspace hit often.
		var key string
		if r.Intn(10) < 7 {
			key = fmt.Sprintf("hot-%02d", r.Intn(nKeys/16))
		} else {
			key = fmt.Sprintf("key-%03d", r.Intn(nKeys))
		}
		tx.Tx(append(header[:len(header):len(header)], key...), 0)
		for core := 0; core < nCores; core++ {
			for _, f := range rx.RxBurst(core, 1) {
				steered.Access(core, string(f.Data[len(header):]))
			}
		}
		sprayed.Access(r.Intn(nCores), key)
	}
	tbl2 := metrics.NewTable("E8b: cache hit ratio with key-based steering (§4.3)",
		"steering", "hit ratio")
	tbl2.AddRow("key-affine (NIC steers by key)", fmt.Sprintf("%.3f", steered.HitRatio()))
	tbl2.AddRow("random spray", fmt.Sprintf("%.3f", sprayed.HitRatio()))
	res.Tables = append(res.Tables, tbl2)

	res.check("device filter eliminates host filter work",
		nicEvals == 0 && cpuEvals == nFrames, "host evals: cpu=%d nic=%d", cpuEvals, nicEvals)
	res.check("same matches delivered either way",
		cpuDelivered == nicDelivered && nicDelivered == nFrames/keepEvery,
		"cpu=%d nic=%d", cpuDelivered, nicDelivered)
	res.check("key steering improves cache hit ratio",
		steered.HitRatio() > sprayed.HitRatio()+0.05,
		"steered %.3f vs sprayed %.3f", steered.HitRatio(), sprayed.HitRatio())
	return res, nil
}

// runE13 reproduces the §2 receive-buffer sizing dilemma on raw verbs,
// then shows the libOS managing it.
func runE13(seed int64) (*Result, error) {
	res := &Result{}
	model := simclock.Datacenter2019()
	const burst = 64
	const msgSize = 1024

	tbl := metrics.NewTable("E13: 64-message burst vs posted receive buffers",
		"configuration", "posted recvs", "failed sends (RNR)", "over-provisioned bytes")

	failuresAt := map[int]int{}
	for _, posted := range []int{8, 16, 32, 64, 128} {
		sw := fabric.NewSwitch(&model, seed)
		snd := rdma.New(&model, sw, fabric.MAC{0x02, 0, 0, 0, 0, 0x71})
		rcv := rdma.New(&model, sw, fabric.MAC{0x02, 0, 0, 0, 0, 0x72})

		rpd := rcv.AllocPD()
		rscq, rrcq := rcv.CreateCQ(), rcv.CreateCQ()
		l, err := rcv.Listen(9, rpd, rscq, rrcq)
		if err != nil {
			return nil, err
		}
		spd := snd.AllocPD()
		sscq, srcq := snd.CreateCQ(), snd.CreateCQ()
		qp := snd.NewQP(spd, sscq, srcq)
		qp.Connect(rcv.MAC(), 9)
		for snd.Poll()+rcv.Poll() > 0 {
		}
		rqp, ok := l.Accept()
		if !ok {
			return nil, fmt.Errorf("no accepted QP")
		}
		recvMR := rpd.RegisterMemory(make([]byte, posted*msgSize))
		for i := 0; i < posted; i++ {
			rqp.PostRecv(uint64(i), rdma.Sge{MR: recvMR, Off: i * msgSize, Len: msgSize})
		}
		sendMR := spd.RegisterMemory(make([]byte, msgSize))
		// The raw application bursts without coordinating with the
		// receiver — the failure mode the paper describes.
		for i := 0; i < burst; i++ {
			if err := qp.PostSend(uint64(i), rdma.Sge{MR: sendMR, Off: 0, Len: msgSize}); err != nil {
				return nil, err
			}
		}
		for snd.Poll()+rcv.Poll() > 0 {
		}
		failed := 0
		for _, wc := range sscq.Poll(0) {
			if wc.Status == rdma.StatusRNR {
				failed++
			}
		}
		failuresAt[posted] = failed
		waste := 0
		if posted > burst {
			waste = (posted - burst) * msgSize
		}
		tbl.AddRow(fmt.Sprintf("raw verbs, app-posted"), posted, failed, waste)
	}

	// The libOS path: catmint keeps its window posted and the queue API
	// paces pushes, so the same burst count completes without failures.
	rig, err := newEchoRig(demi.NewCluster(seed), demi.Catmint, 0)
	if err != nil {
		return nil, err
	}
	libosFailed := 0
	for i := 0; i < burst; i++ {
		if _, err := rig.Client.RTT(make([]byte, msgSize), 0); err != nil {
			libosFailed++
		}
	}
	rnr := rig.srvNode.Catmint.Device().Stats().RNRNaks +
		rig.cliNode.Catmint.Device().Stats().RNRNaks
	rig.Close()
	tbl.AddRow("catmint (libOS-managed)", "libOS window", libosFailed, 0)
	tbl.Note = "raw verbs: the application guesses; the libOS owns buffer management (§4.5)"
	res.Tables = append(res.Tables, tbl)

	res.check("under-provisioning fails (posted=8 loses most of the burst)",
		failuresAt[8] == burst-8, "failed=%d", failuresAt[8])
	res.check("exact provisioning (64) succeeds", failuresAt[64] == 0,
		"failed=%d", failuresAt[64])
	res.check("libOS management avoids failures entirely",
		libosFailed == 0 && rnr == 0, "failed=%d rnr=%d", libosFailed, rnr)
	return res, nil
}
