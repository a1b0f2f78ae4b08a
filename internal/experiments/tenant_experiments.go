package experiments

// E15 — multi-tenant NIC protection (§3, §7): untrusting applications
// share one kernel-bypass device, and the control plane — not mutual
// trust — keeps them apart. Two measurements:
//
//  1. Victim tail latency with and without a hostile co-tenant that
//     floods its TX path and leaks pooled frames against its quota.
//     Isolation working means the victims' virtual p99 barely moves.
//  2. WDRR weight enforcement under TX contention: three backlogged
//     tenants with weights 1:1:1 and 4:2:1; the scheduler must hand
//     out link share in weight proportion.

import (
	"fmt"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/echo"
	"demikernel/internal/chaos"
	"demikernel/internal/fabric"
	"demikernel/internal/metrics"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
)

// TenantAttackPoint summarises one victim's service quality in the
// quiet and under-attack halves of a hostile-tenant run.
type TenantAttackPoint struct {
	Victim             string
	QuietP50, QuietP99 demi.Lat
	HotP50, HotP99     demi.Lat
	HostileThrottled   int64 // frames dropped at the hostile tenant's rate cap
	HostileReclaimedOK bool  // ledger returned to zero after the crash
}

// TenantRig is the hostile-tenant scenario, staged: three tenants on one
// shared NIC — two victims serving echo to clients on NICs of their own,
// and one that will go hostile against a bystander sink — E15's rig and
// `demi-stat -rig tenants`'s.
type TenantRig struct {
	Cluster         *demi.Cluster
	VicA, VicB, Mal *demi.Node
	Close           func()

	seed       int64
	hostile    *chaos.HostileTenant // Mal's repertoire
	victims    [2]*echo.Client      // of VicA and VicB
	quiet, hot [2]metrics.Histogram // per victim, over Run's two halves
}

// NewTenantRig spawns and stages the scenario. The hostile tenant gets a
// real quota and a TX rate cap — the contract the device will hold it to.
func NewTenantRig(seed int64) (*TenantRig, error) {
	c := demi.NewCluster(seed)
	r := &TenantRig{seed: seed, Cluster: c}
	r.VicA = c.MustSpawn(demi.Catnip, demi.WithHost(1), demi.WithTenant("vic-a", demi.TenantPolicy{
		TxWeight: 2, FrameQuotaBytes: 8 << 20,
	}))
	r.VicB = c.MustSpawn(demi.Catnip, demi.WithHost(2), demi.WithTenant("vic-b", demi.TenantPolicy{
		TxWeight: 2, FrameQuotaBytes: 8 << 20,
	}))
	r.Mal = c.MustSpawn(demi.Catnip, demi.WithHost(3), demi.WithTenant("mal", demi.TenantPolicy{
		TxWeight: 1, FrameQuotaBytes: 2 << 20, TxRateBps: 4 << 20, TxBurstBytes: 64 << 10,
	}))
	cliA := c.MustSpawn(demi.Catnip, demi.WithHost(4))
	cliB := c.MustSpawn(demi.Catnip, demi.WithHost(5))
	sink := c.MustSpawn(demi.Catnip, demi.WithHost(6))
	r.hostile = &chaos.HostileTenant{Lib: r.Mal.LibOS, Pool: r.Mal.Catnip.Pool(), Node: r.Mal, Sink: c.AddrOf(sink, 9)}

	pairA, err := StageEcho(c, r.VicA, cliA)
	if err != nil {
		return nil, err
	}
	pairB, err := StageEcho(c, r.VicB, cliB)
	if err != nil {
		pairA.Close()
		return nil, err
	}
	r.victims = [2]*echo.Client{pairA.Client, pairB.Client}
	stopMal, stopSink := r.Mal.Background(), sink.Background()
	r.Close = func() { stopSink(); stopMal(); pairB.Close(); pairA.Close() }
	return r, nil
}

// Run drives quiet echo round trips per victim, then the rampage on the
// schedule shape the soak test uses (flood, leak a stagger later, crash
// another stagger later) under at least hot more round trips per victim,
// stepping the engine between them until the schedule is done. The
// stagger is 20 ms, or what the quiet half took if that was longer: the
// schedule runs on the wall clock, and on a loaded host a flood that is
// crashed after 40 ms may not have got to its rate cap yet.
func (r *TenantRig) Run(quiet, hot int) (*chaos.Engine, error) {
	buf := make([]byte, 64)
	step := func(into *[2]metrics.Histogram) error {
		for v, cli := range r.victims {
			lat, err := cli.RTT(buf, 0)
			if err != nil {
				return fmt.Errorf("victim %c rtt: %w", 'A'+v, err)
			}
			into[v].Record(lat)
		}
		return nil
	}
	start := time.Now()
	for i := 0; i < quiet; i++ {
		if err := step(&r.quiet); err != nil {
			return nil, err
		}
	}
	stagger := max(20*time.Millisecond, time.Since(start))
	eng := chaos.New(r.seed).Rampage(0, stagger, "mal", r.hostile)
	eng.Start()
	defer r.hostile.Stop()
	for i := 0; i < hot || !eng.Done(); i++ {
		eng.Step()
		if err := step(&r.hot); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// Points summarises each victim's service quality over Run's two halves.
func (r *TenantRig) Points() []TenantAttackPoint {
	mf, mb := r.Mal.Tenant.Ledger.Outstanding()
	throttled := r.Mal.Catnip.Group().Stats().ThrottleDrops
	var points []TenantAttackPoint
	for v, name := range []string{"vic-a", "vic-b"} {
		q, h := r.quiet[v].Summarize(), r.hot[v].Summarize()
		points = append(points, TenantAttackPoint{Victim: name,
			QuietP50: q.P50, QuietP99: q.P99, HotP50: h.P50, HotP99: h.P99,
			HostileThrottled: throttled, HostileReclaimedOK: mf == 0 && mb == 0})
	}
	return points
}

// RunTenantWDRR measures TX link share under deterministic contention:
// three tenant queue groups on one device, every ring backlogged behind
// an exhausted token bucket on a stopped clock, then one refill and a
// fixed pump budget. The bytes each tenant got out are its share.
func RunTenantWDRR(seed int64, weights [3]int) ([3]int64, error) {
	c := demi.NewCluster(seed)
	dev := nic.New(&c.Model, c.Switch, nic.Config{MAC: fabric.MAC{0x02, 0xE1, 0x50, 0, 0, 1}, RxQueues: 3})

	// A controllable clock: stopped during the fill so no tokens refill,
	// then stepped once to fund exactly one contended pump.
	clock := simclock.NewClock()
	clock.SetSkew(-1e6)

	var groups [3]*nic.QueueGroup
	for i := range groups {
		g, err := dev.NewQueueGroup(fmt.Sprintf("t%d", i), 1, nic.GroupConfig{
			MAC: fabric.MAC{0x02, 0xE1, 0x50, 0, 1, byte(i)},
			IP:  [4]byte{10, 0, 15, byte(i + 1)},
			Bounds: nic.SteeringBounds{
				MACs: []fabric.MAC{{0x02, 0xE1, 0x50, 0, 1, byte(i)}},
				IPs:  [][4]byte{{10, 0, 15, byte(i + 1)}},
			},
			TxWeight: weights[i],
			// 64 KB burst funds the fill's head; 6.4 MB/s refills one
			// more 64 KB budget per 10 ms the clock is stepped.
			TxRateBps:    64 << 10 * 100,
			TxBurstBytes: 64 << 10,
			Clock:        clock,
		})
		if err != nil {
			return [3]int64{}, err
		}
		groups[i] = g
	}

	// Backlog every ring: 200 x 1000 B frames per tenant. The first
	// ~64 KB of each drains against the initial burst; the rest waits.
	frame := make([]byte, 1000)
	for i, g := range groups {
		frame[5] = byte(i)
		for f := 0; f < 200; f++ {
			g.TxFrame(fabric.Frame{Data: append([]byte(nil), frame...)})
		}
	}
	var before [3]int64
	for i, g := range groups {
		before[i] = g.Stats().TxBytes
	}

	// Refill every bucket (clamped at burst) and run one pump: a fixed
	// 64 KB budget the three backlogged tenants must share by weight.
	clock.Step(time.Second)
	groups[0].RxBurst(0, 1)

	var share [3]int64
	for i, g := range groups {
		share[i] = g.Stats().TxBytes - before[i]
	}
	return share, nil
}

func runE15(seed int64) (*Result, error) {
	res := &Result{}

	const ops = 300
	rig, err := NewTenantRig(seed)
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	if _, err := rig.Run(ops, ops); err != nil {
		return nil, err
	}
	points := rig.Points()
	tbl := metrics.NewTable("Victim service quality with a hostile co-tenant (virtual time)",
		"victim", "quiet p50", "quiet p99", "attacked p50", "attacked p99", "p99 ratio")
	for _, p := range points {
		ratio := float64(p.HotP99) / float64(p.QuietP99)
		tbl.AddRow(p.Victim, p.QuietP50, p.QuietP99, p.HotP50, p.HotP99, fmt.Sprintf("%.2fx", ratio))
	}
	res.Tables = append(res.Tables, tbl)

	shareEven, err := RunTenantWDRR(seed, [3]int{1, 1, 1})
	if err != nil {
		return nil, err
	}
	shareSkew, err := RunTenantWDRR(seed, [3]int{4, 2, 1})
	if err != nil {
		return nil, err
	}
	wtbl := metrics.NewTable("WDRR TX share under contention (one 64 KB pump, all rings backlogged)",
		"weights", "tenant 0", "tenant 1", "tenant 2")
	wtbl.AddRow("1:1:1", shareEven[0], shareEven[1], shareEven[2])
	wtbl.AddRow("4:2:1", shareSkew[0], shareSkew[1], shareSkew[2])
	res.Tables = append(res.Tables, wtbl)

	for _, p := range points {
		ratio := float64(p.HotP99) / float64(p.QuietP99)
		res.check(fmt.Sprintf("victim %s p99 within 2x under attack", p.Victim), ratio <= 2.0,
			"quiet p99 %v vs attacked p99 %v (%.2fx, ceiling 2x)", p.QuietP99, p.HotP99, ratio)
	}
	res.check("hostile flood throttled at its own rate cap", points[0].HostileThrottled > 0,
		"%d frames dropped at the hostile tenant's staging ring", points[0].HostileThrottled)
	res.check("hostile quota reclaimed to zero after crash", points[0].HostileReclaimedOK,
		"ledger outstanding frames/bytes both zero after device-side reclaim")

	evenOK := true
	total := shareEven[0] + shareEven[1] + shareEven[2]
	for _, s := range shareEven {
		if f := float64(s) / float64(total); f < 0.23 || f > 0.43 {
			evenOK = false
		}
	}
	res.check("equal weights share the link equally", evenOK,
		"1:1:1 shares = %d / %d / %d bytes", shareEven[0], shareEven[1], shareEven[2])
	skewOK := shareSkew[0] > shareSkew[1] && shareSkew[1] > shareSkew[2] &&
		float64(shareSkew[0]) >= 1.5*float64(shareSkew[1]) &&
		float64(shareSkew[1]) >= 1.5*float64(shareSkew[2])
	res.check("4:2:1 weights yield ordered ~2x-spaced shares", skewOK,
		"4:2:1 shares = %d / %d / %d bytes", shareSkew[0], shareSkew[1], shareSkew[2])
	return res, nil
}
