package demikernel

// Hostile-tenant soak: three tenants share one NIC; one goes hostile on
// a seeded chaos schedule — flooding its TX path, leaking pooled frames
// against its quota, then crashing mid-rampage. The isolation layer
// (queue groups, WDRR TX weights, rate limits, per-tenant quota
// ledgers) must keep the victims' KV service not merely alive but
// *unperturbed*: every victim operation succeeds, victim tail latency
// stays within 2x of the quiet baseline (virtual time), per-tenant
// frame conservation holds across the crash, and the dead tenant's
// quota is fully reclaimed device-side.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"demikernel/internal/apps/kv"
	"demikernel/internal/chaos"
)

// latP99 returns the 99th-percentile of virtual latencies.
func latP99(lats []Lat) Lat {
	if len(lats) == 0 {
		return 0
	}
	s := append([]Lat(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*99/100]
}

func TestHostileTenantSoak(t *testing.T) {
	const port = 6379
	c := NewCluster(46)

	// Three tenants on one shared NIC: two victims (one of them
	// sharded, so the group-relative RSS path is under fire too) and
	// one hostile. The hostile tenant gets a real quota and a TX rate
	// cap — the contract the device will hold it to.
	vicA := c.MustSpawn(Catnip, WithHost(1), WithTenant("vic-a", TenantPolicy{
		TxWeight:        2,
		FrameQuotaBytes: 8 << 20,
	}))
	vicB := c.MustSpawn(Catnip, WithHost(2), WithShards(2), WithTenant("vic-b", TenantPolicy{
		TxWeight:        2,
		FrameQuotaBytes: 8 << 20,
	}))
	mal := c.MustSpawn(Catnip, WithHost(3), WithTenant("mal", TenantPolicy{
		TxWeight:        1,
		FrameQuotaBytes: 2 << 20,
		TxRateBps:       4 << 20, // 4 MB/s: the flood will exceed this
		TxBurstBytes:    64 << 10,
	}))

	// Clients live on their own dedicated NICs — the victims' service
	// is observed from outside the contested device. The flood sink is
	// a fourth bystander: frames addressed to its unbound port are
	// dropped (and released) on arrival without touching the victims.
	cliANode := c.MustSpawn(Catnip, WithHost(4))
	cliBNode := c.MustSpawn(Catnip, WithHost(5))
	sinkNode := c.MustSpawn(Catnip, WithHost(6))
	cliANode.WaitTimeout = 250 * time.Millisecond
	cliBNode.WaitTimeout = 250 * time.Millisecond

	srvA, stopSrvA, err := kv.Serve(vicA.Libs(), vicA.Mesh(), vicA.Shards(), &c.Model, port)
	if err != nil {
		t.Fatal(err)
	}
	defer stopSrvA()
	srvB, stopSrvB, err := kv.Serve(vicB.Libs(), vicB.Mesh(), vicB.Shards(), &c.Model, port)
	if err != nil {
		t.Fatal(err)
	}
	defer stopSrvB()
	defer mal.Background()()
	defer sinkNode.Background()()
	cliA, stopCliA, err := kv.Dial(cliANode.LibOS, vicA.Shards(), c.Router().Dialer(cliANode, vicA, port))
	if err != nil {
		t.Fatal(err)
	}
	defer stopCliA()
	cliB, stopCliB, err := kv.Dial(cliBNode.LibOS, vicB.Shards(), c.Router().Dialer(cliBNode, vicB, port))
	if err != nil {
		t.Fatal(err)
	}
	defer stopCliB()

	// One KV op against each victim; returns the two virtual costs.
	expected := make(map[string][]byte)
	step := func(i int) (la, lb Lat) {
		key := fmt.Sprintf("k%02d", i%16)
		val := bytes.Repeat([]byte{byte(i)}, 64+i%193)
		if _, err := cliA.Set(key, val); err != nil {
			t.Fatalf("victim A set %d failed under hostile tenant: %v", i, err)
		}
		got, cost, found, err := cliA.Get(key)
		if err != nil || !found || !bytes.Equal(got, val) {
			t.Fatalf("victim A get %d: err=%v found=%v", i, err, found)
		}
		la = cost
		expected[key] = val
		if _, err := cliB.Set(key, val); err != nil {
			t.Fatalf("victim B set %d failed under hostile tenant: %v", i, err)
		}
		got, cost, found, err = cliB.Get(key)
		if err != nil || !found || !bytes.Equal(got, val) {
			t.Fatalf("victim B get %d: err=%v found=%v", i, err, found)
		}
		return la, cost
	}

	// --- Phase 1: quiet baseline. ---
	var quietA, quietB []Lat
	for i := 0; i < 100; i++ {
		la, lb := step(i)
		quietA, quietB = append(quietA, la), append(quietB, lb)
	}

	// --- Phase 2: the rampage. ---
	// Flood: datagrams at the bystander sink as fast as the hostile node
	// can push — the WDRR scheduler and the tenant's own rate cap are
	// what stand between this and the victims' share of the link. Leak:
	// pooled frames charged to the hostile quota and never released; the
	// ledger absorbs it, the crash reclaims it.
	hostile := &chaos.HostileTenant{Lib: mal.LibOS, Pool: mal.Catnip.Pool(), Node: mal, Sink: c.AddrOf(sinkNode, 9)}
	eng := chaos.New(46).Rampage(0, 40*time.Millisecond, "mal", hostile)
	eng.Start()

	var hostileA, hostileB []Lat
	for i := 100; len(hostileA) < 100 || !eng.Done(); i++ {
		eng.Step()
		la, lb := step(i)
		hostileA, hostileB = append(hostileA, la), append(hostileB, lb)
	}
	leaked := hostile.Stop()

	// Quiesce: drain the wire and every ring so conservation can be
	// read at a fixed point.
	c.Quiesce(100 * time.Millisecond)

	// The schedule must have fired completely: flood, leak, crash.
	if fired := eng.Fired(); len(fired) != 3 {
		t.Fatalf("schedule fired %d/3 events: %v", len(fired), fired)
	}
	if !mal.Crashed() {
		t.Fatal("hostile tenant is not dead")
	}

	// Isolation, latency half: the victims' tail moved by at most 2x.
	for _, v := range []struct {
		name           string
		quiet, hostile []Lat
	}{
		{"vic-a", quietA, hostileA},
		{"vic-b", quietB, hostileB},
	} {
		q, h := latP99(v.quiet), latP99(v.hostile)
		if h > 2*q {
			t.Errorf("victim %s p99 under hostile tenant: %d ns > 2x quiet %d ns", v.name, h, q)
		}
	}

	// Containment: the flood was actually hostile (it overran the rate
	// cap and was dropped at the hostile tenant's own staging ring, not
	// on the shared link) and the leak actually leaked.
	malGrp := mal.Catnip.Group()
	if malGrp.Stats().ThrottleDrops == 0 {
		t.Error("flood never hit the hostile tenant's rate cap: fault did not bite")
	}
	if leaked == 0 {
		t.Error("leak acquired no frames: fault did not bite")
	}

	// Reclamation: the dead tenant holds zero quota, courtesy of the
	// device-side ledger reclaim at crash time.
	if frames, bytes := mal.Tenant.Ledger.Outstanding(); frames != 0 || bytes != 0 {
		t.Errorf("hostile quota not reclaimed: %d frames / %d bytes outstanding", frames, bytes)
	}
	if count, _, _ := mal.Tenant.Ledger.Reclaims(); count == 0 {
		t.Error("crash never ran ledger reclamation")
	}

	// No victim buffer leaked: at rest a victim's frame pools hold the
	// values its store keeps (a SET keeps the buffer it was popped into)
	// and nothing else.
	for _, v := range []struct {
		n   *Node
		srv *kv.ShardedServer
	}{{vicA, srvA}, {vicB, srvB}} {
		var out int64
		for i := 0; i < v.n.Sharded.Set.Capacity(); i++ {
			out += v.n.Sharded.Set.Shard(i).Pool().Outstanding()
		}
		if out != int64(v.srv.Len()) {
			t.Errorf("victim %s: %d pool buffers out at rest, %d values stored", v.n.Tenant.ID, out, v.srv.Len())
		}
	}

	// Per-tenant frame conservation, including across the hostile
	// tenant's crash (its ingested-but-dead frames sit in RxFlushed), and
	// the whole shared device's port-level law: delivered == ingested +
	// ring-dropped + filter-dropped + unowned.
	if err := c.Conservation(); err != nil {
		t.Error(err)
	}
	if !c.FabricLawApplies() {
		t.Logf("fabric law skipped on a %d-port switch: NIC and node laws only", c.Switch.NumPorts())
	}
}
