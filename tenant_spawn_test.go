package demikernel

// WithTenant spawn-surface tests: tenant nodes come up as queue groups
// on the cluster's one shared NIC, keep full TCP service to outside
// clients, reject identity collisions, and crash without taking the
// shared device's link (and therefore their neighbors) down with them.

import (
	"bytes"
	"errors"
	"testing"

	"demikernel/internal/core"
)

func TestSpawnWithTenant(t *testing.T) {
	c := NewCluster(81)

	srv := c.MustSpawn(Catnip, WithHost(1), WithTenant("alpha", TenantPolicy{
		FrameQuotaBytes: 1 << 20,
		TxWeight:        2,
	}))
	if srv.Tenant == nil || srv.Tenant.ID != "alpha" {
		t.Fatalf("tenant identity not attached: %+v", srv.Tenant)
	}
	if srv.Catnip.Group() == nil {
		t.Fatal("tenant transport is not bound to a queue group")
	}
	if got, ok := c.Tenants().Get("alpha"); !ok || got != srv.Tenant {
		t.Fatal("tenant not registered in the cluster registry")
	}

	// A plain client on its own dedicated NIC talks to the tenant
	// exactly as it would to a whole-device node.
	cli := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()
	echoOnce(t, cli, cqd, srv, sqd, "tenant slice of a shared NIC")

	// The tenant's traffic was charged against its own ledger and fully
	// credited back as frames were consumed or released.
	if frames, bytes := srv.Tenant.Ledger.Outstanding(); frames < 0 || bytes < 0 {
		t.Fatalf("ledger went negative: %d frames / %d bytes", frames, bytes)
	}

	// A second, sharded tenant claims its own contiguous queues on the
	// same device.
	srv2 := c.MustSpawn(Catnip, WithHost(3), WithShards(2),
		WithTenant("beta", TenantPolicy{TxWeight: 1}))
	if srv2.Sharded == nil || srv2.Sharded.Set.Group() == nil {
		t.Fatalf("sharded tenant shape: %+v", srv2)
	}
	if q := srv2.Sharded.Set.Group().NumRxQueues(); q != 2 {
		t.Fatalf("sharded tenant owns %d queues, want 2", q)
	}
	if srv2.Catnip.Device() != srv.Catnip.Device() {
		t.Fatal("tenants spawned on different devices, want one shared NIC")
	}
}

func TestSpawnWithTenantRejectsMisuse(t *testing.T) {
	c := NewCluster(82)
	if _, err := c.Spawn(Catnap, WithHost(1), WithTenant("a", TenantPolicy{})); !errors.Is(err, core.ErrNotSupported) {
		t.Fatalf("WithTenant on catnap = %v, want ErrNotSupported", err)
	}
	c.MustSpawn(Catnip, WithHost(1), WithTenant("a", TenantPolicy{}))
	if _, err := c.Spawn(Catnip, WithHost(2), WithTenant("a", TenantPolicy{})); err == nil {
		t.Fatal("duplicate tenant ID spawned")
	}
}

func TestTenantCrashSparesNeighbors(t *testing.T) {
	c := NewCluster(83)
	a := c.MustSpawn(Catnip, WithHost(1), WithTenant("a", TenantPolicy{}))
	b := c.MustSpawn(Catnip, WithHost(2), WithTenant("b", TenantPolicy{}))
	cli := c.MustSpawn(Catnip, WithHost(3))

	cqd, sqd, cleanup := connectNodes(t, c, cli, b, 80)
	defer cleanup()
	echoOnce(t, cli, cqd, b, sqd, "before the crash")

	// Tenant a dies. The shared NIC's link must stay up — b is serving
	// through the same port.
	if _, err := a.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if !c.Switch.LinkUp(a.Catnip.Device().PortID()) {
		t.Fatal("tenant crash cut the shared NIC's link")
	}
	echoOnce(t, cli, cqd, b, sqd, "after the crash")

	// Device-side reclamation: the dead tenant holds no quota.
	if frames, bytes := a.Tenant.Ledger.Outstanding(); frames != 0 || bytes != 0 {
		t.Fatalf("crashed tenant still holds %d frames / %d bytes", frames, bytes)
	}
	if count, _, _ := a.Tenant.Ledger.Reclaims(); count == 0 {
		t.Fatal("crash did not run ledger reclamation")
	}

	// And the corpse comes back on the same queues, MAC, and IP.
	if err := a.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	cqd2, sqd2, cleanup2 := connectNodes(t, c, cli, a, 81)
	defer cleanup2()
	echoOnce(t, cli, cqd2, a, sqd2, "reborn tenant")
}

// TestTenantAllocSGAIsCharged: a tenant node's AllocSGA buffers are frame
// memory, charged to its ledger. Past FrameQuotaBytes they come back
// heap-backed and still push; the ledger reads 0 after Free and after
// Crash.
func TestTenantAllocSGAIsCharged(t *testing.T) {
	c := NewCluster(84)
	ten := c.MustSpawn(Catnip, WithHost(1), WithTenant("alloc", TenantPolicy{FrameQuotaBytes: 8 << 10}))
	ledger := ten.Tenant.Ledger
	s := ten.AllocSGA(1000)
	if f, b := ledger.Outstanding(); f != 1 || b != 2048 {
		t.Fatalf("one AllocSGA(1000) charged %d frames / %d bytes, want 1 / 2048 (class-rounded)", f, b)
	}
	s.Free()
	if f, b := ledger.Outstanding(); f != 0 || b != 0 {
		t.Fatalf("after Free: %d frames / %d bytes charged", f, b)
	}

	var full []SGA
	for i := 0; i < 4; i++ {
		full = append(full, ten.AllocSGA(2000)) // 4 x 2048: the whole quota
	}
	over := ten.AllocSGA(2000)
	if _, b := ledger.Outstanding(); b != 8<<10 || ledger.Denials() != 1 || over.Len() != 2000 {
		t.Fatalf("past the quota: %d bytes charged, %d denials, %d bytes handed out; want %d, 1, 2000", b, ledger.Denials(), over.Len(), 8<<10)
	}
	for i := range full {
		full[i].Free()
	}
	msg := bytes.Repeat([]byte("heap"), 500)
	copy(over.Segments[0].Buf, msg)
	srv := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, ten, srv, 80)
	defer cleanup()
	if _, err := ten.BlockingPush(cqd, over); err != nil {
		t.Fatalf("heap-backed push: %v", err)
	}
	over.Free()
	comp, err := srv.BlockingPop(sqd)
	if err != nil || !bytes.Equal(comp.SGA.Bytes(), msg) {
		t.Fatalf("heap-backed push arrived as %d bytes, %v", comp.SGA.Len(), err)
	}
	comp.SGA.Free()

	held := ten.AllocSGA(1000)
	if _, err := ten.Crash(); err != nil {
		t.Fatal(err)
	}
	if f, b := ledger.Outstanding(); f != 0 || b != 0 {
		t.Fatalf("after Crash: %d frames / %d bytes charged", f, b)
	}
	held.Free() // late: the credit clamps at zero
	if f, b := ledger.Outstanding(); f != 0 || b != 0 {
		t.Fatalf("after a late Free: %d frames / %d bytes charged", f, b)
	}
}
