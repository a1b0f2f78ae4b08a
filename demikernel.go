// Package demikernel is a Go reproduction of the Demikernel, the
// library-OS architecture for kernel-bypass datacenter servers proposed
// in "I'm Not Dead Yet! The Role of the Operating System in a
// Kernel-Bypass Era" (Zhang et al., HotOS 2019).
//
// The Demikernel abstracts kernel-bypass I/O devices as I/O queues whose
// atomic element is a scatter-gather array. Applications push and pop
// whole elements, receive qtokens for outstanding operations, and collect
// completions with Wait, WaitAny, and WaitAll. Device differences are
// hidden behind library OSes: the same application runs unmodified over a
// simulated kernel socket path (catnap), a simulated DPDK NIC with a
// user-level TCP stack (catnip), a simulated RDMA NIC (catmint), and a
// simulated SPDK NVMe device (catfish).
//
// Because the real hardware is simulated, every device and protocol cost
// is charged explicitly from a documented cost model (package
// internal/simclock), making experiments deterministic. See DESIGN.md for
// the full substitution table and EXPERIMENTS.md for the reproduced
// results.
//
// # Quick start
//
//	cluster := demikernel.NewCluster(1)
//	server := cluster.MustSpawn(demikernel.Catnip, demikernel.WithHost(1))
//	client := cluster.MustSpawn(demikernel.Catnip, demikernel.WithHost(2))
//
//	// Server: socket / bind / listen / accept — Figure 3's control path.
//	sqd, _ := server.Socket()
//	server.Bind(sqd, demikernel.Addr{Port: 80})
//	server.Listen(sqd)
//
//	// Client connects and pushes one atomic element.
//	cqd, _ := client.Socket()
//	go client.Connect(cqd, cluster.AddrOf(server, 80))
//	conn, _ := server.Accept(sqd)
//	qt, _ := client.Push(cqd, demikernel.NewSGA([]byte("hi")))
//	client.Wait(qt)
//
//	// Server pops the whole element — never a fragment.
//	comp, _ := server.BlockingPop(conn)
package demikernel

import (
	"fmt"
	"sync/atomic"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/kernel"
	"demikernel/internal/libos/catfish"
	"demikernel/internal/libos/catmint"
	"demikernel/internal/libos/catnap"
	"demikernel/internal/libos/catnip"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/shard"
	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
	"demikernel/internal/telemetry"
	"demikernel/internal/tenant"
)

// Re-exported core types: the Demikernel system-call surface (Figure 3).
type (
	// LibOS is one Demikernel library-OS instance.
	LibOS = core.LibOS
	// QD is a queue descriptor.
	QD = core.QD
	// Addr names a network endpoint.
	Addr = core.Addr
	// Features is the Table 1 hardware/software feature split.
	Features = core.Features
	// QToken identifies one outstanding queue operation.
	QToken = queue.QToken
	// Completion is the result of one queue operation.
	Completion = queue.Completion
	// SGA is a scatter-gather array, the atomic queue element.
	SGA = sga.SGA
	// CostModel is the virtual cost model behind all simulated devices.
	CostModel = simclock.CostModel
	// Lat is a virtual latency in nanoseconds.
	Lat = simclock.Lat
	// TenantID names one tenant sharing a NIC (see WithTenant).
	TenantID = tenant.ID
	// TenantPolicy is a tenant's resource contract: frame quotas,
	// TX weight and rate limit, and steering bounds (see WithTenant).
	TenantPolicy = tenant.Policy
)

// Re-exported errors.
var (
	ErrBadQD        = core.ErrBadQD
	ErrNotSupported = core.ErrNotSupported
	// ErrWaitTimeout is the sentinel wrapped by every Wait/Accept/Connect
	// deadline error; match it with errors.Is.
	ErrWaitTimeout = core.ErrWaitTimeout
	// ErrPeerDead is the typed verdict that a connection's remote libOS
	// is gone (crash, exhausted retransmit budget, RST). Failover
	// clients match it with errors.Is and redial.
	ErrPeerDead = core.ErrPeerDead
	// ErrLocalReset is the typed error every qtoken pending at
	// Node.Crash time completes with: the local stack died underneath
	// the operation.
	ErrLocalReset = core.ErrLocalReset
)

// NewSGA builds a scatter-gather array over the given segments without
// copying them.
func NewSGA(segs ...[]byte) SGA { return sga.New(segs...) }

// Cluster is a simulated rack: one fabric switch plus the cost model, to
// which nodes running different library OSes attach. It exists so that
// examples and experiments can build multi-host worlds in a few lines.
type Cluster struct {
	Model  CostModel
	Switch *fabric.Switch

	nodes []*Node

	// Multi-tenant plane, created lazily by the first WithTenant spawn:
	// one shared NIC whose queue groups partition among tenants, and the
	// registry fixing each tenant's resource contract at bind time.
	tenants   *tenant.Registry
	sharedNIC *nic.Device
}

// Node binds a LibOS to its simulated host identity on the cluster. Every
// node has one shape, whatever its kind and width: Libs() is its libOSes
// (one per provisioned shard; one, on a kind that has no shards), LibOS is
// the first of them, and Poll, Background, Crash, Restart and
// RegisterTelemetry each walk them all. Clock is the node's one clock,
// made at spawn and kept across SwitchKind: its libOSes' waits, its
// transports' timers and deadlines and its tenant NIC group all read it.
type Node struct {
	*LibOS
	MAC fabric.MAC
	IP  netstack.IPv4Addr

	// Kernel is non-nil on catnap nodes (for counters and files).
	Kernel *kernel.Kernel
	// Catnip is non-nil on catnip nodes (for device/stack access): shard
	// 0's transport.
	Catnip *catnip.Transport
	// Catmint is non-nil on catmint nodes.
	Catmint *catmint.Transport
	// Catfish is non-nil on catfish nodes.
	Catfish *catfish.Transport
	// Sharded is non-nil exactly while Kind() == Catnip, at spawn and after
	// every SwitchKind: the catnip shard set behind this host identity, of
	// capacity 1 unless the node was spawned WithShards.
	Sharded *ShardedNode
	// Tenant is non-nil when the node was spawned WithTenant: its
	// identity, policy, and frame-quota ledger on the shared NIC.
	Tenant *tenant.Tenant

	cluster   *Cluster
	host      byte
	kind      Kind
	cfg       NodeConfig // spawn-time knobs, kept for SwitchKind rebuilds
	libs      []*LibOS   // fixed at spawn; SwitchKind swaps the transport under libs[0]
	gen       atomic.Uint64
	resharder Resharder
}

// NodeConfig identifies a host within a cluster.
type NodeConfig struct {
	// Host is a small integer naming the host; it determines the
	// node's MAC (02:00:00:00:00:<host>) and IP (10.0.0.<host>).
	Host byte
	// PerPacketExtra adds processing cost to every packet on this
	// node's stack (used to model mTCP-style POSIX emulation, §6).
	PerPacketExtra Lat

	// RTO overrides the TCP stack's initial retransmission timeout
	// (catnip and catnap; chaos tests shorten it).
	RTO time.Duration
	// MaxRetransmits overrides the TCP give-up budget (catnip and catnap).
	MaxRetransmits int
	// RxReadyCap bounds buffered-but-unharvested pop completions per
	// endpoint; past it the receive drain parks and the TCP advertised
	// window closes toward the peer, so a slow reader stalls its sender
	// instead of growing an unbounded backlog (catnip and catnap, 0 =
	// unbounded).
	RxReadyCap int

	// OpTimeout bounds how long an RDMA operation may stay in flight
	// before the peer is declared dead (catmint only; negative
	// disables).
	OpTimeout time.Duration
}

// NewCluster creates a cluster with deterministic fault injection seeded
// by seed.
func NewCluster(seed int64) *Cluster {
	return NewClusterWithModel(seed, simclock.Datacenter2019())
}

// NewClusterWithModel creates a cluster charging costs from a custom cost
// model — the hook the ablation experiments use to sweep individual cost
// parameters (syscall price, copy bandwidth, ...).
func NewClusterWithModel(seed int64, model CostModel) *Cluster {
	c := &Cluster{Model: model}
	c.Switch = fabric.NewSwitch(&c.Model, seed)
	return c
}

func (c *Cluster) mac(host byte) fabric.MAC {
	return fabric.MAC{0x02, 0, 0, 0, 0, host}
}

func (c *Cluster) ip(host byte) netstack.IPv4Addr {
	return netstack.IP(10, 0, 0, host)
}

// Kind names a library OS a Cluster can spawn. The same application
// code runs over every kind (§4.1); the kind decides which simulated
// device the node's queues are backed by.
type Kind string

// The four library OSes of the paper's Figure 2.
const (
	// Catnip is the DPDK-class kind: kernel-bypass NIC + user TCP stack.
	Catnip Kind = "catnip"
	// Catnap is the legacy kind: same wire, kernel socket costs.
	Catnap Kind = "catnap"
	// Catmint is the RDMA kind.
	Catmint Kind = "catmint"
	// Catfish is the storage kind (simulated SPDK NVMe).
	Catfish Kind = "catfish"
)

// spawnSpec accumulates functional options for Spawn.
type spawnSpec struct {
	cfg      NodeConfig
	hostSet  bool
	shards   int
	capacity int
	reg      *telemetry.Registry
	blocks   int
	disk     *spdk.Device

	hasTenant    bool
	tenantID     tenant.ID
	tenantPolicy tenant.Policy
}

// SpawnOption configures one Spawn call.
type SpawnOption func(*spawnSpec)

// WithHost names the node's host identity (MAC 02:00:00:00:00:<h>, IP
// 10.0.0.<h>). It overrides any Host carried by WithConfig.
func WithHost(h byte) SpawnOption {
	return func(s *spawnSpec) { s.cfg.Host = h; s.hostSet = true }
}

// WithConfig carries the long tail of per-node knobs (RTO, retransmit
// budgets, RDMA timeouts...). A later WithHost still wins
// for the host identity.
func WithConfig(cfg NodeConfig) SpawnOption {
	return func(s *spawnSpec) {
		host, set := s.cfg.Host, s.hostSet
		s.cfg = cfg
		if set {
			s.cfg.Host = host
		}
	}
}

// WithShards spawns the catnip node as an n-shard share-nothing runtime
// (one RSS queue, netstack, completer, and frame pool per shard). The
// returned Node's LibOS is shard 0; Node.Libs() is all of them. Without
// it a catnip node has one shard, and WithShards(1) is that same node —
// on every kind; only Catnip takes more.
func WithShards(n int) SpawnOption {
	return func(s *spawnSpec) { s.shards = n }
}

// WithShardCapacity provisions headroom for elastic resharding: the
// device gets cap receive queues and cap full shard verticals, but only
// WithShards(n) of them are active at spawn. Reshard can then move the
// active width anywhere in [1, cap] live. cap below the shard count is
// ignored. Only meaningful on a non-tenant Catnip node.
func WithShardCapacity(cap int) SpawnOption {
	return func(s *spawnSpec) { s.capacity = cap }
}

// WithTelemetry registers the node's whole vertical (NIC, stack(s),
// lifecycle counters) in reg under "host<N>" as it is spawned
// (Node.RegisterTelemetry).
func WithTelemetry(reg *telemetry.Registry) SpawnOption {
	return func(s *spawnSpec) { s.reg = reg }
}

// WithTenant spawns the catnip node as one tenant of the cluster's
// shared NIC instead of giving it a dedicated device — the paper's §3/§7
// protection scenario: untrusting applications on one kernel-bypass
// NIC, isolated by the control plane, not by trust.
//
// At spawn time the tenant is registered under id with pol fixed for
// its lifetime, a queue group on the shared NIC is claimed (one queue
// per shard), the tenant's frame pools are tagged with its ID and
// charged against its quota ledger, and its TX path joins the NIC's
// weighted-deficit-round-robin scheduler. Zero-valued policy fields
// mean unbounded/default; empty steering bounds default to exactly the
// node's own MAC/IP. Only meaningful for the Catnip kind.
func WithTenant(id string, pol TenantPolicy) SpawnOption {
	return func(s *spawnSpec) {
		s.hasTenant = true
		s.tenantID = tenant.ID(id)
		s.tenantPolicy = pol
	}
}

// WithBlocks sets the capacity (in blocks) of the fresh NVMe namespace
// a Catfish node is spawned over (0 = default).
func WithBlocks(n int) SpawnOption {
	return func(s *spawnSpec) { s.blocks = n }
}

// WithDisk spawns the Catfish node over an existing device, recovering
// any log it carries (restart scenarios). Overrides WithBlocks.
func WithDisk(dev *spdk.Device) SpawnOption {
	return func(s *spawnSpec) { s.disk = dev }
}

// Spawn attaches a node running the given library OS to the cluster —
// the one construction surface behind which every per-kind constructor
// now lives. Typical calls:
//
//	srv, _ := c.Spawn(demikernel.Catnip, demikernel.WithHost(1))
//	kv8, _ := c.Spawn(demikernel.Catnip, demikernel.WithHost(1), demikernel.WithShards(8))
//	old, _ := c.Spawn(demikernel.Catnap, demikernel.WithHost(3))
//	dsk, _ := c.Spawn(demikernel.Catfish, demikernel.WithBlocks(1<<16))
//
// Spawn fails only for an unknown kind, an option that the kind cannot
// honor, or a catfish device whose log cannot be recovered.
func (c *Cluster) Spawn(kind Kind, opts ...SpawnOption) (*Node, error) {
	var sp spawnSpec
	for _, o := range opts {
		o(&sp)
	}
	if sp.shards > 1 && kind != Catnip {
		return nil, fmt.Errorf("demikernel: WithShards is %w for %s nodes", core.ErrNotSupported, kind)
	}
	if sp.hasTenant && kind != Catnip {
		return nil, fmt.Errorf("demikernel: WithTenant on %s nodes: %w", kind, core.ErrNotSupported)
	}
	cfg := sp.cfg
	n := &Node{
		MAC:     c.mac(cfg.Host),
		IP:      c.ip(cfg.Host),
		cluster: c,
		host:    cfg.Host,
	}
	clock := simclock.NewClock()
	// Catnap's sockets are catnip endpoints on a kernel's prices, so both
	// network kinds build their transports from the same configuration.
	ccfg := catnip.Config{
		MAC:            c.mac(cfg.Host),
		IP:             c.ip(cfg.Host),
		PerPacketExtra: cfg.PerPacketExtra,
		RTO:            cfg.RTO,
		MaxRetransmits: cfg.MaxRetransmits,
		RxReadyCap:     cfg.RxReadyCap,
		Clock:          clock,
	}
	switch kind {
	case Catnip:
		sp.shards = max(sp.shards, 1)
		var set *catnip.ShardSet
		if sp.hasTenant {
			if sp.capacity > sp.shards {
				return nil, fmt.Errorf("demikernel: WithShardCapacity on a tenant node: %w", core.ErrNotSupported)
			}
			ten, grp, err := c.spawnTenant(&sp, n, clock)
			if err != nil {
				return nil, err
			}
			n.Tenant = ten
			// Every frame pool this tenant's shards create is tagged with
			// the tenant ID (so misuse panics name the culprit) and
			// charged against the tenant's ledger (so a leak exhausts the
			// leaker, not the device).
			id, ledger := string(ten.ID), ten.Ledger
			ccfg.PoolFactory = func() *fabric.FramePool {
				p := fabric.NewFramePool()
				p.SetOwner(id, ledger)
				return p
			}
			set = catnip.NewShardedOn(&c.Model, grp, ccfg)
		} else {
			set = catnip.NewSharded(&c.Model, c.Switch, ccfg, sp.shards, sp.capacity)
		}
		for i := 0; i < set.Capacity(); i++ {
			n.libs = append(n.libs, core.New(set.Shard(i), &c.Model, clock))
		}
		n.bindSet(set)
	case Catnap:
		t := catnap.New(&c.Model, catnip.NewSharded(&c.Model, c.Switch, ccfg, 1, 1))
		n.libs = []*LibOS{core.New(t, &c.Model, clock)}
		n.Kernel = t.Kernel()
	case Catmint:
		t := catmint.New(&c.Model, c.Switch, catmint.Config{MAC: c.mac(cfg.Host), OpTimeout: cfg.OpTimeout}, clock)
		n.libs = []*LibOS{core.New(t, &c.Model, clock)}
		n.Catmint = t
	case Catfish:
		dev := sp.disk
		if dev == nil {
			dev = spdk.New(&c.Model, spdk.Config{NumBlocks: sp.blocks})
		}
		t, err := catfish.New(&c.Model, dev)
		if err != nil {
			return nil, err
		}
		n.libs = []*LibOS{core.New(t, &c.Model, clock)}
		n.Catfish = t
		n.MAC, n.IP = fabric.MAC{}, netstack.IPv4Addr{}
	default:
		return nil, fmt.Errorf("demikernel: unknown libOS kind %q", kind)
	}
	n.LibOS = n.libs[0]
	n.kind = kind
	n.cfg = cfg
	c.nodes = append(c.nodes, n)
	if sp.reg != nil {
		n.RegisterTelemetry(sp.reg, fmt.Sprintf("host%d", cfg.Host))
	}
	return n, nil
}

// Tenants returns the cluster's tenant registry, creating it on first
// use. Every WithTenant spawn registers here; Observe lifts the same
// ledgers into a registry.
func (c *Cluster) Tenants() *tenant.Registry {
	if c.tenants == nil {
		c.tenants = tenant.NewRegistry()
	}
	return c.tenants
}

// SharedNIC returns the cluster's one multi-tenant NIC, creating it on
// first use: a 32-queue device on the fabric from which WithTenant
// spawns claim contiguous queue groups. Its MAC is a device identity
// only — tenants answer on their own MACs via group ownership.
func (c *Cluster) SharedNIC() *nic.Device {
	if c.sharedNIC == nil {
		c.sharedNIC = nic.New(&c.Model, c.Switch, nic.Config{
			MAC:      fabric.MAC{0x02, 0, 0, 0, 0xff, 0},
			RxQueues: 32,
		})
	}
	return c.sharedNIC
}

// spawnTenant registers the tenant identity and claims its queue group
// on the shared NIC — the bind-time half of isolation: every check that
// could cost per-frame (steering bounds, quota tagging, TX weight) is
// fixed here, before the first packet.
func (c *Cluster) spawnTenant(sp *spawnSpec, n *Node, clock *simclock.Clock) (*tenant.Tenant, *nic.QueueGroup, error) {
	pol := sp.tenantPolicy
	// An empty steering bound means "exactly yourself": the node's own
	// MAC and IP, all ports. Wider bounds must be granted explicitly.
	if len(pol.MACs) == 0 {
		pol.MACs = []fabric.MAC{n.MAC}
	}
	if len(pol.IPs) == 0 {
		pol.IPs = [][4]byte{[4]byte(n.IP)}
	}
	ten, err := c.Tenants().Register(sp.tenantID, pol)
	if err != nil {
		return nil, nil, fmt.Errorf("demikernel: spawn tenant %q: %w", sp.tenantID, err)
	}
	grp, err := c.SharedNIC().NewQueueGroup(string(sp.tenantID), sp.shards, nic.GroupConfig{
		MAC: n.MAC,
		IP:  [4]byte(n.IP),
		Bounds: nic.SteeringBounds{
			MACs:   pol.MACs,
			IPs:    pol.IPs,
			PortLo: pol.PortLo,
			PortHi: pol.PortHi,
		},
		TxWeight:     pol.TxWeight,
		TxRateBps:    pol.TxRateBps,
		TxBurstBytes: pol.TxBurstBytes,
		Clock:        clock,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("demikernel: spawn tenant %q: %w", sp.tenantID, err)
	}
	return ten, grp, nil
}

// MustSpawn is Spawn, panicking on error — for tests, examples, and
// other rigs where a failed spawn is programmer error.
func (c *Cluster) MustSpawn(kind Kind, opts ...SpawnOption) *Node {
	n, err := c.Spawn(kind, opts...)
	if err != nil {
		panic(err)
	}
	return n
}

// RegisterTelemetry lifts the node's whole vertical into a registry
// under prefix. A node of one libOS, whatever its kind, registers flat
// names: prefix.completer.*, prefix.uring.* and its transport's
// (prefix.nic.*, prefix.netstack.*, ... on catnip). A catnip node
// provisioned wider shares prefix.nic.* among its shards and registers
// everything else per shard under prefix.shard.<i>, beside the mesh
// counters prefix.shard.<i>.xs_* and prefix.active_shards.
func (n *Node) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	for i, l := range n.libs {
		p := prefix
		if len(n.libs) > 1 {
			p = fmt.Sprintf("%s.shard.%d", prefix, i)
		}
		l.RegisterTelemetry(r, p)
	}
	if n.Sharded != nil {
		n.Sharded.Set.RegisterTelemetry(r, prefix) // what the shards share
	}
}

// Observe opens a measurement window over the cluster: everything
// reachable from it joins reg — the fabric's counters under "fabric",
// every node's vertical under "host<N>" (the names WithTelemetry(reg)
// gives it) and every tenant's ledger under "tenant.<id>" — and the qtoken
// span table of every libOS of every node is enabled, named
// "host<N> <kind>" on a node of one libOS and "host<N>.shard<i> <kind>" on
// a wider one. The returned function renders what the window saw: each
// registered counter that moved, then each span table.
func (c *Cluster) Observe(reg *telemetry.Registry) (report func() string) {
	c.Switch.RegisterTelemetry(reg, "fabric")
	c.Tenants().RegisterTelemetry(reg, "tenant")
	var spans []*telemetry.SpanTable
	for _, n := range c.nodes {
		n.RegisterTelemetry(reg, fmt.Sprintf("host%d", n.host))
		for i, l := range n.libs {
			name := fmt.Sprintf("host%d %s", n.host, n.kind)
			if len(n.libs) > 1 {
				name = fmt.Sprintf("host%d.shard%d %s", n.host, i, n.kind)
			}
			l.Spans().SetName(name)
			l.Spans().Enable()
			spans = append(spans, l.Spans())
		}
	}
	before := reg.Snapshot()
	return func() string {
		out := "== per-layer counters (delta over the window) ==\n" +
			reg.Snapshot().Diff(before).NonZero().String() + "\n"
		for _, sp := range spans {
			out += sp.Table().String() + "\n"
		}
		return out
	}
}

// ShardedNode is the catnip shard set of a node as a dialer sees it: one
// NIC (with one RSS receive queue per shard), one MAC, one IP — and one
// fully independent libOS per shard, each owning one queue, one netstack and
// one frame pool. Libs[i] is shard i's complete
// Demikernel syscall surface (Node.Libs() returns the same slice); the
// Mesh carries the rare cross-shard traffic.
type ShardedNode struct {
	Set  *catnip.ShardSet
	Libs []*LibOS
	MAC  fabric.MAC
	IP   netstack.IPv4Addr
}

// Mesh returns the cross-shard SPSC message mesh.
func (n *ShardedNode) Mesh() *shard.Group { return n.Set.Mesh() }

// bindSet makes set, whose shards n.libs already run over, the node's
// catnip side.
func (n *Node) bindSet(set *catnip.ShardSet) {
	n.Sharded = &ShardedNode{Set: set, Libs: n.libs, MAC: n.MAC, IP: n.IP}
	n.Catnip = set.Shard(0)
}

// Libs returns the node's libOSes: one per provisioned shard of a catnip
// node, one on every other kind. Servers are staged over all of them —
// kv.Serve(n.Libs(), n.Mesh(), n.Shards(), ...) — whatever the node is.
func (n *Node) Libs() []*LibOS { return n.libs }

// Mesh returns the cross-shard mesh of the node's shard set, nil on the
// kinds that have none.
func (n *Node) Mesh() *shard.Group {
	if n.Sharded == nil {
		return nil
	}
	return n.Sharded.Mesh()
}

// FabricPort returns the switch port ID the node's NIC is attached to
// (catnip and catmint nodes only; -1 otherwise). Chaos schedules use it
// to target link faults at one host.
func (n *Node) FabricPort() int {
	switch {
	case n.Catnip != nil:
		return n.Catnip.Device().PortID()
	case n.Catmint != nil:
		return n.Catmint.Device().PortID()
	}
	return -1
}

// Poll pumps the node's data path once: every libOS it has.
func (n *Node) Poll() int {
	total := 0
	for _, l := range n.libs {
		total += l.Poll()
	}
	return total
}

// Background starts the node's polling goroutines, one per libOS (a
// deployment pins one per core), and returns a function stopping them all.
func (n *Node) Background() (stop func()) {
	stops := make([]func(), 0, len(n.libs))
	for _, l := range n.libs {
		stops = append(stops, l.Background())
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// Crash kills the node the way a process death does (§3: with kernel
// bypass, the TCP state machine, the pinned buffers, and the pending
// qtokens all live in the dying process — so all of them die here):
//
//   - the node's fabric link goes down, so the wire stops delivering to
//     the corpse (frames already in flight are dropped at the switch,
//     counted as LinkDownDrops);
//   - every shard's stack is shut down in place: connections become
//     terminal, listener backlogs die, pooled buffers held by reassembly
//     and datagram queues are released;
//   - every pending qtoken completes immediately with a typed error
//     satisfying errors.Is(err, ErrLocalReset) — nothing hangs;
//   - the NIC receive rings are flushed, releasing frames the dead
//     stack never ingested back to their pools (counted in the nic
//     rx_flushed telemetry bucket, which Cluster.Conservation folds into
//     its third law).
//
// Crash returns the number of operations it failed — each qtoken and
// ring operation pending, once — plus NIC ring frames reclaimed. It is
// idempotent and supported on catnip nodes of every
// width, promoted ones included; other kinds return ErrNotSupported.
func (n *Node) Crash() (int, error) {
	if n.Sharded == nil {
		return 0, fmt.Errorf("demikernel: Crash is %w on this node kind", core.ErrNotSupported)
	}
	if n.Tenant == nil {
		// A tenant node shares its NIC — and therefore its fabric link —
		// with other tenants, so the link must stay up; only a dedicated
		// device's link dies with its owner.
		n.cluster.Switch.SetLinkState(n.FabricPort(), false)
	}
	aborted := n.Sharded.Set.Crash()
	// Flush the completion rings after the transports die: ring operations
	// in flight have already posted their typed-error CQEs and are in the
	// count above, so the flush rewrites, and counts, only completions no
	// one had harvested — each pending op resolves to exactly one
	// ErrLocalReset CQE and is counted once.
	for _, l := range n.libs {
		aborted += l.FlushRings(core.ErrLocalReset)
	}
	if n.Tenant != nil {
		// Device-side reclamation of the dead tenant's quota: whatever
		// frame bytes the corpse still held (leaked, queued, in flight)
		// return to the ledger so the NIC's memory is whole again.
		n.Tenant.Ledger.Reclaim()
	}
	return aborted, nil
}

// Restart reconstitutes a crashed node on the same device, MAC, and IP:
// the fabric link comes back up, every shard gets a fresh netstack,
// shared neighbor entries learned by the dead incarnation are
// generation-invalidated, the application's listening queues are
// re-armed on the fresh stack (LibrettOS-style dynamic re-binding — no
// application restart), and a gratuitous ARP announces the reborn node.
// Established connections stay dead: peers must redial, exactly like
// clients of a restarted server in the real world.
func (n *Node) Restart() error {
	if n.Sharded == nil {
		return fmt.Errorf("demikernel: Restart is %w on this node kind", core.ErrNotSupported)
	}
	if n.Tenant == nil {
		n.cluster.Switch.SetLinkState(n.FabricPort(), true)
	}
	return n.Sharded.Set.Restart()
}

// Crashed reports whether the node is currently down.
func (n *Node) Crashed() bool {
	return n.Sharded != nil && n.Sharded.Set.Crashed()
}

// AddrOf returns the address of node's port, usable from any libOS.
func (c *Cluster) AddrOf(n *Node, port uint16) Addr {
	return Addr{IP: n.IP, MAC: n.MAC, Port: port}
}

// Poll pumps every node's data path once (tests and single-threaded
// drivers use it instead of per-node polling).
func (c *Cluster) Poll() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Poll()
	}
	return total
}

// NewDisk creates a standalone simulated NVMe device on this cluster's
// cost model (for kernel-file-system baselines and restarts).
func (c *Cluster) NewDisk(numBlocks int) *spdk.Device {
	return spdk.New(&c.Model, spdk.Config{NumBlocks: numBlocks})
}

// String summarises the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{%d nodes}", len(c.nodes))
}
