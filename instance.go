// Live reconfiguration of a spawned node, and the dialing surface that
// follows it:
//
//   - Reshard(ctx, m): elastic repartition of a catnip node from its
//     current active width to m, live under load. The device plane
//     re-steers RSS and pins surviving flows (catnip.Resteer), the
//     application plane (registered via SetResharder) migrates its
//     keyspace over the mesh with generation-tagged ownership, and
//     clients ride through on failover redials.
//
//   - SwitchKind(k): live switching of the node between the kernel
//     libOS (catnap) and the bypass libOS (catnip) — the LibrettOS
//     idea in Demikernel terms. Catnap's sockets are catnip endpoints
//     at kernel prices, so a switch changes the prices and leaves every
//     connection, listener and queued operation where it is.
package demikernel

import (
	"context"
	"fmt"
	"runtime"

	"demikernel/internal/core"
	"demikernel/internal/libos/catnap"
	"demikernel/internal/libos/catnip"
)

// Resharder is the application-plane hook Reshard drives: the app
// (e.g. kv.ShardedServer) repartitions its own state when the shard
// width changes. BeginReshard publishes the new generation; Stable
// reports the handoff drained.
type Resharder interface {
	BeginReshard(m int) error
	Stable() bool
}

// SetResharder registers the application-plane participant of this
// node's reshards. Without one, Reshard only re-steers the device plane.
func (n *Node) SetResharder(r Resharder) { n.resharder = r }

// Kind reports the library OS currently backing the node. It changes
// when SwitchKind succeeds.
func (n *Node) Kind() Kind { return n.kind }

// Shards reports the node's ACTIVE shard width: how many of Libs() RSS
// spreads new flows across (1 on the kinds that have no shard set).
func (n *Node) Shards() int {
	if n.Sharded == nil {
		return 1
	}
	return n.Sharded.Set.Size()
}

// Generation counts this node's completed reshards.
func (n *Node) Generation() uint64 { return n.gen.Load() }

// Reshard repartitions the catnip node to m active shards, live under
// load: the application plane (SetResharder) starts its generation-tagged
// keyspace handoff, the device plane pins surviving flows and flips the
// RSS width, and the call blocks until the handoff drains or ctx expires.
// m may grow or shrink the active set anywhere within the provisioned
// capacity (WithShardCapacity; 1 on a plain node); outside it is a range
// error. Kinds with no shard set and tenant nodes return ErrNotSupported.
func (n *Node) Reshard(ctx context.Context, m int) error {
	if n.Sharded == nil {
		return fmt.Errorf("demikernel: Reshard on a %s node: %w", n.kind, core.ErrNotSupported)
	}
	if n.Tenant != nil {
		return fmt.Errorf("demikernel: Reshard on a tenant node: %w", core.ErrNotSupported)
	}
	set := n.Sharded.Set
	if m < 1 || m > set.Capacity() {
		return fmt.Errorf("demikernel: reshard to %d shards outside [1,%d]", m, set.Capacity())
	}
	// Application plane first: by the time RSS lands a flow on a newly
	// activated shard, the keyspace routing already knows the new
	// generation and forwards misplaced requests.
	if r := n.resharder; r != nil {
		if err := r.BeginReshard(m); err != nil {
			return err
		}
	}
	if err := set.Resteer(m); err != nil {
		return err
	}
	n.gen.Add(1)
	if r := n.resharder; r != nil {
		for !r.Stable() {
			if err := ctx.Err(); err != nil {
				return err
			}
			runtime.Gosched()
		}
	}
	return nil
}

// SwitchKind moves the node onto another library OS without dropping
// established connections. Catnap's sockets are catnip endpoints with a
// kernel's prices attached, so a switch between the two changes prices and
// nothing else: the shard's kernel pointer and its stack's per-packet tax
// are set or cleared under the shard lock, the LibOS is pointed at the
// other transport, and every descriptor, connection, listener, timer,
// queued push and parked pop stays where it is. A gratuitous ARP announces
// the (unchanged) binding, as a real migration would. Supported between
// Catnap and Catnip on non-tenant nodes of one libOS with no UDP socket
// open (the kernel path has no datagram surface); everything else is
// ErrNotSupported.
func (n *Node) SwitchKind(k Kind) error {
	if k == n.kind {
		return nil
	}
	if len(n.libs) > 1 {
		return fmt.Errorf("demikernel: SwitchKind on a node of %d shards: %w", len(n.libs), core.ErrNotSupported)
	}
	if n.Tenant != nil {
		return fmt.Errorf("demikernel: SwitchKind on a tenant node: %w", core.ErrNotSupported)
	}
	var set *catnip.ShardSet
	switch {
	case n.kind == Catnap && k == Catnip:
		set = n.LibOS.Transport().(*catnap.Transport).Set()
		set.Shard(0).SetKernel(nil)
		n.LibOS.SwapTransport(set.Shard(0))
		n.bindSet(set)
		n.Kernel = nil
	case n.kind == Catnip && k == Catnap:
		if n.Catnip.HasUDP() {
			return fmt.Errorf("demikernel: SwitchKind with open UDP sockets: %w", core.ErrNotSupported)
		}
		set = n.Sharded.Set
		nap := catnap.New(&n.cluster.Model, set)
		n.LibOS.SwapTransport(nap)
		n.Kernel, n.Catnip, n.Sharded = nap.Kernel(), nil, nil
	default:
		return fmt.Errorf("demikernel: SwitchKind %s→%s: %w", n.kind, k, core.ErrNotSupported)
	}
	n.kind = k
	set.Shard(0).Stack().AnnounceARP()
	return nil
}

// --- Router ---

// Router resolves client connections onto the shards of a catnip peer,
// correctly across reshard generations: every placement decision reads
// the server's CURRENT active width, so a client that routes through it
// after a reshard lands on live shards only.
type Router struct {
	c *Cluster
}

// Router returns the cluster's shard-aware dialing surface.
func (c *Cluster) Router() *Router { return &Router{c: c} }

// DialShard connects a catnip client node to one specific shard of a
// catnip peer (its Node.Sharded, whatever its width), from a source port
// whose flow lands on that shard under the server's current active width;
// seed staggers the port search so concurrent dialers pick distinct ones.
// The caller must keep the server side polling (Background) for the
// handshake to complete. target must name an active shard.
func (r *Router) DialShard(client *Node, srv *ShardedNode, port uint16, target int, seed uint16) (QD, error) {
	active := srv.Set.Size()
	if target < 0 || target >= active {
		return core.InvalidQD, fmt.Errorf("demikernel: dial to shard %d of %d active", target, active)
	}
	ep, err := client.Catnip.SocketFrom(catnip.SourcePortFor(client.IP, srv.IP, port, active, target, seed))
	if err != nil {
		return core.InvalidQD, err
	}
	qd := client.LibOS.AdoptEndpoint(ep)
	if err := client.LibOS.Connect(qd, Addr{IP: srv.IP, MAC: srv.MAC, Port: port}); err != nil {
		client.LibOS.Close(qd)
		return core.InvalidQD, err
	}
	return qd, nil
}

// Dialer returns the dial function a sharded client keeps for srv:port
// (kv.Dial): called with a shard and an attempt number, it connects client
// to that shard of srv — wrapped onto srv's current active width, so that
// a redial aimed at a shard a reshard has since retired lands on a live
// one and the server's mesh forwards — from a source port that differs
// per shard and per attempt, so that a redial never reuses the 4-tuple of
// the connection it replaces. Only a catnip client picks its source port
// and only a catnip server has shards to aim it at; any other pair of
// kinds dials from whatever port the client's stack picks, which is also
// what a catnip server one shard wide gets.
func (r *Router) Dialer(client, srv *Node, port uint16) func(shard, attempt int) (QD, error) {
	return func(shard, attempt int) (QD, error) {
		if client.kind != Catnip || srv.kind != Catnip {
			qd, err := client.Socket()
			if err != nil {
				return core.InvalidQD, err
			}
			if err := client.Connect(qd, r.c.AddrOf(srv, port)); err != nil {
				client.Close(qd)
				return core.InvalidQD, err
			}
			return qd, nil
		}
		return r.DialShard(client, srv.Sharded, port, shard%srv.Shards(), uint16(2048*shard+131*attempt+101))
	}
}
