package shard

import (
	"fmt"
	"sync/atomic"

	"demikernel/internal/telemetry"
)

// Op tags a cross-shard message with its purpose.
type Op int

// Cross-shard message kinds.
const (
	// OpForward carries a request that RSS delivered to a shard which
	// does not own the key: the receiving shard executes it and answers
	// with OpReply. Rare by construction (clients that align their
	// source ports with the keyspace partition never trigger it).
	OpForward Op = iota
	// OpReply answers an OpForward.
	OpReply
	// OpControl carries a control-plane request (stats, drain, config).
	OpControl
	// OpMigrate ships one key/value record to its owner under a new
	// keyspace generation during an elastic reshard. Because each edge
	// is a FIFO SPSC ring, a migrate record enqueued before any later
	// forward on the same (old-owner → new-owner) edge is consumed
	// first — the ordering the reshard handoff's correctness rests on.
	OpMigrate
)

// Msg is one cross-shard message. Payload stays opaque to the mesh; Seq
// lets the sender match replies to forwards.
type Msg struct {
	From    int
	Op      Op
	Seq     uint64
	Payload any
}

// workerStats holds one shard's mesh counters, padded so two shards'
// counters never share a cache line.
type workerStats struct {
	sent     atomic.Int64
	received atomic.Int64
	dropped  atomic.Int64         // sends rejected because the target ring was full
	_        [cacheLine - 24]byte //nolint:unused // pad
}

// Group is an any-to-any mesh of SPSC rings connecting n shard workers:
// one dedicated bounded ring per ordered (from, to) pair, so every edge
// has exactly one producer and one consumer and no send or receive ever
// takes a lock. With n shards the mesh is n² rings; n is small (a shard
// per core) so the footprint is trivial, and the payoff is that the
// *only* shared cache lines between two steady-state shards are the
// head/tail words of rings they actually exchange messages on.
type Group struct {
	n     int
	rings [][]*Ring[Msg] // rings[from][to]; rings[i][i] is nil
	stats []*workerStats
}

// NewGroup builds a mesh for n workers with per-edge ring capacity cap
// (0 means 256).
func NewGroup(n, cap int) *Group {
	if n <= 0 {
		panic("shard: group size must be positive")
	}
	if cap <= 0 {
		cap = 256
	}
	g := &Group{
		n:     n,
		rings: make([][]*Ring[Msg], n),
		stats: make([]*workerStats, n),
	}
	for i := 0; i < n; i++ {
		g.rings[i] = make([]*Ring[Msg], n)
		g.stats[i] = &workerStats{}
		for j := 0; j < n; j++ {
			if i != j {
				g.rings[i][j] = NewRing[Msg](cap)
			}
		}
	}
	return g
}

// Size returns the number of workers in the mesh.
func (g *Group) Size() int { return g.n }

// Send enqueues m on the (from→to) edge. It reports false when the edge
// ring is full (bounded backpressure) or when from == to (a shard does
// not message itself). Only worker `from` may call Send with that index.
func (g *Group) Send(from, to int, m Msg) bool {
	if from == to {
		return false
	}
	m.From = from
	if !g.rings[from][to].Push(m) {
		g.stats[from].dropped.Add(1)
		return false
	}
	g.stats[from].sent.Add(1)
	return true
}

// Recv drains every inbound edge of worker `to`, appending at most max
// messages (0 = no limit) to dst. Only worker `to` may call it — it is
// the single consumer of all its inbound rings. Edges are drained
// round-robin-by-origin so one chatty peer cannot starve the rest.
func (g *Group) Recv(to int, dst []Msg, max int) []Msg {
	for from := 0; from < g.n; from++ {
		if from == to {
			continue
		}
		r := g.rings[from][to]
		for {
			if max > 0 && len(dst) >= max {
				return dst
			}
			m, ok := r.Pop()
			if !ok {
				break
			}
			g.stats[to].received.Add(1)
			dst = append(dst, m)
		}
	}
	return dst
}

// PendingTo reports the total occupancy of worker to's inbound edges —
// the cheap "is there cross-shard work?" check an idle worker makes
// before committing to a drain.
func (g *Group) PendingTo(to int) int {
	n := 0
	for from := 0; from < g.n; from++ {
		if from != to {
			n += g.rings[from][to].Len()
		}
	}
	return n
}

// RegisterTelemetry lifts per-worker mesh counters into a telemetry
// registry as shard.<i>.xs_sent / xs_received / xs_dropped / xs_pending
// under the given prefix (conventionally "shard").
func (g *Group) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	for i := 0; i < g.n; i++ {
		i := i
		p := fmt.Sprintf("%s.%d", prefix, i)
		r.RegisterFunc(p+".xs_sent", g.stats[i].sent.Load)
		r.RegisterFunc(p+".xs_received", g.stats[i].received.Load)
		r.RegisterFunc(p+".xs_dropped", g.stats[i].dropped.Load)
		r.RegisterFunc(p+".xs_pending", func() int64 { return int64(g.PendingTo(i)) })
	}
}
