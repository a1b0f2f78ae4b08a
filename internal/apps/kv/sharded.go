// The server and client: share-nothing and multi-core at any width, with
// a single libOS as the width-1 case (NewServer, NewClient in kv.go). One
// worker per libOS shard owns a disjoint slice of the keyspace and every
// connection RSS steered to its NIC queue, and serves them from a
// serve.Loop: a step harvests its CQ once, and everything it stages —
// responses, the next pop of each connection — goes out as one batch, so
// no worker ever blocks on a completion. The GET/PUT hot path takes no
// lock: the store map, the connection table, and the scratch state are
// all private to the single worker goroutine that touches them. The only
// cross-worker traffic is (a) padded atomic stats the control plane may
// snapshot, and (b) requests that arrive at a shard which does not own
// the key, which ride the bounded lock-free SPSC mesh to the owner and
// come back as replies — rare by construction when clients align their
// source ports with the keyspace partition, but correct always.
package kv

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"demikernel/internal/apps/failover"
	"demikernel/internal/apps/serve"
	"demikernel/internal/core"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/shard"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// KeyShard maps a key to its owning shard: FNV-1a over the key bytes,
// mod n. Deterministic and cheap; clients use it to pick the connection
// (and therefore, via RSS source-port alignment, the core) a request
// should travel to, and servers use it to detect misdirected requests.
func KeyShard(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// ShardStats snapshots one worker's counters.
type ShardStats struct {
	Gets, Sets, Dels int64
	NotFound         int64
	BadRequests      int64
	Connections      int64
	ForwardedOut     int64 // requests this shard relayed to the owner
	ForwardedIn      int64 // requests this shard executed for a sibling
	ForwardDrops     int64 // forwards abandoned because the mesh stayed full
	MigratedOut      int64 // records shipped out during reshards
	MigratedIn       int64 // records received during reshards
	Keys             int64
	BytesStored      int64 // value bytes currently held
	BusyVirtNS       int64 // accumulated virtual busy time (see BusyVirt)
}

// shardCounters is the cross-thread-visible face of a worker, padded so
// the control plane snapshotting shard i never bounces shard i+1's hot
// line.
type shardCounters struct {
	gets, sets, dels atomic.Int64
	notFound         atomic.Int64
	badRequests      atomic.Int64
	forwardedOut     atomic.Int64
	forwardedIn      atomic.Int64
	forwardDrops     atomic.Int64
	migratedOut      atomic.Int64
	migratedIn       atomic.Int64
	keys             atomic.Int64
	bytesStored      atomic.Int64
	busyVirt         atomic.Int64
	_                [64 - 8]byte //nolint:unused // pad to a cache line
}

// fwdReq crosses the mesh from the shard a request landed on toward the
// shard owning its key — possibly via an intermediate hop during a
// reshard. conn is meaningful only to the origin shard; origin names it
// so a multi-hop chain's executor can reply directly. final marks the
// hop authoritative: the receiver executes unconditionally instead of
// forwarding on a miss.
type fwdReq struct {
	conn   core.QD
	origin int
	final  bool
	req    sga.SGA
	cost   simclock.Lat
}

// fwdResp carries the owner's response back to the origin shard, with
// the stored value it reads in place (pin, nil when none).
type fwdResp struct {
	conn core.QD
	resp sga.SGA
	pin  *storedVal
	cost simclock.Lat
}

// shardWorker is one share-nothing server shard. Every field below the
// marker, and its loop, is touched only by the worker's own goroutine.
// Each response push holds the stored value it reads in place (nil for a
// response that reads none) until it completes.
type shardWorker struct {
	*serve.Loop[struct{}, *storedVal]
	idx   int
	n     int // provisioned worker count (mesh size), not the active partition width
	model *simclock.CostModel
	group *shard.Group
	srv   *ShardedServer
	ctr   *shardCounters

	// --- worker-private state: no locks, by construction ---
	store      map[string]*storedVal
	inbox      []shard.Msg
	fwdBacklog []shard.Msg // forwards the mesh rejected; retried next step

	// Reshard sweep state (see reshard.go).
	gen     uint64
	migKeys []string
	migDone bool
}

// ShardedServer runs one KV worker per libOS shard. The keyspace is
// partitioned over the ACTIVE shard count published in topo; workers
// beyond it are provisioned headroom that an elastic reshard can grow
// into (they drain the mesh but own no keys and hold no flows).
type ShardedServer struct {
	workers    []*shardWorker
	group      *shard.Group
	topo       atomic.Pointer[Topology]
	migPending atomic.Int32
}

// maxFwdBacklog bounds how many rejected forwards a worker parks before
// it starts answering StatusError — backpressure must eventually reach
// the client instead of growing an unbounded queue.
const maxFwdBacklog = 256

// NewShardedServer builds an n-shard server, one worker per libOS in
// libs (libs[i] must wrap shard i's transport). group is the cross-shard
// mesh; it must have exactly len(libs) workers.
func NewShardedServer(libs []*core.LibOS, model *simclock.CostModel, group *shard.Group) *ShardedServer {
	return NewShardedServerElastic(libs, model, group, len(libs))
}

// NewShardedServerElastic builds a server with len(libs) provisioned
// workers but only the first `active` participating in the keyspace
// partition — the application half of an elastic shard set. BeginReshard
// moves the active width anywhere in [1, len(libs)] live.
func NewShardedServerElastic(libs []*core.LibOS, model *simclock.CostModel, group *shard.Group, active int) *ShardedServer {
	if group.Size() != len(libs) {
		panic("kv: mesh size does not match shard count")
	}
	if active < 1 || active > len(libs) {
		panic("kv: active shard count outside provisioned range")
	}
	s := &ShardedServer{group: group}
	s.topo.Store(&Topology{Gen: 0, Old: active, New: active})
	for i, lib := range libs {
		w := &shardWorker{
			idx:   i,
			n:     len(libs),
			model: model,
			group: group,
			srv:   s,
			ctr:   &shardCounters{},
			store: make(map[string]*storedVal),
		}
		w.Loop = serve.New(lib, serve.App[struct{}, *storedVal]{
			Accepted: w.onAccept,
			Popped:   w.onPop,
			Release:  (*storedVal).release,
			Work:     w.work,
			Settle:   w.pollTopology,
		})
		s.workers = append(s.workers, w)
	}
	return s
}

// Listen binds every shard's listener to port. Each shard has its own
// netstack, so the same port coexists; RSS decides which stack a SYN
// reaches, which is exactly the accept-distribution policy the paper's
// sharded servers use.
func (s *ShardedServer) Listen(port uint16) error {
	for _, w := range s.workers {
		if err := w.Listen(port); err != nil {
			return err
		}
	}
	return nil
}

// Step runs one non-blocking iteration of shard i's worker — one harvest
// of its ring, one batch submitted — and returns the number of requests it
// progressed. Single-goroutine benchmark
// harnesses drive all shards round-robin through this; Run wraps it in
// one goroutine per shard.
func (s *ShardedServer) Step(i int) int { return s.workers[i].Step() }

// Run starts one goroutine per shard and pumps until stop closes.
func (s *ShardedServer) Run(stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(stop)
		}()
	}
	return &wg
}

// StatsOf snapshots shard i's counters.
func (s *ShardedServer) StatsOf(i int) ShardStats {
	c := s.workers[i].ctr
	return ShardStats{
		Gets:         c.gets.Load(),
		Sets:         c.sets.Load(),
		Dels:         c.dels.Load(),
		NotFound:     c.notFound.Load(),
		BadRequests:  c.badRequests.Load(),
		Connections:  s.workers[i].Accepts(),
		ForwardedOut: c.forwardedOut.Load(),
		ForwardedIn:  c.forwardedIn.Load(),
		ForwardDrops: c.forwardDrops.Load(),
		MigratedOut:  c.migratedOut.Load(),
		MigratedIn:   c.migratedIn.Load(),
		Keys:         c.keys.Load(),
		BytesStored:  c.bytesStored.Load(),
		BusyVirtNS:   c.busyVirt.Load(),
	}
}

// TotalOps sums served requests (GET+SET+DEL) across shards.
func (s *ShardedServer) TotalOps() int64 {
	var n int64
	for i := range s.workers {
		c := s.workers[i].ctr
		n += c.gets.Load() + c.sets.Load() + c.dels.Load()
	}
	return n
}

// BusyVirt returns shard i's accumulated virtual busy time in
// nanoseconds: the modeled single-core cost of everything the shard has
// executed. In a real deployment each shard is pinned to a core, so
// aggregate throughput is bounded by the busiest shard; the scaling
// benchmark computes throughput as TotalOps / max_i(BusyVirt(i)).
func (s *ShardedServer) BusyVirt(i int) int64 { return s.workers[i].ctr.busyVirt.Load() }

// Len returns the total number of stored keys across shards.
func (s *ShardedServer) Len() int {
	n := 0
	for i := range s.workers {
		n += int(s.workers[i].ctr.keys.Load())
	}
	return n
}

// Size returns the shard count.
func (s *ShardedServer) Size() int { return len(s.workers) }

// RegisterTelemetry lifts per-shard KV counters into a registry as
// prefix.<i>.kv_* beside the mesh and stack counters; under a node's
// "host<N>.shard" prefix, demi-stat rolls them up as shard.*.kv_*.
func (s *ShardedServer) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	for i, w := range s.workers {
		p := telemetryPrefix(prefix, i)
		c := w.ctr
		r.RegisterFunc(p+".kv_gets", c.gets.Load)
		r.RegisterFunc(p+".kv_sets", c.sets.Load)
		r.RegisterFunc(p+".kv_fwd_out", c.forwardedOut.Load)
		r.RegisterFunc(p+".kv_fwd_in", c.forwardedIn.Load)
		r.RegisterFunc(p+".kv_migrated_out", c.migratedOut.Load)
		r.RegisterFunc(p+".kv_migrated_in", c.migratedIn.Load)
		r.RegisterFunc(p+".kv_keys", c.keys.Load)
		r.RegisterFunc(p+".kv_busy_virt_ns", c.busyVirt.Load)
	}
	r.RegisterFunc(prefix+".kv_gen", func() int64 { return int64(s.Generation()) })
	r.RegisterFunc(prefix+".kv_active", func() int64 { return int64(s.Active()) })
	r.RegisterFunc(prefix+".kv_migrating", func() int64 {
		if s.Stable() {
			return 0
		}
		return 1
	})
}

func telemetryPrefix(prefix string, i int) string {
	// Avoid fmt on a path that may be registered late; small and clear.
	const digits = "0123456789"
	if i < 10 {
		return prefix + "." + digits[i:i+1]
	}
	return prefix + "." + digits[i/10:i/10+1] + digits[i%10:i%10+1]
}

// --- worker loop ---

// work is the worker's own part of a step, ahead of the harvest: the mesh,
// the forwards it parked, and the migration sweep.
func (w *shardWorker) work() int {
	return w.drainMesh() + w.retryForwards() + w.stepMigration()
}

// conn is a client connection of a worker.
type conn = serve.Conn[struct{}, *storedVal]

// onAccept arms a new connection's pop. A connection has one at a time:
// its client has one request in flight, and a second pop would let a
// request served here answer ahead of an earlier one forwarded over the
// mesh.
func (w *shardWorker) onAccept(c *conn) { w.Pop(c) }

// onPop serves or forwards a fresh request and arms the connection's next
// pop.
func (w *shardWorker) onPop(c *conn, req sga.SGA, cost simclock.Lat) int {
	// A fresh request, not final, originated here.
	w.dispatch(fwdReq{conn: c.QD, origin: w.idx, req: req, cost: cost}, false)
	w.Pop(c)
	return 1
}

// dispatch routes one request — fresh off a connection (offMesh false)
// or relayed by a sibling — per the current topology: execute here, or
// send it one hop closer to the key's current holder. The request is a
// copy, so that only one that travels is on the heap.
func (w *shardWorker) dispatch(f fwdReq, offMesh bool) {
	serveLocal, next, final := true, 0, false
	if key, ok := requestKey(f.req); ok && !f.final {
		serveLocal, next, final = w.route(key)
	} // malformed or marked final: executed here unconditionally
	if serveLocal {
		if f.origin == w.idx && !offMesh {
			// Fully local: the classic one-core fast path.
			resp, pin, retain := w.apply(f.req)
			if !retain {
				f.req.Free()
			}
			w.respond(f.conn, resp, pin, f.cost+w.model.AppRequestNS)
			w.ctr.busyVirt.Add(int64(w.localServeCost()))
			return
		}
		w.executeForward(&f)
		return
	}
	// Misdirected: relay toward the holder. The origin pays the rx/tx
	// stack work; the executor pays the application compute.
	fwd := new(fwdReq)
	*fwd = f
	fwd.final = final
	m := shard.Msg{Op: shard.OpForward, Payload: fwd}
	if offMesh {
		w.ctr.busyVirt.Add(int64(w.meshHopCost()))
	} else {
		w.ctr.busyVirt.Add(int64(w.relayCost()))
	}
	if !w.group.Send(w.idx, next, m) {
		if len(w.fwdBacklog) >= maxFwdBacklog {
			w.ctr.forwardDrops.Add(1)
			f.req.Free()
			w.deliver(fwd, sga.New([]byte(StatusError)), nil)
			return
		}
		m.From = w.idx // Send would have stamped it; keep it for retry
		w.fwdBacklog = append(w.fwdBacklog, m)
		return
	}
	w.ctr.forwardedOut.Add(1)
}

// executeForward applies a relayed request here and delivers the
// response to its origin shard.
func (w *shardWorker) executeForward(f *fwdReq) {
	resp, pin, retain := w.apply(f.req)
	if !retain {
		f.req.Free()
	}
	if f.origin != w.idx {
		w.ctr.forwardedIn.Add(1)
	}
	w.ctr.busyVirt.Add(int64(w.model.AppRequestNS + w.meshHopCost()))
	w.deliver(f, resp, pin)
}

// deliver routes a response, and the value it pins, to the request's
// origin: straight onto the connection when the origin is this worker,
// over the mesh otherwise. A full reply ring parks in the backlog like a
// forward.
func (w *shardWorker) deliver(f *fwdReq, resp sga.SGA, pin *storedVal) {
	if f.origin == w.idx {
		w.respond(f.conn, resp, pin, f.cost+w.model.AppRequestNS)
		return
	}
	r := shard.Msg{Op: shard.OpReply, Payload: &fwdResp{conn: f.conn, resp: resp, pin: pin, cost: f.cost}}
	if !w.group.Send(w.idx, f.origin, r) {
		w.fwdBacklogReply(f.origin, r)
	}
}

// retryForwards replays mesh messages (forwards and replies) that were
// previously rejected by a full edge ring. Forwards re-route from
// scratch: the topology may have moved under a parked request, possibly
// all the way to "this shard now holds it".
func (w *shardWorker) retryForwards() int {
	n := 0
	for len(w.fwdBacklog) > 0 {
		m := w.fwdBacklog[0]
		if m.Op == shard.OpForward {
			f := m.Payload.(*fwdReq)
			serveLocal, next, final := true, 0, false
			if key, ok := requestKey(f.req); ok && !f.final {
				serveLocal, next, final = w.route(key)
			}
			if serveLocal {
				w.popBacklogHead()
				w.executeForward(f)
				n++
				continue
			}
			f.final = final
			if !w.group.Send(w.idx, next, m) {
				break
			}
			w.ctr.forwardedOut.Add(1)
		} else {
			if !w.group.Send(w.idx, int(m.Seq), m) { // replies carry their destination in Seq
				break
			}
		}
		w.popBacklogHead()
		n++
	}
	return n
}

func (w *shardWorker) popBacklogHead() {
	k := copy(w.fwdBacklog, w.fwdBacklog[1:])
	w.fwdBacklog[k] = shard.Msg{}
	w.fwdBacklog = w.fwdBacklog[:k]
}

// drainMesh absorbs cross-shard messages: forwards to route or execute,
// replies to deliver, migrate records to adopt.
func (w *shardWorker) drainMesh() int {
	if w.group.PendingTo(w.idx) == 0 {
		return 0
	}
	w.inbox = w.group.Recv(w.idx, w.inbox[:0], 64)
	for _, m := range w.inbox {
		switch m.Op {
		case shard.OpForward:
			w.dispatch(*m.Payload.(*fwdReq), true)
		case shard.OpReply:
			f := m.Payload.(*fwdResp)
			w.ctr.busyVirt.Add(int64(w.meshHopCost()))
			w.respond(f.conn, f.resp, f.pin, f.cost+w.model.AppRequestNS)
		case shard.OpMigrate:
			r := m.Payload.(*migRec)
			w.ctr.busyVirt.Add(int64(w.meshHopCost()))
			w.ctr.migratedIn.Add(1)
			if _, exists := w.store[r.key]; exists {
				// An authoritative write for this key already landed here
				// (it must have trailed the migrate on some path that
				// raced ahead); the stored value is newer. Drop the copy.
				r.val.release()
				continue
			}
			w.store[r.key] = r.val
			w.ctr.keys.Add(1)
			w.ctr.bytesStored.Add(int64(len(r.val.val)))
		}
	}
	return len(w.inbox)
}

// fwdBacklogReply parks a reply that could not be sent. Replies share the
// forward backlog, told apart by their Op; retryForwards cannot re-route
// them by key, so they carry their destination in Seq.
func (w *shardWorker) fwdBacklogReply(to int, m shard.Msg) {
	if len(w.fwdBacklog) >= maxFwdBacklog {
		// Drop: the origin's client will time out and retry. Counted so
		// the chaos tests can assert this never fires in a healthy run.
		w.ctr.forwardDrops.Add(1)
		m.Payload.(*fwdResp).pin.release()
		return
	}
	m.Seq = uint64(to)
	m.From = w.idx
	w.fwdBacklog = append(w.fwdBacklog, m)
}

// requestKey decodes just enough of a request to find its key; ok is
// false for malformed requests (answered locally with an error).
func requestKey(req sga.SGA) (string, bool) {
	if len(req.Segments) < 2 {
		return "", false
	}
	return string(req.Segments[1].Buf), true
}

// respond stages resp as a push on conn, which holds pin — the stored
// value a GET response reads in place, or nil — until it completes. A
// connection dropped meanwhile gets no response, and pin goes at once.
func (w *shardWorker) respond(conn core.QD, resp sga.SGA, pin *storedVal, cost simclock.Lat) {
	c := w.Conn(conn)
	if c == nil {
		pin.release()
		return
	}
	w.Push(c, resp, cost, pin)
}

// localServeCost is the modeled single-core cost of one fully local
// request: syscall in/out, user netstack rx/tx, NIC rx/tx, app compute.
func (w *shardWorker) localServeCost() simclock.Lat {
	m := w.model
	return 2*(m.SyscallNS+m.UserNetStackNS+m.NICProcessNS) + m.AppRequestNS
}

// relayCost is the origin-side cost of a misdirected request: the same
// stack traversal, but the app compute happens at the owner.
func (w *shardWorker) relayCost() simclock.Lat {
	m := w.model
	return 2*(m.SyscallNS+m.UserNetStackNS+m.NICProcessNS) + w.meshHopCost()
}

// meshHopCost models one SPSC-ring hop (enqueue + cross-core cache miss
// on the consumer side) as a syscall-scale event.
func (w *shardWorker) meshHopCost() simclock.Lat { return w.model.SyscallNS }

// apply executes one decoded request against this worker's private
// store and returns the response. pin is the stored value a GET response
// reads in place, pinned for the response: whoever pushes it releases the
// pin at the push's completion. retain reports whether the store kept the
// request SGA's buffers (a SET stores the value segment in place — the
// zero-copy pointer swap, which needs no synchronisation because one
// goroutine owns the store).
func (w *shardWorker) apply(req sga.SGA) (resp sga.SGA, pin *storedVal, retain bool) {
	segs := req.Segments
	if len(segs) < 2 {
		w.ctr.badRequests.Add(1)
		return sga.New([]byte(StatusError)), nil, false
	}
	op := string(segs[0].Buf)
	key := string(segs[1].Buf)
	switch op {
	case OpGet:
		sv, ok := w.store[key]
		w.ctr.gets.Add(1)
		if !ok {
			w.ctr.notFound.Add(1)
			return sga.New([]byte(StatusNotFound)), nil, false
		}
		// Zero-copy: the stored buffer itself is the response segment.
		return sga.New([]byte(StatusOK), sv.val), sv.pin(), false
	case OpSet:
		if len(segs) < 3 {
			w.ctr.badRequests.Add(1)
			return sga.New([]byte(StatusError)), nil, false
		}
		old, had := w.store[key]
		w.store[key] = newStoredVal(req, segs[2].Buf)
		w.ctr.sets.Add(1)
		w.ctr.bytesStored.Add(int64(len(segs[2].Buf)))
		if had {
			w.ctr.bytesStored.Add(-int64(len(old.val)))
			old.release() // the swapped-out buffer goes back to the pool
		} else {
			w.ctr.keys.Add(1)
		}
		return sga.New([]byte(StatusOK)), nil, true
	case OpDel:
		old, had := w.store[key]
		delete(w.store, key)
		w.ctr.dels.Add(1)
		if had {
			w.ctr.keys.Add(-1)
			w.ctr.bytesStored.Add(-int64(len(old.val)))
			old.release()
			return sga.New([]byte(StatusOK)), nil, false
		}
		return sga.New([]byte(StatusNotFound)), nil, false
	default:
		w.ctr.badRequests.Add(1)
		return sga.New([]byte(StatusError)), nil, false
	}
}

// --- sharded client ---

// ShardedClient talks to a ShardedServer over one failover.Conn per
// server shard. The dialer (supplied by the facade, which knows the
// transport's RSS function) must return a connection whose flow lands on
// the given shard; Get/Set/Del then route each key over the connection
// of its owning shard, so in steady state no request crosses a server
// core.
//
// With EnableFailover it survives server death: a retriable typed error
// (ErrPeerDead, ErrLocalReset) on any per-shard connection triggers
// jittered backoff, a redial of that shard's Conn only, and a replay of
// the in-flight idempotent operation — the availability loop the
// kernel's connection repair used to hide. The redial dialer receives
// the attempt number so it can vary the source-port seed and avoid
// colliding with the dead connection's 4-tuple in TIME_WAIT-less bypass
// stacks. Each Conn counts the answers it owes, so a request never takes
// the late answer of one whose push timed out.
type ShardedClient struct {
	failover.Replayer
	lib *core.LibOS

	// mu guards the elastic width: conns changes under Resize, which may
	// race in-flight operations on another goroutine. Operations resolve
	// their Conn under RLock and clamp stale shard indices to the current
	// width — a misdirected request stays correct because the server mesh
	// forwards it.
	mu    sync.RWMutex
	conns []*failover.Conn

	redialFn func(shard, attempt int) (core.QD, error)
}

// connAt resolves a (possibly stale) shard index against the current
// width: shard i's Conn, i clamped to [0,n).
func (c *ShardedClient) connAt(i int) *failover.Conn {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.conns[i%len(c.conns)]
}

// NewShardedClient dials one flow per server shard using dial.
func NewShardedClient(lib *core.LibOS, n int, dial func(shard int) (core.QD, error)) (*ShardedClient, error) {
	c := &ShardedClient{lib: lib}
	if err := c.Resize(n, dial); err != nil {
		return nil, err
	}
	return c, nil
}

// EnableFailover arms per-shard redial-and-replay: on a retriable typed
// error the owning shard's connection is redialed via dial (attempt
// starts at 1 and increments per redial of that shard, letting the
// dialer rotate source-port seeds) and the operation replays —
// GET/SET/DEL are idempotent, so replay is safe. A nil dial keeps the
// dialer Connect installs (call order does not matter).
func (c *ShardedClient) EnableFailover(pol failover.Policy, dial func(shard, attempt int) (core.QD, error)) {
	c.Replayer.EnableFailover(pol)
	if dial != nil {
		c.redialFn = dial
	}
}

// roundTrip exchanges req on shard i's connection, redialing that shard
// and replaying under an armed policy. Every attempt re-resolves the
// Conn: a concurrent Resize may have shrunk the width, retiring the shard
// the op was aimed at. FailoverStats counts across all shards.
func (c *ShardedClient) roundTrip(i int, req sga.SGA) (resp sga.SGA, cost simclock.Lat, err error) {
	var redial func() error
	if c.redialFn != nil {
		redial = func() error { return c.connAt(i).Redial() }
	}
	err = c.Replay(c.lib, func() (err error) {
		conn := c.connAt(i)
		resp, cost, err = conn.Exchange(req, 0)
		if errors.Is(err, core.ErrBadQD) && c.retired(conn) {
			// A concurrent Resize closed conn while the op used it: the
			// descriptor was good when the op took it, so this is a dead
			// connection to replay past, not a bug.
			err = queue.ErrClosed
		}
		return err
	}, redial)
	return resp, cost, err
}

// retired reports whether conn is no longer one of the client's
// connections.
func (c *ShardedClient) retired(conn *failover.Conn) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return !slices.Contains(c.conns, conn)
}

// owner hashes key over the client's current shard width.
func (c *ShardedClient) owner(key string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return KeyShard(key, len(c.conns))
}

// Get fetches key from its owning shard; found is false on
// StatusNotFound.
func (c *ShardedClient) Get(key string) (val []byte, cost simclock.Lat, found bool, err error) {
	return c.get(c.owner(key), key)
}

// GetOn fetches key via shard conn's connection regardless of owner —
// the misdirection the forwarding path exists for. Tests and the scaling
// benchmark's "unaligned client" mode use it.
func (c *ShardedClient) GetOn(conn int, key string) (val []byte, found bool, err error) {
	val, _, found, err = c.get(conn, key)
	return val, found, err
}

func (c *ShardedClient) get(conn int, key string) (val []byte, cost simclock.Lat, found bool, err error) {
	resp, cost, err := c.roundTrip(conn, sga.New([]byte(OpGet), []byte(key)))
	if err != nil {
		return nil, 0, false, err
	}
	// The response is a pooled buffer of the libOS: the value is copied
	// out so that the buffer can go back, not stay charged to this node
	// (on a shared NIC, to its tenant's quota) for as long as the caller
	// keeps the value.
	defer resp.Free()
	switch string(resp.Segments[0].Buf) {
	case StatusOK:
		if resp.NumSegments() < 2 {
			return nil, cost, false, ErrBadRequest
		}
		return bytes.Clone(resp.Segments[1].Buf), cost, true, nil
	case StatusNotFound:
		return nil, cost, false, nil
	default:
		return nil, cost, false, ErrBadRequest
	}
}

// Set stores key=val on its owning shard. The value segment travels and
// is stored zero-copy.
func (c *ShardedClient) Set(key string, val []byte) (simclock.Lat, error) {
	return c.SetOn(c.owner(key), key, val)
}

// SetOn stores key=val via shard conn's connection regardless of the
// key's owner (see GetOn).
func (c *ShardedClient) SetOn(conn int, key string, val []byte) (simclock.Lat, error) {
	resp, cost, err := c.roundTrip(conn, sga.New([]byte(OpSet), []byte(key), val))
	if err != nil {
		return 0, err
	}
	defer resp.Free()
	if string(resp.Segments[0].Buf) != StatusOK {
		return cost, ErrBadRequest
	}
	return cost, nil
}

// Del removes key from its owning shard.
func (c *ShardedClient) Del(key string) (bool, error) {
	resp, _, err := c.roundTrip(c.owner(key), sga.New([]byte(OpDel), []byte(key)))
	if err != nil {
		return false, err
	}
	defer resp.Free()
	return string(resp.Segments[0].Buf) == StatusOK, nil
}

// Resize re-partitions the client onto n server shards: new shards are
// dialed, surplus connections closed, and subsequent Get/Set/Del calls
// hash keys over the new width. Safe to call lazily after a server
// reshard — a stale client stays correct in the meantime because the
// server's mesh forwarding absorbs misdirected requests; Resize just
// restores the zero-forward steady state. A nil dial is the dialer the
// client was staged with (Dial, Connect), at attempt 0.
func (c *ShardedClient) Resize(n int, dial func(shard int) (core.QD, error)) error {
	if n < 1 {
		return ErrBadRequest
	}
	if dial == nil {
		dial = func(i int) (core.QD, error) { return c.redialFn(i, 0) }
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.conns); i < n; i++ {
		qd, err := dial(i)
		if err != nil {
			return err
		}
		c.conns = append(c.conns, c.newConn(i, qd))
	}
	for _, conn := range c.conns[n:] {
		conn.Close() //nolint:errcheck // surplus conns may already be dead
	}
	c.conns = slices.Delete(c.conns, n, len(c.conns))
	return nil
}

// newConn makes qd shard i's connection, redialed through the client's
// dialer.
func (c *ShardedClient) newConn(i int, qd core.QD) *failover.Conn {
	return failover.NewConn(c.lib, qd, func(attempt int) (core.QD, error) { return c.redialFn(i, attempt) })
}

// Shards returns the shard width the client currently hashes over.
func (c *ShardedClient) Shards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.conns)
}

// Close shuts every per-shard connection.
func (c *ShardedClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
