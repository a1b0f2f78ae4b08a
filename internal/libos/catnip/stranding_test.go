package catnip_test

// Nothing is stranded. Poll serves work lists, not tables, so an
// operation whose endpoint is on no list when its turn comes would wait
// for ever. These tests drive 256 connections through seeded
// interleavings of everything that puts work on a list or takes it off —
// pushes and pops through qtokens and through batched submission, data
// before and after the waiter, frames that span many segments, a parked
// receive drain, a full send buffer, a peer's close, a reset, a partition
// the retransmission budget runs out on, a crash — and require that every
// token completes, with its value or a typed error, within a bounded
// number of polls, and that all four lists are empty whenever the rig is
// at rest.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/core"
	"demikernel/internal/queue"
	"demikernel/internal/uring"
)

const (
	strandConns = 256
	strandPort  = 80
	// strandPollBound is how many polls of both nodes any set of
	// satisfiable operations gets. The longest honest wait is a few
	// hundred: 370 KB through a 64 KiB window, or a retransmission budget
	// spent one clock step per 64 idle polls.
	strandPollBound = 20_000
	// strandReadyCap is RxReadyCap on both nodes: low enough that a burst
	// parks the drain.
	strandReadyCap = 8
)

type strandConn struct {
	id   int
	qd   [2]demi.QD
	sent [2]uint32          // messages pushed by each side
	seen [2]map[uint32]bool // sequence numbers popped at each side
	shut [2]bool            // the side's descriptor is closed already
	dead bool               // torn down: to be closed and replaced
}

type strandOp struct {
	c    *strandConn
	side int
	kind queue.OpKind
	ring bool
	qt   queue.QToken
	tag  uint64
	born int
}

type strandRig struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	c     *demi.Cluster
	node  [2]*demi.Node // 0 serves, 1 dials
	ring  [2]*uring.Pair
	sq    [2][]uring.SQE
	lqd   demi.QD
	conns []*strandConn
	polls int
	// progress is the poll that last completed an operation.
	progress int
	ops      []*strandOp // outstanding, in issue order
	tags     map[uint64]*strandOp
	tag      uint64
	cqes     []uring.CQE
	// typed counts completions by the sentinel they carried.
	values, closed, peerDead, localReset int
}

func newStrandRig(t *testing.T, seed int64) *strandRig {
	r := &strandRig{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
		c: demi.NewCluster(seed), tags: map[uint64]*strandOp{}, cqes: make([]uring.CQE, 256)}
	for side := range r.node {
		r.node[side] = r.c.MustSpawn(demi.Catnip, demi.WithConfig(demi.NodeConfig{
			Host: byte(side + 1), RTO: time.Second, MaxRetransmits: 4, RxReadyCap: strandReadyCap,
		}))
		// A clock that stands still: timers fire when the rig steps it, on
		// a slow host as on a fast one.
		r.node[side].Clock().SetSkew(-1e6)
		r.ring[side] = r.node[side].AttachRing(1024)
	}
	var err error
	if r.lqd, err = r.node[0].Socket(); err != nil {
		t.Fatal(err)
	}
	if err := r.node[0].Bind(r.lqd, demi.Addr{Port: strandPort}); err != nil {
		t.Fatal(err)
	}
	if err := r.node[0].Listen(r.lqd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < strandConns; i++ {
		r.conns = append(r.conns, r.dial(i))
	}
	return r
}

func (r *strandRig) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d, poll %d: %s", r.seed, r.polls, fmt.Sprintf(format, args...))
}

// dial opens connection id: Connect on the dialing node, both nodes
// polled from here until the serving node accepts it.
func (r *strandRig) dial(id int) *strandConn {
	c := &strandConn{id: id}
	c.seen[0], c.seen[1] = map[uint32]bool{}, map[uint32]bool{}
	qd, err := r.node[1].Socket()
	if err != nil {
		r.fatalf("socket: %v", err)
	}
	ep, err := r.node[1].EndpointOf(qd)
	if err != nil {
		r.fatalf("endpoint: %v", err)
	}
	if err := ep.Connect(r.c.AddrOf(r.node[0], strandPort)); err != nil {
		r.fatalf("connect: %v", err)
	}
	c.qd[1] = qd
	for spins := 0; ; spins++ {
		r.poll()
		if sqd, ok, err := r.node[0].TryAccept(r.lqd); err != nil {
			r.fatalf("accept: %v", err)
		} else if ok {
			c.qd[0] = sqd
			break
		}
		if err := ep.Err(); err != nil || spins > strandPollBound {
			r.fatalf("connection %d never established: %v", id, err)
		}
	}
	return c
}

// --- issuing ---

func (r *strandRig) track(op *strandOp) {
	op.born = r.polls
	r.ops = append(r.ops, op)
}

// strandRamp is the byte pattern messages carry, long enough to start at
// any phase and cover the longest message.
var strandRamp = func() []byte {
	b := make([]byte, 1<<20+256)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// message builds sequence number seq of connection c's stream from side,
// size bytes in up to three segments: who sent it, its number, and the
// ramp from there.
func message(c *strandConn, side int, seq uint32, size int, rng *rand.Rand) demi.SGA {
	b := make([]byte, size)
	binary.BigEndian.PutUint32(b[0:], uint32(c.id)<<1|uint32(side))
	binary.BigEndian.PutUint32(b[4:], seq)
	copy(b[8:], strandRamp[byte(seq):])
	if cut := rng.Intn(size); cut > 8 && size-cut > 8 {
		return demi.NewSGA(b[:8], b[8:cut], b[cut:])
	}
	return demi.NewSGA(b)
}

func (r *strandRig) push(c *strandConn, side, size int) {
	if size < 8 {
		size = 8
	}
	s := message(c, side, c.sent[side], size, r.rng)
	c.sent[side]++
	op := &strandOp{c: c, side: side, kind: queue.OpPush, ring: r.rng.Intn(2) == 0}
	if op.ring {
		r.tag++
		op.tag = r.tag
		r.tags[op.tag] = op
		r.sq[side] = append(r.sq[side], uring.SQE{Op: queue.OpPush, QD: int32(c.qd[side]), Tag: op.tag, SGA: s})
	} else {
		qt, err := r.node[side].Push(c.qd[side], s)
		if err != nil {
			r.fatalf("push on connection %d: %v", c.id, err)
		}
		op.qt = qt
	}
	r.track(op)
}

func (r *strandRig) pop(c *strandConn, side int) {
	op := &strandOp{c: c, side: side, kind: queue.OpPop, ring: r.rng.Intn(2) == 0}
	if op.ring {
		r.tag++
		op.tag = r.tag
		r.tags[op.tag] = op
		r.sq[side] = append(r.sq[side], uring.SQE{Op: queue.OpPop, QD: int32(c.qd[side]), Tag: op.tag})
	} else {
		qt, err := r.node[side].Pop(c.qd[side])
		if err != nil {
			r.fatalf("pop on connection %d: %v", c.id, err)
		}
		op.qt = qt
	}
	r.track(op)
}

// --- polling and harvesting ---

// poll submits the batches staged since the last one, polls the dialing
// node and then the serving one, and collects whatever completed.
func (r *strandRig) poll() {
	for side := range r.node {
		if _, err := r.node[side].SubmitBatch(r.ring[side], r.sq[side]); err != nil {
			r.fatalf("submit: %v", err)
		}
		r.sq[side] = r.sq[side][:0]
	}
	r.node[1].Poll()
	r.node[0].Poll()
	r.polls++
	r.harvest()
}

func (r *strandRig) harvest() {
	for side := range r.node {
		for {
			n := r.node[side].HarvestCQ(r.ring[side], r.cqes)
			if n == 0 {
				break
			}
			for _, cqe := range r.cqes[:n] {
				op := r.tags[cqe.Tag]
				if op == nil {
					r.fatalf("completion for unknown ring tag %d", cqe.Tag)
				}
				delete(r.tags, cqe.Tag)
				op.tag = 0
				r.completed(op, queue.Completion{Kind: cqe.Kind, Err: cqe.Err, SGA: cqe.SGA})
			}
		}
	}
	kept := r.ops[:0]
	for _, op := range r.ops {
		switch {
		case op.ring && op.tag == 0:
			// harvested above
		case op.ring:
			kept = append(kept, op)
		default:
			comp, ok, err := r.node[op.side].TryWait(op.qt)
			if err != nil {
				r.fatalf("TryWait: %v", err)
			}
			if !ok {
				kept = append(kept, op)
				continue
			}
			r.completed(op, comp)
		}
	}
	for i := len(kept); i < len(r.ops); i++ {
		r.ops[i] = nil
	}
	r.ops = kept
}

func (r *strandRig) completed(op *strandOp, comp queue.Completion) {
	c := op.c
	r.progress = r.polls
	switch err := comp.Err; {
	case err == nil && op.kind == queue.OpPush:
		r.values++
	case err == nil:
		r.values++
		b := comp.SGA.Bytes()
		if len(b) < 8 || binary.BigEndian.Uint32(b) != uint32(c.id)<<1|uint32(1-op.side) {
			r.fatalf("connection %d side %d popped %d bytes of somebody else's stream", c.id, op.side, len(b))
		}
		seq := binary.BigEndian.Uint32(b[4:])
		if seq >= c.sent[1-op.side] || c.seen[op.side][seq] {
			r.fatalf("connection %d side %d popped message %d (peer sent %d) twice or before it was sent", c.id, op.side, seq, c.sent[1-op.side])
		}
		if !bytes.Equal(b[8:], strandRamp[byte(seq):][:len(b)-8]) {
			r.fatalf("connection %d side %d message %d (%d bytes) is corrupt", c.id, op.side, seq, len(b))
		}
		c.seen[op.side][seq] = true
		comp.SGA.Free()
	case errors.Is(err, core.ErrLocalReset):
		r.localReset++
	case errors.Is(err, core.ErrPeerDead):
		r.peerDead++
	case errors.Is(err, queue.ErrClosed):
		r.closed++
	default:
		r.fatalf("connection %d side %d %v failed with an untyped error: %v", c.id, op.side, op.kind, err)
	}
	if comp.Err != nil && !c.dead {
		r.fatalf("connection %d side %d %v failed on a healthy connection: %v", c.id, op.side, op.kind, comp.Err)
	}
}

// drain polls until nothing is outstanding. Some waits only a timer ends
// — a burst that overran the NIC ring, a peer behind a partition — so the
// clocks step past the retransmission timeout whenever 64 polls have
// completed nothing.
func (r *strandRig) drain(what string) {
	start := r.polls
	for len(r.ops) > 0 || len(r.sq[0]) > 0 || len(r.sq[1]) > 0 {
		if r.polls-r.progress > 64 {
			r.advance(1100 * time.Millisecond)
			r.progress = r.polls
		}
		if r.polls-start > strandPollBound {
			op := r.ops[0]
			r.fatalf("%s: %d operations stranded; the oldest is a %v on connection %d side %d (ring %v) issued at poll %d",
				what, len(r.ops), op.kind, op.c.id, op.side, op.ring, op.born)
		}
		r.poll()
	}
}

// advance steps both nodes' clocks forward.
func (r *strandRig) advance(d time.Duration) {
	for _, n := range r.node {
		n.Clock().Step(d)
	}
}

// rest requires the rig at rest to have nothing on any work list: after
// the last acknowledgements are exchanged and every timer deadline has
// passed, the heaps, ready queues, held-ACK lists and pump lists are empty,
// however many connections are open.
func (r *strandRig) rest(what string) {
	for i := 0; i < 4; i++ {
		r.poll()
	}
	r.advance(5 * time.Second)
	for i := 0; i < 4; i++ {
		r.poll()
	}
	for side, n := range r.node {
		if timers, ready, acks, pumps := n.Catnip.WorkQueued(); timers+ready+acks+pumps != 0 {
			r.fatalf("%s: node %d at rest still has %d timer entries, %d ready connections, %d held ACKs, %d endpoints to pump",
				what, side, timers, ready, acks, pumps)
		}
	}
}

// replace closes both ends of every torn-down connection and dials a
// fresh one in its place.
func (r *strandRig) replace() {
	for i, c := range r.conns {
		if !c.dead {
			continue
		}
		for side := range c.qd {
			if c.shut[side] {
				continue
			}
			if err := r.node[side].Close(c.qd[side]); err != nil {
				r.fatalf("close: %v", err)
			}
		}
		r.conns[i] = r.dial(c.id)
	}
}

// --- scripts ---

// traffic runs one round of satisfiable operations: a script per chosen
// connection, the scripts' steps interleaved at random with polls.
func (r *strandRig) traffic(what string) {
	type step func()
	var scripts [][]step
	for _, c := range r.conns {
		if r.rng.Intn(3) == 0 {
			continue
		}
		c, s := c, r.rng.Intn(2) // s sends, 1-s receives
		var sc []step
		pop := func() { r.pop(c, 1-s) }
		pushOf := func(size int) step { return func() { r.push(c, s, size) } }
		kind := r.rng.Intn(5)
		if r.rng.Intn(16) == 0 {
			kind = 5
		}
		switch kind {
		case 0: // the waiter first
			sc = []step{pop, pushOf(r.rng.Intn(256))}
		case 1: // the data first, and given time to arrive
			sc = []step{pushOf(r.rng.Intn(256)), r.poll, r.poll, r.poll, pop}
		case 2: // a frame of many segments, met halfway by its pop
			sc = []step{pushOf(3_000 + r.rng.Intn(60_000)), r.poll, pop}
		case 3: // a burst past RxReadyCap: the drain parks, and the pops that catch up resume it
			k := strandReadyCap + 1 + r.rng.Intn(2*strandReadyCap)
			for i := 0; i < k; i++ {
				sc = append(sc, pushOf(r.rng.Intn(64)))
			}
			sc = append(sc, pop, r.poll, r.poll)
			for i := 1; i < k; i++ {
				sc = append(sc, pop)
			}
		case 4: // both directions at once
			sc = []step{pop, func() { r.pop(c, s) }, pushOf(r.rng.Intn(2_000)), func() { r.push(c, 1-s, r.rng.Intn(2_000)) }}
		case 5: // more than send buffer and window hold: frames wait in txq for ACKs to make room
			sc = []step{pushOf(270_000 + r.rng.Intn(100_000)), pushOf(50_000), r.poll, r.poll, pop, pop}
		}
		scripts = append(scripts, sc)
	}
	for len(scripts) > 0 {
		i := r.rng.Intn(len(scripts))
		scripts[i][0]()
		if scripts[i] = scripts[i][1:]; len(scripts[i]) == 0 {
			scripts[i] = scripts[len(scripts)-1]
			scripts = scripts[:len(scripts)-1]
		}
		if r.rng.Intn(8) == 0 {
			r.poll()
		}
	}
	r.drain(what)
	for _, c := range r.conns {
		for side := range c.seen {
			if got, want := len(c.seen[side]), int(c.sent[1-side]); got != want {
				r.fatalf("%s: connection %d side %d popped %d of the %d messages sent to it", what, c.id, side, got, want)
			}
		}
	}
}

// pick returns n distinct live connections.
func (r *strandRig) pick(n int) []*strandConn {
	var out []*strandConn
	for _, i := range r.rng.Perm(len(r.conns))[:n] {
		out = append(out, r.conns[i])
	}
	return out
}

// peerCloses: pops wait on one side, the other side closes. The FIN must
// fail them with ErrClosed.
func (r *strandRig) peerCloses() {
	before := r.closed
	victims := r.pick(12)
	for _, c := range victims {
		s := r.rng.Intn(2)
		c.dead = true
		for i := 0; i <= r.rng.Intn(3); i++ {
			r.pop(c, 1-s)
		}
		if r.rng.Intn(2) == 0 {
			r.poll()
		}
		if err := r.node[s].Close(c.qd[s]); err != nil {
			r.fatalf("close: %v", err)
		}
		c.shut[s] = true
	}
	r.drain("peer close")
	if r.closed == before {
		r.fatalf("peer close: no pop failed with ErrClosed")
	}
	r.replace()
}

// partitionThenReset: with the link cut, one side pushes and waits for an
// answer until its retransmission budget is gone — the give-up must fail
// the pop. Healed, the other side still believes in the connection; its
// next segment is answered with a reset, which must fail its pop in turn.
func (r *strandRig) partitionThenReset() {
	a, b := r.node[0].FabricPort(), r.node[1].FabricPort()
	r.c.Switch.SetOneWayBlock(a, b, true)
	r.c.Switch.SetOneWayBlock(b, a, true)
	before := r.peerDead
	victims := r.pick(12)
	sides := make([]int, len(victims))
	for i, c := range victims {
		sides[i] = r.rng.Intn(2)
		c.dead = true
		r.pop(c, sides[i])
		r.push(c, sides[i], 8+r.rng.Intn(4_000))
	}
	r.drain("partition")
	if r.peerDead-before < len(victims) {
		r.fatalf("partition: %d pops failed with ErrPeerDead, want one per victim (%d)", r.peerDead-before, len(victims))
	}
	r.c.Switch.SetOneWayBlock(a, b, false)
	r.c.Switch.SetOneWayBlock(b, a, false)
	before = r.peerDead
	for i, c := range victims {
		r.pop(c, 1-sides[i])
		r.push(c, 1-sides[i], 64)
	}
	r.drain("reset after partition")
	if r.peerDead-before < len(victims) {
		r.fatalf("reset: %d pops failed with ErrPeerDead, want one per victim (%d)", r.peerDead-before, len(victims))
	}
	r.replace()
}

// crash: a node dies with pops waiting, frames staged and frames parked
// behind a full send buffer, on both paths. Crash itself must complete
// every one of them — not a later poll — and the survivors' operations
// fail once the restarted node answers their segments with resets.
func (r *strandRig) crash(x int) {
	for _, c := range r.conns {
		c.dead = true
		switch r.rng.Intn(4) {
		case 0:
			r.pop(c, x)
		case 1:
			r.pop(c, x)
			r.push(c, x, 100)
		case 2:
			if r.rng.Intn(16) == 0 {
				r.push(c, x, 300_000)
			}
		}
	}
	r.poll()
	if len(r.sq[x]) > 0 {
		r.fatalf("crash: %d operations never reached the ring", len(r.sq[x]))
	}
	before := r.localReset
	if _, err := r.node[x].Crash(); err != nil {
		r.fatalf("crash: %v", err)
	}
	r.harvest()
	for _, op := range r.ops {
		if op.side == x {
			r.fatalf("crash left a %v on connection %d (ring %v) pending", op.kind, op.c.id, op.ring)
		}
	}
	if r.localReset == before {
		r.fatalf("crash: nothing failed with ErrLocalReset")
	}
	if err := r.node[x].Restart(); err != nil {
		r.fatalf("restart: %v", err)
	}
	for _, c := range r.conns {
		r.pop(c, 1-x)
		r.push(c, 1-x, 32)
	}
	r.drain("reset after crash")
	r.replace()
}

func TestNothingStranded(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := newStrandRig(t, seed)
		for round := 0; round < 8; round++ {
			r.traffic(fmt.Sprintf("round %d", round))
			switch round % 4 {
			case 1:
				r.peerCloses()
			case 2:
				r.partitionThenReset()
			case 3:
				r.crash(r.rng.Intn(2))
			}
			r.rest(fmt.Sprintf("after round %d", round))
		}
		if r.values == 0 || r.closed == 0 || r.peerDead == 0 || r.localReset == 0 {
			t.Fatalf("seed %d coverage: %d values, %d ErrClosed, %d ErrPeerDead, %d ErrLocalReset; want some of each",
				seed, r.values, r.closed, r.peerDead, r.localReset)
		}
		if stalls := r.node[0].Catnip.RxStalls() + r.node[1].Catnip.RxStalls(); stalls == 0 {
			t.Fatalf("seed %d coverage: the receive drain never parked", seed)
		}
	}
}

// TestMarkRacesDrain is the mark-versus-drain race: background pollers
// drain the pump lists, which readiness feeds, while application
// goroutines stage operations through the batched calls and pump the
// endpoint themselves, as LibOS.SubmitBatch does. Every echo must
// complete; run under -race.
func TestMarkRacesDrain(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 61)
	defer cleanup()
	const conns, echoes = 8, 300
	lqd, err := srv.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(lqd, demi.Addr{Port: strandPort}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lqd); err != nil {
		t.Fatal(err)
	}
	type batchEndpoint interface {
		queue.BatchIoQueue
		Pump() int
	}
	batched := func(n *demi.Node, qd demi.QD) batchEndpoint {
		ep, err := n.EndpointOf(qd)
		if err != nil {
			t.Fatal(err)
		}
		return ep.(batchEndpoint)
	}
	// exchange pops one message and pushes one, staged and then pumped
	// once, and waits for both completions.
	exchange := func(q batchEndpoint, msg demi.SGA) (demi.SGA, error) {
		done := make(chan queue.Completion, 2)
		q.PopBatched(func(c queue.Completion) { done <- c })
		q.PushBatched(msg, 0, func(c queue.Completion) { done <- c })
		q.Pump()
		var got demi.SGA
		for i := 0; i < 2; i++ {
			select {
			case c := <-done:
				if c.Err != nil {
					return got, c.Err
				}
				if c.Kind == queue.OpPop {
					got = c.SGA
				}
			case <-time.After(10 * time.Second):
				return got, errors.New("stranded: no completion in 10 s")
			}
		}
		return got, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		cqd, err := cli.Socket()
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Connect(cqd, c.AddrOf(srv, strandPort)); err != nil {
			t.Fatal(err)
		}
		sqd, err := srv.Accept(lqd)
		if err != nil {
			t.Fatal(err)
		}
		cq, sq := batched(cli, cqd), batched(srv, sqd)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < echoes; k++ {
				back, err := exchange(cq, demi.NewSGA([]byte{byte(k), byte(i)}))
				if err != nil {
					t.Errorf("client %d echo %d: %v", i, k, err)
					return
				}
				back.Free()
			}
		}()
		go func() {
			defer wg.Done()
			// The server answers message k with message k of its own: both
			// sides have a pop and a push in flight at once.
			for k := 0; k < echoes; k++ {
				got, err := exchange(sq, demi.NewSGA([]byte{byte(k), byte(i)}))
				if err != nil {
					t.Errorf("server %d echo %d: %v", i, k, err)
					return
				}
				got.Free()
			}
		}()
	}
	wg.Wait()
}
