package main

// The application rigs: httpd over the rings, the 2-shard KV store over
// per-op tokens and the cross-shard mesh, and catfish pushdown GETs.

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	demi "demikernel"
	"demikernel/internal/apps/httpd"
	"demikernel/internal/apps/kv"
	"demikernel/internal/libos/catfish"
	"demikernel/internal/offload"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/spdk"
	"demikernel/internal/telemetry"
	"demikernel/internal/workload"
)

const (
	httpPort = 8080
	kvPort   = 6379
)

// --- http_get_b32 ---

// httpRig is one keep-alive connection carrying 32 pipelined GETs per
// batch over the client ring to an httpd.Server on its own ring.
type httpRig struct {
	netRig
	rc   *ringClient
	gen  *generator
	objs []workload.HTTPObject
	reqs [httpObjects]demi.SGA // prebuilt request per object
	want [ringBatch]int32      // object requested at each batch position
}

func newHTTPRig(seed int64) (*httpRig, error) {
	r := &httpRig{netRig: newNetRig(seed)}
	var err error
	if r.gen, err = newGenerator("http_get_b32", seed); err != nil {
		return nil, err
	}
	r.objs = workload.HTTPObjects(httpObjects, &httpSizes{}, seed+3)
	tree := httpd.NewTree()
	for i, o := range r.objs {
		tree.Add(o.Path, o.Body)
		r.reqs[i] = demi.NewSGA([]byte("GET " + o.Path + " HTTP/1.1\r\n\r\n"))
	}
	app := httpd.NewServer(r.n.srv, tree)
	if err := app.Listen(httpPort); err != nil {
		return nil, err
	}
	app.EnableRing(ringCap)
	app.RegisterTelemetry(r.reg, "httpd")
	r.serve = func() { app.Step() }
	r.rc, err = newRingClient(&r.netRig, httpPort, func(i int, resp demi.SGA) bool {
		return checkHTTP(resp, r.objs[r.want[i]].Body)
	})
	if err != nil {
		return nil, err
	}
	for i := 0; app.Conns() == 0; i++ {
		r.n.cli.Poll()
		r.n.srv.Poll()
		r.serve()
		if i > pumpLimit {
			return nil, fmt.Errorf("httpd never accepted the connection")
		}
	}
	return r, nil
}

var (
	http200       = []byte("HTTP/1.1 200 ")
	contentLength = []byte("Content-Length: ")
)

// checkHTTP verifies status 200, the Content-Length header and the body
// bytes of one response SGA ([head][body]).
func checkHTTP(g demi.SGA, body []byte) bool {
	if len(g.Segments) != 2 {
		return false
	}
	head := g.Segments[0].Buf
	i := bytes.Index(head, contentLength)
	if !bytes.HasPrefix(head, http200) || i < 0 {
		return false
	}
	rest := head[i+len(contentLength):]
	j := bytes.IndexByte(rest, '\r')
	if j < 0 {
		return false
	}
	n, err := strconv.Atoi(string(rest[:j])) // does not escape: no allocation
	return err == nil && n == len(body) && bytes.Equal(g.Segments[1].Buf, body)
}

func (r *httpRig) step(p *pass) {
	t0 := p.opBegin()
	s := p.begin()
	var bodyBytes int64
	for i := range r.want {
		o := r.gen.next()
		r.want[i] = o.key
		bodyBytes += int64(o.size)
		r.rc.stage(r.reqs[o.key])
	}
	p.end(spClient, s)
	virt := r.rc.roundTrips(p, t0)
	if r.err != nil {
		return
	}
	t1 := p.opEnd()
	p.record(t1, t1-t0, ringBatch, bodyBytes, virt)
}

// --- kv_mix ---

// kvSlot is one client connection with at most one op in flight.
type kvSlot struct {
	qd     demi.QD
	shard  int
	busy   bool
	op     op
	ver    uint64
	t0     int64
	spins  int // of the timeout check
	popQT  demi.QToken
	pushQT demi.QToken
	segs   [3]sga.Segment
	val    []byte
}

// kvRig drives a 2-shard kv.ShardedServer stepped inline through 4
// RSS-aligned connections (two per shard), hand-building the
// [op][key][value] SGAs and checking every GET against a shadow map of
// version-stamped values.
type kvRig struct {
	rigBase
	srvNode *demi.Node
	cli     *demi.LibOS
	app     *kv.ShardedServer

	gen     *generator
	keys    [][]byte
	owner   []uint8
	flying  []bool   // key has an op in flight
	verOf   []uint64 // shadow: version stored under each key
	lenOf   []int32  // shadow: value length stored under each key
	base    []byte   // value body shared by every version
	nextVer uint64
	slots   [kvConns]kvSlot
	held    op // drawn, waiting for a free connection on its shard
	holding bool
}

var (
	kvGet = []byte(kv.OpGet)
	kvSet = []byte(kv.OpSet)
	kvOK  = []byte(kv.StatusOK)
)

func newKVRig(seed int64) (*kvRig, error) {
	c := demi.NewCluster(seed)
	r := &kvRig{}
	r.reg = newRegistry(c)
	r.srvNode = c.MustSpawn(demi.Catnip, demi.WithHost(1), demi.WithShards(kvShards), demi.WithTelemetry(r.reg))
	cliNode := c.MustSpawn(demi.Catnip, demi.WithHost(2), demi.WithTelemetry(r.reg))
	r.cli = cliNode.LibOS
	sn := r.srvNode.Sharded
	for i := 0; i < kvShards; i++ {
		t := sn.Set.Shard(i)
		t.Pool().RegisterTelemetry(r.reg, fmt.Sprintf("framepool.shard%d", i))
		r.reg.RegisterFunc(fmt.Sprintf("host1.shard.%d.rx_ready_stalls", i), t.RxStalls)
	}
	r.app = kv.NewShardedServer(sn.Libs, &c.Model, sn.Mesh())
	if err := r.app.Listen(kvPort); err != nil {
		return nil, err
	}
	r.app.RegisterTelemetry(r.reg, "kv")

	// DialShard blocks on the handshake, so the server's stacks are
	// polled in the background for the dials only.
	stop := r.srvNode.Background()
	for i := range r.slots {
		qd, err := c.Router().DialShard(cliNode, sn, kvPort, i%kvShards, uint16(4096*i+31))
		if err != nil {
			stop()
			return nil, err
		}
		r.slots[i] = kvSlot{qd: qd, shard: i % kvShards, val: make([]byte, kvLargeVal)}
	}
	stop()

	r.base = randomBytes(seed+3, kvLargeVal)
	r.keys = make([][]byte, kvKeys)
	r.owner = make([]uint8, kvKeys)
	for i := range r.keys {
		k := fmt.Sprintf("key-%05d", i)
		r.keys[i] = []byte(k)
		r.owner[i] = uint8(kv.KeyShard(k, kvShards))
	}
	r.flying = make([]bool, kvKeys)
	r.verOf = make([]uint64, kvKeys)
	r.lenOf = make([]int32, kvKeys)

	// Preload every key through the same closed loop.
	sizes := workload.NewBimodalSize(kvSmallVal, kvLargeVal, kvSmallShare, seed+4)
	k := int32(0)
	r.gen = &generator{next: func() op {
		o := op{kind: opKVSet, key: k, size: int32(sizes.NextSize())}
		k++
		return o
	}}
	scratch := &pass{t0: time.Now()}
	for scratch.ops < kvKeys {
		r.advance(scratch, min(kvConns, kvKeys-int(k)))
		if r.err != nil {
			return nil, fmt.Errorf("preload: %w", r.err)
		}
		if scratch.clock() > int64(30*time.Second) {
			return nil, fmt.Errorf("preload stalled at %d of %d keys", scratch.ops, kvKeys)
		}
	}
	var err error
	r.gen, err = newGenerator("kv_mix", seed)
	return r, err
}

// issue starts o on slot s.
func (r *kvRig) issue(p *pass, s *kvSlot, o op) {
	b := p.begin()
	s.op, s.busy = o, true
	r.flying[o.key] = true
	s.segs[1] = sga.Segment{Buf: r.keys[o.key]}
	n := 2
	if o.kind == opKVSet {
		r.nextVer++
		s.ver = r.nextVer
		stamp(s.val, uint64(o.key), s.ver)
		copy(s.val[16:o.size], r.base[16:o.size])
		s.segs[0] = sga.Segment{Buf: kvSet}
		s.segs[2] = sga.Segment{Buf: s.val[:o.size]}
		n = 3
	} else {
		s.segs[0] = sga.Segment{Buf: kvGet}
	}
	p.end(spClient, b)
	s.t0 = p.clock()
	b = p.begin()
	var err error
	s.popQT, err = r.cli.Pop(s.qd)
	p.end(spPop, b)
	if err != nil {
		r.fail("pop: %v", err)
		return
	}
	b = p.begin()
	s.pushQT, err = r.cli.Push(s.qd, demi.SGA{Segments: s.segs[:n]})
	p.end(spPush, b)
	if err != nil {
		r.fail("push: %v", err)
	}
}

// finish verifies the response to s's op against the shadow map.
func (r *kvRig) finish(s *kvSlot, resp demi.SGA) (n int64, good bool) {
	o := s.op
	segs := resp.Segments
	if len(segs) == 0 || !bytes.Equal(segs[0].Buf, kvOK) {
		return 0, false
	}
	if o.kind == opKVSet {
		r.verOf[o.key], r.lenOf[o.key] = s.ver, o.size
		return int64(o.size), len(segs) == 1
	}
	if len(segs) != 2 {
		return 0, false
	}
	v := segs[1].Buf
	if int32(len(v)) != r.lenOf[o.key] {
		return 0, false
	}
	var want [16]byte
	stamp(want[:], uint64(o.key), r.verOf[o.key])
	return int64(len(v)), bytes.Equal(v[:16], want[:]) && bytes.Equal(v[16:], r.base[16:len(v)])
}

func (r *kvRig) step(p *pass) { r.advance(p, kvConns) }

// advance is one iteration of the closed loop: start up to issue new
// ops on free connections, pump every node and both shard workers, and
// complete whatever came back.
func (r *kvRig) advance(p *pass, issue int) {
	for ; issue > 0; issue-- {
		if !r.holding {
			b := p.begin()
			o := r.gen.next()
			for r.flying[o.key] {
				o = r.gen.next() // keys with an op in flight are skipped
			}
			p.end(spClient, b)
			r.held, r.holding = o, true
		}
		shard := int(r.owner[r.held.key])
		if r.held.misdirect {
			shard ^= 1
		}
		var free *kvSlot
		for i := range r.slots {
			if s := &r.slots[i]; !s.busy && s.shard == shard {
				free = s
				break
			}
		}
		if free == nil {
			break
		}
		r.issue(p, free, r.held)
		r.holding = false
		if r.err != nil {
			return
		}
	}
	p.poll(spPollSrv, r.srvNode)
	b := p.begin()
	r.app.Step(0)
	r.app.Step(1)
	p.end(spStep, b)
	p.poll(spPollCli, r.cli)
	for i := range r.slots {
		s := &r.slots[i]
		if !s.busy {
			continue
		}
		b = p.begin()
		c, ok, err := r.cli.TryWait(s.popQT)
		p.end(spTryWait, b)
		if err != nil {
			r.fail("wait: %v", err)
			return
		}
		if !ok {
			if p.expired(s.t0, &s.spins) {
				r.fail("kv op on key %d timed out after %v", s.op.key, opTimeout)
				return
			}
			continue
		}
		if c.Err != nil {
			r.fail("kv op on key %d: %v", s.op.key, c.Err)
			return
		}
		if _, ok, err := r.cli.TryWait(s.pushQT); err != nil || !ok {
			r.fail("request push not complete with its response: ok=%v err=%v", ok, err)
			return
		}
		b = p.begin()
		n, good := r.finish(s, c.SGA)
		c.SGA.Free()
		p.end(spClient, b)
		if !good {
			r.fail("kv op %d on key %d failed verification against the shadow map", s.op.kind, s.op.key)
			return
		}
		s.busy = false
		r.flying[s.op.key] = false
		now := p.clock()
		p.record(now, now-s.t0, 1, n, int64(c.Cost))
	}
}

func (r *kvRig) busy() bool {
	for i := range r.slots {
		if r.slots[i].busy {
			return true
		}
	}
	return false
}

func (r *kvRig) quiesce() error {
	scratch := &pass{t0: time.Now()}
	for i := 0; r.busy(); i++ {
		r.advance(scratch, 0)
		if r.err != nil {
			return r.err
		}
		if i > pumpLimit {
			return fmt.Errorf("kv ops never drained")
		}
	}
	return settle(func() int {
		return r.cli.Poll() + r.srvNode.Poll() + r.app.Step(0) + r.app.Step(1)
	})
}

func (r *kvRig) idlePoll() int {
	r.cli.Poll()
	r.srvNode.Poll()
	return 1 + kvShards
}
func (r *kvRig) atRest() int64 { return 0 }
func (r *kvRig) layerCounters(m map[string]float64, d telemetry.Snapshot, p *pass) {
	netCounters(m, d, p)
	m["shard.mesh_forwards_per_op"] = ratio(sum(d, "kv.", ".kv_fwd_out"), float64(p.ops))
	m["shard.mesh_full_retries"] = sum(d, "", ".xs_dropped")
}

// --- storage_get_d4 ---

// storageRig is a catfish node with a depth-4 block-resident index and
// an open pushdown lookup face; GETs go one at a time through
// LookupQueue.Push/Pop and Transport.Poll.
type storageRig struct {
	rigBase
	tr   *catfish.Transport
	q    *catfish.LookupQueue
	gen  *generator
	keys [][]byte
	vals [][]byte

	pushDone, popDone queue.DoneFunc
	pending           bool
	res               queue.Completion
}

func newStorageRig(seed int64) (*storageRig, error) {
	c := demi.NewCluster(seed)
	r := &storageRig{}
	r.reg = telemetry.NewRegistry()
	node, err := c.Spawn(demi.Catfish, demi.WithBlocks(0), demi.WithTelemetry(r.reg))
	if err != nil {
		return nil, err
	}
	r.tr = node.Catfish
	if r.gen, err = newGenerator("storage_get_d4", seed); err != nil {
		return nil, err
	}
	body := randomBytes(seed+3, storageKeys*storageValLen)
	pairs := make([]spdk.KV, storageKeys)
	for i := range pairs {
		r.keys = append(r.keys, []byte(fmt.Sprintf("key-%05d", i)))
		r.vals = append(r.vals, body[i*storageValLen:(i+1)*storageValLen])
		pairs[i] = spdk.KV{Key: r.keys[i], Val: r.vals[i]}
	}
	idx, err := r.tr.BuildIndex(pairs, storageFanout)
	if err != nil {
		return nil, err
	}
	if idx.Depth != storageDepth {
		return nil, fmt.Errorf("index depth %d, want %d", idx.Depth, storageDepth)
	}
	r.q, err = r.tr.OpenLookup(idx, offload.IndexLookup(), catfish.LookupConfig{Pushdown: true})
	if err != nil {
		return nil, err
	}
	r.reg.RegisterFunc("catfish.lookup.lookups", func() int64 { return r.q.Stats().Lookups })
	r.reg.RegisterFunc("catfish.lookup.crossings", func() int64 { return r.q.Stats().Crossings })
	r.pushDone = func(c queue.Completion) {
		if c.Err != nil {
			r.fail("lookup push: %v", c.Err)
		}
	}
	r.popDone = func(c queue.Completion) { r.res, r.pending = c, false }
	return r, nil
}

func (r *storageRig) step(p *pass) {
	t0 := p.opBegin()
	var virt int64
	for i := 0; i < storageGroup; i++ {
		s := p.begin()
		o := r.gen.next()
		key := r.tr.AllocSGA(len(r.keys[o.key]))
		copy(key.Segments[0].Buf, r.keys[o.key])
		p.end(spClient, s)

		r.pending = true
		s = p.begin()
		r.q.Push(key, 0, r.pushDone)
		p.end(spCatfishPush, s)
		s = p.begin()
		r.q.Pop(r.popDone)
		p.end(spCatfishPop, s)
		for spins := 0; r.pending; {
			p.poll(spCatfishPoll, r.tr)
			if p.expired(t0, &spins) {
				r.fail("GET of key %d timed out after %v", o.key, opTimeout)
				return
			}
		}
		if r.err != nil {
			return
		}
		if r.res.Err != nil {
			r.fail("GET of key %d: %v", o.key, r.res.Err)
			return
		}
		s = p.begin()
		good := len(r.res.SGA.Segments) == 1 && bytes.Equal(r.res.SGA.Segments[0].Buf, r.vals[o.key])
		r.res.SGA.Free()
		virt += int64(r.res.Cost)
		r.res = queue.Completion{}
		p.end(spClient, s)
		if !good {
			r.fail("GET of key %d returned different bytes", o.key)
			return
		}
	}
	t1 := p.opEnd()
	p.record(t1, (t1-t0)/storageGroup, storageGroup, storageGroup*storageValLen, virt)
}

func (r *storageRig) quiesce() error {
	if err := settle(r.tr.Poll); err != nil {
		return err
	}
	if n := r.tr.Device().PushdownStats().Inflight; n != 0 {
		return fmt.Errorf("%d traversals still in the device", n)
	}
	return nil
}
func (r *storageRig) idlePoll() int { return 0 }
func (r *storageRig) atRest() int64 { return r.tr.Pool().Outstanding() }
func (r *storageRig) layerCounters(m map[string]float64, d telemetry.Snapshot, p *pass) {
	gets := sum(d, "catfish.lookup.", ".lookups")
	m["spdk.crossings_per_get"] = ratio(sum(d, "catfish.lookup.", ".crossings"), gets)
	m["spdk.hops_per_get"] = ratio(sum(d, "", ".nvme.reads"), gets)
	m["catfish.pool_outstanding"] = float64(r.atRest())
}
