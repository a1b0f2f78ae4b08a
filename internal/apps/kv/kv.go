// Package kv implements the paper's running application example: a
// Redis-like in-memory key-value store, written against the Demikernel
// queue API so that one binary runs unmodified over every libOS (§4.1).
//
// The server follows the paper's zero-copy discipline (§4.5):
//
//   - SET stores the value buffer popped from the queue directly — "Redis
//     allocates a new value buffer for each put request and changes the
//     pointer in its data structures to the new buffer". No payload copy
//     happens on the data path.
//
//   - GET pushes the stored buffer as a scatter-gather segment; the
//     transport DMAs from it in place.
//
// Requests and responses are multi-segment SGAs, leaning on the
// guarantee that segmentation survives the queue:
//
//	request  := [op] [key] [value?]     op in {GET, SET, DEL}
//	response := [status] [value?]       status in {OK, NF, ER}
package kv

import (
	"errors"
	"sync"
	"sync/atomic"

	"demikernel/internal/apps/failover"
	"demikernel/internal/core"
	"demikernel/internal/sga"
	"demikernel/internal/shard"
	"demikernel/internal/simclock"
)

// Ops and statuses.
const (
	OpGet = "GET"
	OpSet = "SET"
	OpDel = "DEL"

	StatusOK       = "OK"
	StatusNotFound = "NF"
	StatusError    = "ER"
)

// ErrBadRequest is returned for malformed requests.
var ErrBadRequest = errors.New("kv: malformed request")

// storedVal is one stored value: val aliases a segment of the retained
// request SGA s. It is reference-counted: the store holds one reference,
// and every GET response that carries val holds another until its push
// completes, because a push reads its segments in place until then. A SET
// or DEL that swaps the key out drops the store's reference, and s is
// freed when the last response is through. The count is atomic because
// the response to a forwarded GET is pushed by another shard's worker,
// and a record can migrate to another shard during a reshard.
type storedVal struct {
	val  []byte
	s    sga.SGA
	refs atomic.Int32
}

// storedVals recycles stored values. Every SET makes one; allocated
// afresh, the live ones would end up strewn among the garbage of the
// requests around them, a few to a heap span, keeping every such span in
// use.
var storedVals = sync.Pool{New: func() any { return new(storedVal) }}

// newStoredVal stores val, a segment of req, holding the store's
// reference.
func newStoredVal(req sga.SGA, val []byte) *storedVal {
	v := storedVals.Get().(*storedVal)
	v.val, v.s = val, req
	v.refs.Store(1)
	return v
}

// pin takes a reference for one response.
func (v *storedVal) pin() *storedVal {
	v.refs.Add(1)
	return v
}

// release drops one reference; the last frees the value and recycles v.
// A nil value, the pin of a response that carries none, releases nothing.
func (v *storedVal) release() {
	if v != nil && v.refs.Add(-1) == 0 {
		v.s.Free()
		v.val, v.s = nil, sga.SGA{}
		storedVals.Put(v)
	}
}

// NewServer creates a KV server over one libOS: the sharded server at
// width 1 (one worker, a mesh with no edges). Per-request application
// compute is charged from model (the paper's 2µs Redis figure).
func NewServer(lib *core.LibOS, model *simclock.CostModel) *ShardedServer {
	return NewShardedServer([]*core.LibOS{lib}, model, shard.NewGroup(1, 0))
}

// Serve stages a KV server over libs, one worker per libOS and the first
// active of them owning the keyspace: every worker listens on port and
// runs in its own goroutine, which is also its libOS's poller. mesh is the
// cross-shard mesh of the shard set the libs belong to; nil makes a
// private one, which is all a single libOS needs. stop ends the workers,
// then closes their connections and listeners, so the port can be served
// again.
func Serve(libs []*core.LibOS, mesh *shard.Group, active int, model *simclock.CostModel, port uint16) (srv *ShardedServer, stop func(), err error) {
	if mesh == nil {
		mesh = shard.NewGroup(len(libs), 0)
	}
	s := NewShardedServerElastic(libs, model, mesh, active)
	if err := s.Listen(port); err != nil {
		s.Close()
		return nil, nil, err
	}
	quit := make(chan struct{})
	wg := s.Run(quit)
	return s, func() {
		close(quit)
		wg.Wait()
		s.Close()
	}, nil
}

// Close releases what stopped workers still hold: each connection with
// the values its responses in flight pinned, the requests their rings
// still hold, and each listener. The stores stay, for whoever audits them.
func (s *ShardedServer) Close() {
	for _, w := range s.workers {
		w.Close()
	}
}

// Dial stages a client on lib for a server n shards wide: a background
// poller for lib and one connection per shard from dial, which must land
// the connection on the shard it is given (demikernel.Router.Dialer does)
// and stays the client's failover redialer, called with the attempt's
// number. stop closes the connections and stops the poller.
func Dial(lib *core.LibOS, n int, dial func(shard, attempt int) (core.QD, error)) (cli *ShardedClient, stop func(), err error) {
	c := &ShardedClient{lib: lib, redialFn: dial}
	if stop, err = failover.Stage(lib, func() error { return c.Resize(n, nil) }, c.Close); err != nil {
		return nil, nil, err
	}
	return c, stop, nil
}

// NewClient creates a width-1 client on lib with no connection yet (its
// operations fail ErrBadQD); Connect makes it the one-connection client
// of a width-1 server.
func NewClient(lib *core.LibOS) *ShardedClient {
	c := &ShardedClient{lib: lib}
	c.conns = []*failover.Conn{c.newConn(0, core.InvalidQD)}
	return c
}

// Connect dials addr with Socket+Connect and makes that the client's
// shard-0 connection, replacing (dial-first) the one a previous Connect
// made. The same dialer serves failover redials of the connection.
func (c *ShardedClient) Connect(addr core.Addr) error {
	c.redialFn = func(int, int) (core.QD, error) { return failover.Dial(c.lib, addr) }
	return c.connAt(0).Redial()
}
