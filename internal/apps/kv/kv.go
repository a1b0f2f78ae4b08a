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
// request SGA s, which is freed when the value is overwritten or deleted.
type storedVal struct {
	val []byte
	s   sga.SGA
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
		s.close()
		return nil, nil, err
	}
	quit := make(chan struct{})
	wg := s.Run(quit)
	return s, func() {
		close(quit)
		wg.Wait()
		s.close()
	}, nil
}

// close releases what stopped workers still hold: each connection with
// its armed pop (consumed, so the token does not outlive the descriptor)
// and each listener. The stores stay, for whoever audits them.
func (s *ShardedServer) close() {
	for _, w := range s.workers {
		for conn, qt := range w.conns {
			w.lib.Close(conn) //nolint:errcheck // may already be gone
			if comp, ok, _ := w.lib.TryWait(qt); ok && comp.Err == nil {
				comp.SGA.Free()
			}
		}
		w.lib.Close(w.lqd) //nolint:errcheck // nothing to do about it at shutdown
	}
}

// Dial stages a client on lib for a server n shards wide: a background
// poller for lib and one connection per shard from dial, which must land
// the connection on the shard it is given (demikernel.Router.Dialer does)
// and stays the client's failover redialer, called with the attempt's
// number. stop closes the connections and stops the poller.
func Dial(lib *core.LibOS, n int, dial func(shard, attempt int) (core.QD, error)) (cli *ShardedClient, stop func(), err error) {
	stopPoll := lib.Background()
	c := &ShardedClient{lib: lib, redialFn: dial}
	stop = func() {
		c.Close() //nolint:errcheck // connections may already be dead
		stopPoll()
	}
	if err := c.Resize(n, nil); err != nil {
		stop()
		return nil, nil, err
	}
	return c, stop, nil
}

// NewClient creates a client on lib with no connection yet; Connect
// makes it the one-connection client of a width-1 server.
func NewClient(lib *core.LibOS) *ShardedClient {
	return &ShardedClient{lib: lib}
}

// Connect dials addr with Socket+Connect and makes that the client's
// single connection, replacing (dial-first) the one a previous Connect
// made. The same dialer serves failover redials of the connection.
func (c *ShardedClient) Connect(addr core.Addr) error {
	c.redialFn = func(int, int) (core.QD, error) { return failover.Dial(c.lib, addr) }
	if c.Shards() == 0 {
		return c.Resize(1, nil)
	}
	return c.redialShard(0)
}
