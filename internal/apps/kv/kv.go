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
		return c.Resize(1, func(int) (core.QD, error) { return c.redialFn(0, 0) })
	}
	return c.redialShard(0)
}
