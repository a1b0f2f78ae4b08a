package kv

import (
	"demikernel/internal/libos/catfish"
	"demikernel/internal/offload"
	"demikernel/internal/queue"
	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

// DurableStore is the storage-backed read path of the KV example: a
// static dataset bulk-loaded into a block-resident sorted index on the
// catfish libOS, served through its PushPop lookup face. With pushdown
// enabled, a GET of any index depth is exactly one app↔libOS crossing —
// the traversal runs in the NVMe completion path; without it, the same
// lookup surfaces every node block to the host (one crossing per hop).
// Results are byte-identical either way.
type DurableStore struct {
	t   *catfish.Transport
	idx *spdk.Index
	lq  *catfish.LookupQueue
}

// DurableConfig configures Load.
type DurableConfig struct {
	// Pushdown runs lookups in the device completion path.
	Pushdown bool
	// Fanout is the index node fanout (0 = spdk default). Small fanouts
	// make deep trees from small datasets, which the depth experiments
	// exploit.
	Fanout int
	// MaxHops bounds a traversal (0 = spdk.DefaultMaxHops).
	MaxHops int
}

// Load bulk-builds the index over pairs and opens the lookup face.
func Load(t *catfish.Transport, pairs []spdk.KV, cfg DurableConfig) (*DurableStore, error) {
	idx, err := t.BuildIndex(pairs, cfg.Fanout)
	if err != nil {
		return nil, err
	}
	lq, err := t.OpenLookup(idx, offload.IndexLookup(), catfish.LookupConfig{
		Pushdown: cfg.Pushdown,
		MaxHops:  cfg.MaxHops,
	})
	if err != nil {
		return nil, err
	}
	return &DurableStore{t: t, idx: idx, lq: lq}, nil
}

// Index exposes the built index (depth, levels, build cost).
func (d *DurableStore) Index() *spdk.Index { return d.idx }

// Queue exposes the underlying lookup face (its crossing counters).
func (d *DurableStore) Queue() *catfish.LookupQueue { return d.lq }

// Get performs one lookup: a Push of the key and a Pop of the value —
// the full Demikernel round trip an application would make. The
// returned value is a fresh copy owned by the caller; the pooled result
// buffer is released before Get returns. A clean miss reports
// found=false with a nil error.
func (d *DurableStore) Get(key []byte) (val []byte, cost simclock.Lat, found bool, err error) {
	ks := d.t.AllocSGA(len(key))
	copy(ks.Segments[0].Buf, key)
	var pushErr error
	d.lq.Push(ks, 0, func(c queue.Completion) {
		pushErr = c.Err
		cost += c.Cost
	})
	if pushErr != nil {
		return nil, cost, false, pushErr
	}
	var res queue.Completion
	got := false
	d.lq.Pop(func(c queue.Completion) {
		res = c
		got = true
	})
	for !got {
		if d.t.Poll() == 0 {
			// Nothing moved: the in-flight traversal advances one hop per
			// device pump, so keep polling.
			continue
		}
	}
	cost += res.Cost
	if res.Err != nil {
		if res.Err == spdk.ErrNotFound {
			return nil, cost, false, nil
		}
		return nil, cost, false, res.Err
	}
	val = append([]byte(nil), res.SGA.Bytes()...)
	res.SGA.Free()
	return val, cost, true, nil
}

// Close closes the lookup face (uninstalling any pushdown program).
func (d *DurableStore) Close() error { return d.lq.Close() }
