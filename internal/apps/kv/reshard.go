// Elastic resharding: live repartition of the KV keyspace from N to M
// shards with bounded-staleness handoff over the cross-shard mesh.
//
// The protocol is generation-tagged ownership. A reshard publishes a new
// Topology{Gen, Old, New, Migrating} through an atomic pointer; each
// worker observes the flip on its next step, snapshots the keys it no
// longer owns under the New partition, and ships them to their new
// owners as OpMigrate records in bounded batches. While the migration
// drains, a key lives in exactly one of three places — the old owner's
// store, the (old→new) mesh edge, or the new owner's store — and the
// routing rules below locate it in at most two hops:
//
//   - a shard that HOLDS the key serves it (current owner, wherever the
//     sweep has got to);
//   - the old owner, on a miss, forwards to the new owner marked final:
//     a miss there is authoritative because the edge is a FIFO ring, so
//     any in-flight migrate record for the key arrived first;
//   - any other shard, on a miss, forwards to the old owner (who either
//     has it or performs the final hop).
//
// When every worker reports its sweep drained, the last one publishes
// the stable topology (Old == New, Migrating false) and routing
// collapses back to the one-hop steady state.
package kv

import (
	"fmt"

	"demikernel/internal/shard"
)

// Topology is one generation of the keyspace partition. Old and New are
// active shard counts; while Migrating they differ and both partitions
// participate in routing.
type Topology struct {
	Gen       uint64
	Old, New  int
	Migrating bool
}

// migRec ships one key/value record across the mesh during a reshard.
// The storedVal moves whole: the store's reference travels with it and
// is released by whichever shard ultimately discards the record.
type migRec struct {
	key string
	val *storedVal
}

// migBatch bounds how many records a worker ships per step so the
// migration sweep shares the core fairly with live request service.
const migBatch = 64

// ErrResharding is returned by BeginReshard while a previous reshard is
// still draining — generations are serialized by design.
var ErrResharding = fmt.Errorf("kv: reshard already in progress")

// BeginReshard publishes a new keyspace generation repartitioning the
// active keyspace onto m shards. m must not exceed the provisioned
// worker count. The call only publishes; workers perform the handoff as
// they step, and Stable reports completion.
func (s *ShardedServer) BeginReshard(m int) error {
	t := s.topo.Load()
	if t.Migrating {
		return ErrResharding
	}
	if m < 1 || m > len(s.workers) {
		return fmt.Errorf("kv: reshard to %d shards outside [1,%d]", m, len(s.workers))
	}
	if m == t.New {
		return nil
	}
	s.migPending.Store(int32(len(s.workers)))
	s.topo.Store(&Topology{Gen: t.Gen + 1, Old: t.New, New: m, Migrating: true})
	return nil
}

// Stable reports whether the current generation has fully drained.
func (s *ShardedServer) Stable() bool { return !s.topo.Load().Migrating }

// Topology snapshots the current partition generation.
func (s *ShardedServer) Topology() Topology { return *s.topo.Load() }

// Generation returns the current keyspace generation number.
func (s *ShardedServer) Generation() uint64 { return s.topo.Load().Gen }

// Active returns the number of shards the keyspace is (being)
// partitioned onto — the New count while a migration drains.
func (s *ShardedServer) Active() int { return s.topo.Load().New }

// pollTopology observes a generation flip, at the end of each step:
// snapshot the keys this worker must ship out under the new partition,
// and — when this worker is retiring (index beyond the new active count) —
// close its accepted connections so clients fail over to the new layout
// immediately rather than idling on a shard RSS no longer feeds.
func (w *shardWorker) pollTopology() {
	t := w.srv.topo.Load()
	if t.Gen == w.gen {
		return
	}
	w.gen = t.Gen
	w.migDone = false
	w.migKeys = w.migKeys[:0]
	for k := range w.store {
		if KeyShard(k, t.New) != w.idx {
			w.migKeys = append(w.migKeys, k)
		}
	}
	if w.idx >= t.New {
		for c := range w.All() {
			w.Drop(c) // retiring; the client redials
		}
	}
	if len(w.migKeys) == 0 {
		w.finishMigration()
	}
}

// stepMigration ships up to migBatch snapshot keys to their new owners.
// Send-before-delete inside one worker goroutine preserves the FIFO
// argument: any forward this worker later emits because the key is gone
// trails the migrate record on the same edge.
func (w *shardWorker) stepMigration() int {
	t := w.srv.topo.Load()
	if !t.Migrating || t.Gen != w.gen || w.migDone {
		return 0
	}
	n := 0
	for n < migBatch && len(w.migKeys) > 0 {
		k := w.migKeys[len(w.migKeys)-1]
		sv, ok := w.store[k]
		if !ok {
			// Deleted since the snapshot; nothing to move.
			w.migKeys = w.migKeys[:len(w.migKeys)-1]
			continue
		}
		dest := KeyShard(k, t.New)
		m := shard.Msg{Op: shard.OpMigrate, Seq: t.Gen, Payload: &migRec{key: k, val: sv}}
		if !w.group.Send(w.idx, dest, m) {
			// Edge full: stop here and retry next step. The key stays
			// served locally in the meantime.
			break
		}
		delete(w.store, k)
		w.ctr.keys.Add(-1)
		w.ctr.bytesStored.Add(-int64(len(sv.val)))
		w.ctr.migratedOut.Add(1)
		w.ctr.busyVirt.Add(int64(w.meshHopCost()))
		w.migKeys = w.migKeys[:len(w.migKeys)-1]
		n++
	}
	if len(w.migKeys) == 0 {
		w.finishMigration()
	}
	return n
}

// finishMigration marks this worker's sweep drained; the last worker to
// drain publishes the stable topology.
func (w *shardWorker) finishMigration() {
	if w.migDone {
		return
	}
	w.migDone = true
	if w.srv.migPending.Add(-1) == 0 {
		t := w.srv.topo.Load()
		w.srv.topo.Store(&Topology{Gen: t.Gen, Old: t.New, New: t.New, Migrating: false})
	}
}

// route locates the shard that should serve key under the current
// topology. serveLocal means this worker executes the request; otherwise
// the request travels to next, and final marks the hop authoritative
// (the receiver executes unconditionally — a miss there is a true miss).
func (w *shardWorker) route(key string) (serveLocal bool, next int, final bool) {
	t := w.srv.topo.Load()
	oNew := KeyShard(key, t.New)
	if !t.Migrating || KeyShard(key, t.Old) == oNew {
		// Steady state, or ownership unchanged across the generations.
		if oNew == w.idx {
			return true, 0, false
		}
		return false, oNew, true
	}
	if _, ok := w.store[key]; ok {
		// Whoever holds the key serves it: the old owner pre-sweep, the
		// new owner post-handoff.
		return true, 0, false
	}
	oOld := KeyShard(key, t.Old)
	switch w.idx {
	case oOld:
		// Gone from the old owner: migrated (or never existed). The new
		// owner is authoritative either way — FIFO edge ordering puts
		// any in-flight migrate record ahead of this forward.
		return false, oNew, true
	default:
		// Entry shard (including oNew itself before the record lands):
		// ask the old owner first.
		return false, oOld, false
	}
}
