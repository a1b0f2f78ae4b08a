// Package offload implements the paper's §4.2–§4.3 offload story: queue
// filter and map functions that a libOS can either run on the host CPU
// (the default fallback) or lower onto the kernel-bypass device ("library
// OSes always implement filters directly on supported devices but default
// to using the CPU if necessary").
//
// It also models the cache-utilisation benefit the paper attributes to
// filters: "they can improve cache utilization by steering I/O to CPUs
// based on application-specific parameters (e.g., keys in a key-value
// store)". The CacheSim type is a per-core LRU model that makes the
// benefit measurable: key-affine steering keeps a key's working set on
// one core; spraying destroys it.
package offload

import (
	"container/list"

	"demikernel/internal/nic"
)

// InstallDrop lowers a filter over raw Ethernet frames onto the device as
// a drop filter: frames keep rejects are discarded in "hardware", costing
// the device's per-element offloaded filter cost but zero host CPU. The
// host CPU's fallback runs the same keep over every frame it receives;
// both deliver the same frames (tests check that). It returns the
// filter-table index.
func InstallDrop(dev *nic.Device, keep func(frame []byte) bool) int {
	return dev.AddFilter(nic.HWFilter{
		Match:  func(f []byte) bool { return !keep(f) },
		Action: nic.ActionDrop,
	})
}

// KeySteering installs one steering filter per receive queue, assigning
// keys to queues by a stable hash of the key bytes extracted by keyOf.
// It models FlexNIC-style key-based steering [32 in the paper].
func KeySteering(dev *nic.Device, nQueues int, keyOf func(frame []byte) ([]byte, bool)) {
	for q := 0; q < nQueues; q++ {
		qq := q
		dev.AddFilter(nic.HWFilter{
			Match: func(f []byte) bool {
				key, ok := keyOf(f)
				if !ok {
					return false
				}
				return int(hashBytes(key))%nQueues == qq
			},
			Action: nic.ActionSteer,
			Queue:  qq,
		})
	}
}

// hashBytes is a small FNV-1a.
func hashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// CacheSim models per-core data caches as independent LRU sets of
// cache-line-sized entries keyed by application keys. It quantifies the
// steering claim: the hit ratio is the observable.
type CacheSim struct {
	cores    []*lru
	hits     int64
	misses   int64
	capacity int
}

// NewCacheSim builds nCores caches of the given entry capacity each.
func NewCacheSim(nCores, capacity int) *CacheSim {
	cs := &CacheSim{capacity: capacity}
	for i := 0; i < nCores; i++ {
		cs.cores = append(cs.cores, newLRU(capacity))
	}
	return cs
}

// Access records core touching key's working set.
func (cs *CacheSim) Access(core int, key string) {
	if cs.cores[core].touch(key) {
		cs.hits++
	} else {
		cs.misses++
	}
}

// HitRatio returns hits / (hits + misses).
func (cs *CacheSim) HitRatio() float64 {
	total := cs.hits + cs.misses
	if total == 0 {
		return 0
	}
	return float64(cs.hits) / float64(total)
}

// Hits returns the raw hit count.
func (cs *CacheSim) Hits() int64 { return cs.hits }

// Misses returns the raw miss count.
func (cs *CacheSim) Misses() int64 { return cs.misses }

// lru is a fixed-capacity LRU set.
type lru struct {
	cap   int
	order *list.List
	index map[string]*list.Element
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), index: make(map[string]*list.Element)}
}

// touch returns true on hit, inserting (and possibly evicting) on miss.
func (l *lru) touch(key string) bool {
	if e, ok := l.index[key]; ok {
		l.order.MoveToFront(e)
		return true
	}
	if l.order.Len() >= l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.index, oldest.Value.(string))
	}
	l.index[key] = l.order.PushFront(key)
	return false
}
