package offload

import (
	"bytes"
	"encoding/binary"

	"demikernel/internal/spdk"
)

// This file extends the FilterSpec model from NIC frames to storage
// blocks (§4.2's offload story applied to the paper's storage column):
// one lookup/filter function expressed at both levels. The device level
// is a pushdown program that runs in the NVMe completion path; the host
// level is the CPU fallback the libOS uses when no program is installed
// ("library OSes always implement filters directly on supported devices
// but default to using the CPU if necessary").
//
// The two levels are independent implementations of the same on-block
// format, and they must agree on every block — well-formed or corrupt —
// because a lookup must return byte-identical results whichever side
// runs it. storage_test.go property-tests exactly that.

// BlockLookupSpec is one block-structure lookup expressed at both
// levels.
type BlockLookupSpec struct {
	Name string
	// Host is the CPU implementation: one step of the traversal over a
	// block the device surfaced to the host.
	Host func(key, block []byte) spdk.Step
	// Device is the implementation lowered into the device's completion
	// path.
	Device spdk.Prog
}

// Install admits the spec's device program into dev's pushdown slot
// table, returning the handle for SubmitLookup.
func (s BlockLookupSpec) Install(dev *spdk.Device, cfg spdk.PushdownConfig) (int, error) {
	return dev.InstallPushdown(s.Device, cfg)
}

// IndexLookup returns the spec for the block-resident sorted index
// (spdk.BuildIndex). The device side wraps the canonical spdk.IndexStep;
// the host side is this package's own decoder — binary search over a
// validated entry table, written separately so the agreement property
// test has two real implementations to compare.
func IndexLookup() BlockLookupSpec {
	return BlockLookupSpec{
		Name:   "blockindex",
		Host:   hostIndexStep,
		Device: spdk.IndexProg{},
	}
}

// hostIndexStep is the host-CPU lookup step over one index node block.
// Same verdict contract as spdk.IndexStep: any malformed block is
// StepCorrupt; inner nodes descend to the last entry <= key; leaves
// match exactly.
func hostIndexStep(key, block []byte) spdk.Step {
	entries, level, ok := parseIndexNode(block)
	if !ok {
		return spdk.Step{Kind: spdk.StepCorrupt}
	}
	// Binary search: first entry with key > target.
	hi := sort_Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].key, key) > 0
	})
	if level == 0 {
		if hi > 0 && bytes.Equal(entries[hi-1].key, key) {
			return spdk.Step{Kind: spdk.StepDone, Value: string(entries[hi-1].val)}
		}
		return spdk.Step{Kind: spdk.StepMiss}
	}
	if hi == 0 {
		return spdk.Step{Kind: spdk.StepMiss}
	}
	return spdk.Step{Kind: spdk.StepNext, NextLBA: entries[hi-1].child}
}

type indexEntry struct {
	key   []byte
	val   []byte
	child int
}

// parseIndexNode validates and decodes one node block into an entry
// table. The validation rules — bounds and strictly ascending key order
// — mirror spdk.IndexStep's exactly; the agreement property depends on
// it.
func parseIndexNode(block []byte) (entries []indexEntry, level int, ok bool) {
	const hdr = 8
	if len(block) < hdr || binary.BigEndian.Uint32(block[0:4]) != 0xB7EE1DE5 {
		return nil, 0, false
	}
	level = int(binary.BigEndian.Uint16(block[4:6]))
	nKeys := int(binary.BigEndian.Uint16(block[6:8]))
	if nKeys == 0 {
		return nil, 0, false
	}
	// An entry takes at least 4 bytes, which bounds the table a corrupt
	// count can ask for.
	entries = make([]indexEntry, 0, min(nKeys, (len(block)-hdr)/4))
	off := hdr
	for i := 0; i < nKeys; i++ {
		var e indexEntry
		if level == 0 {
			if off+4 > len(block) {
				return nil, 0, false
			}
			klen := int(binary.BigEndian.Uint16(block[off : off+2]))
			vlen := int(binary.BigEndian.Uint16(block[off+2 : off+4]))
			off += 4
			if off+klen+vlen > len(block) {
				return nil, 0, false
			}
			e = indexEntry{key: block[off : off+klen], val: block[off+klen : off+klen+vlen]}
			off += klen + vlen
		} else {
			if off+6 > len(block) {
				return nil, 0, false
			}
			klen := int(binary.BigEndian.Uint16(block[off : off+2]))
			child := int(binary.BigEndian.Uint32(block[off+2 : off+6]))
			off += 6
			if off+klen > len(block) {
				return nil, 0, false
			}
			e = indexEntry{key: block[off : off+klen], child: child}
			off += klen
		}
		if i > 0 && bytes.Compare(entries[i-1].key, e.key) >= 0 {
			return nil, 0, false
		}
		entries = append(entries, e)
	}
	return entries, level, true
}

// sort_Search is sort.Search without importing sort into the hot-ish
// path (and without allocating).
func sort_Search(n int, f func(int) bool) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !f(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
