package spdk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"demikernel/internal/simclock"
)

// This file implements the block-resident sorted index a pushdown lookup
// traverses: a static B-tree bulk-built over raw device blocks, one node
// per block. It is the §5.3 idea taken one step further — not just an
// accelerator-specific *layout*, but one whose traversal can run where
// the data is (pushdown.go) instead of bouncing every node through the
// host.
//
// Node block layout (big-endian), one node per 4 KB block:
//
//	off 0  u32  nodeMagic
//	off 4  u16  level   (0 = leaf)
//	off 6  u16  nKeys
//	off 8  entries, packed:
//	       leaf:  u16 klen, u16 vlen, key, value
//	       inner: u16 klen, u32 childLBA, key
//
// Inner entries are sorted ascending; entry i's key is the smallest key
// of its subtree, so a lookup descends to the last entry whose key is
// <= the target and misses if the target precedes the first entry.
// The index is rebuilt at open time (it is derived state, like a cache);
// only the record log below it is recovered.

// nodeMagic marks every index node block.
const nodeMagic = 0xB7EE1DE5

// indexHdrLen is the fixed node header size.
const indexHdrLen = 8

// Index-build errors.
var (
	ErrIndexEntryTooBig = errors.New("spdk/index: entry exceeds block capacity")
	ErrIndexEmpty       = errors.New("spdk/index: no keys")
)

// KV is one key/value pair fed to BuildIndex.
type KV struct {
	Key, Val []byte
}

// Index describes a built block-resident index.
type Index struct {
	Root    int // root node LBA
	Levels  int // block reads per lookup (root..leaf)
	Depth   int // descents per lookup = Levels - 1
	Fanout  int
	NumKeys int
	// BuildCost is the accumulated virtual device cost of writing the
	// nodes.
	BuildCost simclock.Lat
}

// IndexStep is the lookup step over one node block, cold: it decodes the
// block and searches the result, as IndexProg does on a block whose
// decode nobody kept yet. decode is the only decoder of the node format
// and search the only search, so package offload's tests, which hold
// IndexStep byte for byte to an independent full decode, hold the
// device's program to it too.
func IndexStep(key []byte, block string) Step { return decode(block).search(key, block) }

// entryTable is what the whole-node validation makes of one block: the
// node's kind and the offset of each of its entries, whose key, value and
// child are re-read from the block. A corrupt block's table has no
// entries. Offsets are 32-bit so IndexStep decodes a string of any
// length; a device block needs 12 bits.
type entryTable struct {
	leaf bool
	offs []uint32
}

// corruptNode is the table of every block that fails validation.
var corruptNode = &entryTable{}

// decode validates a whole node — bounds and strictly ascending key
// order — before any search reads it, so a block that is corrupt
// anywhere is StepCorrupt everywhere, however far into the damage a
// lookup reads.
func decode(block string) *entryTable {
	if len(block) < indexHdrLen || be32(block, 0) != nodeMagic {
		return corruptNode
	}
	leaf := be16(block, 4) == 0
	nKeys := be16(block, 6)
	// An entry's header: leaf u16 klen, u16 vlen; inner u16 klen, u32
	// child. A count the block cannot hold is corrupt before any entry
	// is read.
	hdr := 6
	if leaf {
		hdr = 4
	}
	if nKeys == 0 || nKeys > (len(block)-indexHdrLen)/hdr {
		return corruptNode
	}
	offs := make([]uint32, nKeys)
	off := indexHdrLen
	var prev string
	for i := range offs {
		if off+hdr > len(block) {
			return corruptNode
		}
		klen := be16(block, off)
		end := off + hdr + klen
		if leaf {
			end += be16(block, off+2)
		}
		if end > len(block) {
			return corruptNode
		}
		k := block[off+hdr : off+hdr+klen]
		if i > 0 && prev >= k {
			return corruptNode
		}
		offs[i], prev, off = uint32(off), k, end
	}
	return &entryTable{leaf: leaf, offs: offs}
}

// search is the lookup step over a validated node: a binary search for
// the last entry whose key is <= key. An inner node descends to it and
// misses if key precedes the first entry; a leaf matches it exactly.
func (n *entryTable) search(key []byte, block string) Step {
	if len(n.offs) == 0 {
		return Step{Kind: StepCorrupt}
	}
	hdr := 6
	if n.leaf {
		hdr = 4
	}
	// lo ends at the first entry whose key is > key.
	lo, hi := 0, len(n.offs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		off := int(n.offs[m])
		if block[off+hdr:off+hdr+be16(block, off)] <= string(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		// The target precedes every key in the node.
		return Step{Kind: StepMiss}
	}
	off := int(n.offs[lo-1])
	if !n.leaf {
		return Step{Kind: StepNext, NextLBA: int(be32(block, off+2))}
	}
	k := off + hdr + be16(block, off)
	if block[off+hdr:k] != string(key) {
		return Step{Kind: StepMiss}
	}
	return Step{Kind: StepDone, Value: block[k : k+be16(block, off+2)]}
}

// be16 and be32 decode the big-endian fields of a node block.
func be16(b string, off int) int { return int(b[off])<<8 | int(b[off+1]) }

func be32(b string, off int) uint32 {
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
}

// IndexProg is the lookup program over index node blocks. It decodes a
// block the first time any lookup reads it and keeps the decode on the
// block: a block never changes, so every later hop over it is a binary
// search, in either lookup mode.
type IndexProg struct{}

// Name implements Prog.
func (IndexProg) Name() string { return "blockindex" }

// Step implements Prog.
func (IndexProg) Step(key []byte, b *Block) Step { return b.entryTable().search(key, b.data) }

// entryTable is the block's decode, made by the first lookup that reads
// the block. Concurrent first decodes of one block are equal, so the
// first one published wins.
func (b *Block) entryTable() *entryTable {
	if n := b.decoded.Load(); n != nil {
		return n
	}
	b.decoded.CompareAndSwap(nil, decode(b.data))
	return b.decoded.Load()
}

// BuildIndex bulk-builds a static index over kvs with the given fanout
// (entries per node; 0 = 8). alloc reserves n contiguous raw blocks and
// returns the first LBA — typically (*Store).AllocBlocks, so the index
// lives above the record log on the same namespace. Duplicate keys keep
// the last value.
func BuildIndex(dev *Device, alloc func(n int) (int, error), kvs []KV, fanout int) (*Index, error) {
	if fanout <= 0 {
		fanout = 8
	}
	if fanout > 0xFFFF {
		return nil, fmt.Errorf("spdk/index: fanout %d too large", fanout)
	}
	sorted := append([]KV(nil), kvs...)
	sort.SliceStable(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	// Dedupe, last value wins.
	uniq := sorted[:0]
	for _, kv := range sorted {
		if len(uniq) > 0 && bytes.Equal(uniq[len(uniq)-1].Key, kv.Key) {
			uniq[len(uniq)-1] = kv
			continue
		}
		uniq = append(uniq, kv)
	}
	if len(uniq) == 0 {
		return nil, ErrIndexEmpty
	}

	idx := &Index{Fanout: fanout, NumKeys: len(uniq)}
	writeNode := func(lba int, node []byte) error {
		c := dev.Execute(Command{Op: OpWrite, LBA: lba, Data: node})
		if c.Err != nil {
			return c.Err
		}
		idx.BuildCost += c.Cost
		return nil
	}

	// sep is one parent-level entry: the subtree's smallest key and its
	// node's LBA.
	type sep struct {
		key []byte
		lba int
	}

	// Leaf level.
	nLeaves := (len(uniq) + fanout - 1) / fanout
	base, err := alloc(nLeaves)
	if err != nil {
		return nil, err
	}
	var level []sep
	node := make([]byte, BlockSize)
	for i := 0; i < nLeaves; i++ {
		part := uniq[i*fanout : min((i+1)*fanout, len(uniq))]
		for b := range node {
			node[b] = 0
		}
		binary.BigEndian.PutUint32(node[0:4], nodeMagic)
		binary.BigEndian.PutUint16(node[4:6], 0)
		binary.BigEndian.PutUint16(node[6:8], uint16(len(part)))
		off := indexHdrLen
		for _, kv := range part {
			if len(kv.Key) > MaxKeyLen || len(kv.Val) > 0xFFFF || off+4+len(kv.Key)+len(kv.Val) > BlockSize {
				return nil, fmt.Errorf("%w: key %d + val %d bytes at offset %d", ErrIndexEntryTooBig, len(kv.Key), len(kv.Val), off)
			}
			binary.BigEndian.PutUint16(node[off:off+2], uint16(len(kv.Key)))
			binary.BigEndian.PutUint16(node[off+2:off+4], uint16(len(kv.Val)))
			off += 4
			off += copy(node[off:], kv.Key)
			off += copy(node[off:], kv.Val)
		}
		if err := writeNode(base+i, node); err != nil {
			return nil, err
		}
		level = append(level, sep{key: part[0].Key, lba: base + i})
	}
	idx.Levels = 1

	// Inner levels, bottom up, until a single root remains.
	for lvl := 1; len(level) > 1; lvl++ {
		nNodes := (len(level) + fanout - 1) / fanout
		base, err := alloc(nNodes)
		if err != nil {
			return nil, err
		}
		var parent []sep
		for i := 0; i < nNodes; i++ {
			part := level[i*fanout : min((i+1)*fanout, len(level))]
			for b := range node {
				node[b] = 0
			}
			binary.BigEndian.PutUint32(node[0:4], nodeMagic)
			binary.BigEndian.PutUint16(node[4:6], uint16(lvl))
			binary.BigEndian.PutUint16(node[6:8], uint16(len(part)))
			off := indexHdrLen
			for _, s := range part {
				if off+6+len(s.key) > BlockSize {
					return nil, fmt.Errorf("%w: separator %d bytes at offset %d", ErrIndexEntryTooBig, len(s.key), off)
				}
				binary.BigEndian.PutUint16(node[off:off+2], uint16(len(s.key)))
				binary.BigEndian.PutUint32(node[off+2:off+6], uint32(s.lba))
				off += 6
				off += copy(node[off:], s.key)
			}
			if err := writeNode(base+i, node); err != nil {
				return nil, err
			}
			parent = append(parent, sep{key: part[0].key, lba: base + i})
		}
		level = parent
		idx.Levels++
	}
	idx.Root = level[0].lba
	idx.Depth = idx.Levels - 1
	return idx, nil
}
