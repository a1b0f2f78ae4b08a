package offload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

// The agreement property: the index program (spdk.IndexStep, which
// both lookup modes run) and hostIndexStep below are independent
// decoders of the same on-block format, and they must return
// byte-identical verdicts — on pristine nodes AND on corrupt ones, where
// "how far into the damage did you read" must not leak into the verdict.
// hostIndexStep is the oracle: it decodes the whole node into an entry
// table and binary-searches it, where IndexStep makes one pass over the
// block.

// hostIndexStep is the oracle's step over one index node block. Same
// verdict contract as spdk.IndexStep: any malformed block is
// StepCorrupt; inner nodes descend to the last entry <= key; leaves
// match exactly.
func hostIndexStep(key, block []byte) spdk.Step {
	entries, level, ok := parseIndexNode(block)
	if !ok {
		return spdk.Step{Kind: spdk.StepCorrupt}
	}
	// Binary search: first entry with key > target.
	hi := sort.Search(len(entries), func(i int) bool {
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

func stepsEqual(a, b spdk.Step) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case spdk.StepNext:
		return a.NextLBA == b.NextLBA
	case spdk.StepDone:
		return a.Value == b.Value
	}
	return true
}

// makeLeaf packs a well-formed leaf node.
func makeLeaf(kvs []spdk.KV) []byte {
	node := make([]byte, spdk.BlockSize)
	binary.BigEndian.PutUint32(node[0:4], 0xB7EE1DE5)
	binary.BigEndian.PutUint16(node[4:6], 0)
	binary.BigEndian.PutUint16(node[6:8], uint16(len(kvs)))
	off := 8
	for _, kv := range kvs {
		binary.BigEndian.PutUint16(node[off:off+2], uint16(len(kv.Key)))
		binary.BigEndian.PutUint16(node[off+2:off+4], uint16(len(kv.Val)))
		off += 4
		off += copy(node[off:], kv.Key)
		off += copy(node[off:], kv.Val)
	}
	return node
}

// makeInner packs a well-formed inner node at the given level.
func makeInner(level int, keys [][]byte, children []int) []byte {
	node := make([]byte, spdk.BlockSize)
	binary.BigEndian.PutUint32(node[0:4], 0xB7EE1DE5)
	binary.BigEndian.PutUint16(node[4:6], uint16(level))
	binary.BigEndian.PutUint16(node[6:8], uint16(len(keys)))
	off := 8
	for i, k := range keys {
		binary.BigEndian.PutUint16(node[off:off+2], uint16(len(k)))
		binary.BigEndian.PutUint32(node[off+2:off+6], uint32(children[i]))
		off += 6
		off += copy(node[off:], k)
	}
	return node
}

func randKey(rng *rand.Rand) []byte {
	k := make([]byte, 1+rng.Intn(12))
	rng.Read(k)
	return k
}

// randNode builds a random well-formed node block.
func randNode(rng *rand.Rand) []byte {
	n := 1 + rng.Intn(12)
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < n {
		k := randKey(rng)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	sortKeys(keys)
	if rng.Intn(2) == 0 {
		var kvs []spdk.KV
		for _, k := range keys {
			v := make([]byte, rng.Intn(24))
			rng.Read(v)
			kvs = append(kvs, spdk.KV{Key: k, Val: v})
		}
		return makeLeaf(kvs)
	}
	children := make([]int, len(keys))
	for i := range children {
		children[i] = rng.Intn(1 << 16)
	}
	return makeInner(1+rng.Intn(3), keys, children)
}

func sortKeys(keys [][]byte) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && bytes.Compare(keys[j], keys[j-1]) < 0; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func checkAgreement(t *testing.T, tag string, key, block []byte) {
	t.Helper()
	prog := spdk.IndexStep(key, string(block))
	oracle := hostIndexStep(key, block)
	if !stepsEqual(prog, oracle) {
		t.Fatalf("%s: program %+v != oracle %+v (key %x)", tag, prog, oracle, key)
	}
}

// probe wraps the index program, records its verdict on the block the
// device hands it, and ends the walk there, so a lookup shows the one
// step whatever its verdict.
type probe struct {
	got   spdk.Step
	block string
}

func (p *probe) Name() string { return "probe" }

func (p *probe) Step(key []byte, b *spdk.Block) spdk.Step {
	p.got, p.block = IndexLookup().Step(key, b), b.Data()
	return spdk.Step{Kind: spdk.StepMiss}
}

// checkDeviceAgreement installs block (cut or zero-padded to one device
// block) on a device and looks key up in it twice: a pushdown lookup,
// whose program decodes the block cold, then a host fallback, which finds
// the decode the first one kept on the block. Both verdicts must be the
// oracle's on the installed block.
func checkDeviceAgreement(t *testing.T, tag string, key, block []byte) {
	t.Helper()
	model := simclock.Datacenter2019()
	dev := spdk.New(&model, spdk.Config{NumBlocks: 1})
	installed := make([]byte, spdk.BlockSize)
	copy(installed, block)
	if c := dev.Execute(spdk.Command{Op: spdk.OpWrite, LBA: 0, Data: installed}); c.Err != nil {
		t.Fatal(c.Err)
	}
	p := &probe{}
	var r spdk.LookupResult
	got := false
	err := dev.SubmitLookup(p, 0, key, func(res spdk.LookupResult) { r, got = res, true })
	if len(key) > spdk.MaxKeyLen {
		// The device refuses the key in both modes; no program runs.
		if _, reads := dev.HostLookup(p, 0, key); !errors.Is(err, spdk.ErrKeyTooLong) || reads != 0 {
			t.Fatalf("%s: a %d-byte key was taken: err %v, %d host reads", tag, len(key), err, reads)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	for !got {
		dev.Pump()
	}
	oracle := hostIndexStep(key, installed)
	for _, pass := range []string{"cold", "warm"} {
		if pass == "warm" {
			r, _ = dev.HostLookup(p, 0, key)
		}
		if r.Err != nil || r.Hops != 1 {
			t.Fatalf("%s: %s lookup ended with err %v after %d hops", tag, pass, r.Err, r.Hops)
		}
		if p.block != string(installed) {
			t.Fatalf("%s: %s lookup's program saw other bytes than were written", tag, pass)
		}
		if !stepsEqual(p.got, oracle) {
			t.Fatalf("%s: %s program %+v != oracle %+v (key %x)", tag, pass, p.got, oracle, key)
		}
	}
}

func TestIndexStepAgreementWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		block := randNode(rng)
		// Probe with an absent random key, and with a key present in the
		// node (read back out of the packed bytes so aliasing matches).
		checkAgreement(t, "rand-key", randKey(rng), block)
		nKeys := int(binary.BigEndian.Uint16(block[6:8]))
		level := int(binary.BigEndian.Uint16(block[4:6]))
		pick := rng.Intn(nKeys)
		off := 8
		var key []byte
		for j := 0; j <= pick; j++ {
			klen := int(binary.BigEndian.Uint16(block[off : off+2]))
			if level == 0 {
				vlen := int(binary.BigEndian.Uint16(block[off+2 : off+4]))
				key = block[off+4 : off+4+klen]
				off += 4 + klen + vlen
			} else {
				key = block[off+6 : off+6+klen]
				off += 6 + klen
			}
		}
		checkAgreement(t, "present-key", key, block)
	}
}

func TestIndexStepAgreementCorrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		block := randNode(rng)
		// Mutate 1..8 random bytes anywhere in the block: headers, entry
		// headers, keys, values, padding.
		for m := 0; m <= rng.Intn(8); m++ {
			block[rng.Intn(len(block))] ^= byte(1 + rng.Intn(255))
		}
		key := randKey(rng)
		checkAgreement(t, "mutated", key, block)
		checkDeviceAgreement(t, "mutated", key, block)
	}
}

func TestIndexStepAgreementGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		block := make([]byte, spdk.BlockSize)
		rng.Read(block)
		if rng.Intn(4) == 0 {
			// Plant the magic so parsing gets past the header.
			binary.BigEndian.PutUint32(block[0:4], 0xB7EE1DE5)
		}
		checkAgreement(t, "garbage", randKey(rng), block)
	}
	// Truncated blocks.
	for i := 0; i < 100; i++ {
		block := make([]byte, rng.Intn(16))
		rng.Read(block)
		checkAgreement(t, "short", randKey(rng), block)
	}
}

// End-to-end: a full traversal over a built index returns byte-identical
// results through the device's traversal of the index program and the
// oracle's.
func TestIndexLookupEndToEndAgreement(t *testing.T) {
	model := simclock.Datacenter2019()
	dev := spdk.New(&model, spdk.Config{})
	var kvs []spdk.KV
	for i := 0; i < 200; i++ {
		kvs = append(kvs, spdk.KV{
			Key: []byte(fmt.Sprintf("user:%04d", i*3)),
			Val: []byte(fmt.Sprintf("profile-%d", i)),
		})
	}
	next := 100
	alloc := func(n int) (int, error) { lba := next; next += n; return lba, nil }
	idx, err := spdk.BuildIndex(dev, alloc, kvs, 4)
	if err != nil {
		t.Fatal(err)
	}
	traverse := func(step func(key, block []byte) spdk.Step, key []byte) (string, bool) {
		lba := idx.Root
		for hops := 0; hops < spdk.MaxHops; hops++ {
			c := dev.Execute(spdk.Command{Op: spdk.OpRead, LBA: lba})
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			switch s := step(key, c.Data); s.Kind {
			case spdk.StepNext:
				lba = s.NextLBA
			case spdk.StepDone:
				return s.Value, true
			case spdk.StepMiss:
				return "", false
			default:
				t.Fatalf("corrupt verdict on pristine index at LBA %d", lba)
			}
		}
		t.Fatal("no termination")
		return "", false
	}
	probe := [][]byte{[]byte("user:0000"), []byte("user:0300"), []byte("user:0001"), []byte("zzz"), []byte("a")}
	for i := 0; i < 200; i++ {
		probe = append(probe, []byte(fmt.Sprintf("user:%04d", i*3)))
	}
	for _, key := range probe {
		r, _ := dev.HostLookup(IndexLookup(), idx.Root, key)
		if r.Err != nil {
			t.Fatalf("key %q: %v", key, r.Err)
		}
		ov, ook := traverse(hostIndexStep, key)
		if r.Found != ook || r.Value != ov {
			t.Fatalf("key %q: program (%q,%v) != oracle (%q,%v)", key, r.Value, r.Found, ov, ook)
		}
	}
}

// FuzzIndexStep is the agreement property under a fuzzer: on any key and
// block, the index program and the oracle give the same verdict, the
// same next LBA and the same value bytes, cold (IndexStep) and through a
// device, where the block is installed and looked up twice, once to
// decode it and once over the decode the device kept. The committed
// corpus holds a leaf, an inner node, a truncated entry, keys out of
// order, a bad magic and a node of no keys.
func FuzzIndexStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, block []byte) {
		checkAgreement(t, "fuzz", key, block)
		checkDeviceAgreement(t, "fuzz", key, block)
	})
}
