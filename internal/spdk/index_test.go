package spdk

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// hostTraverse walks the index on the host, one Execute per node — the
// reference traversal the pushdown engine must match.
func hostTraverse(t *testing.T, d *Device, idx *Index, key []byte) (string, int, bool) {
	t.Helper()
	lba := idx.Root
	for hops := 1; hops <= MaxHops; hops++ {
		c := d.Execute(Command{Op: OpRead, LBA: lba})
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		switch s := IndexStep(key, string(c.Data)); s.Kind {
		case StepNext:
			lba = s.NextLBA
		case StepDone:
			return s.Value, hops, true
		case StepMiss:
			return "", hops, false
		default:
			t.Fatalf("corrupt verdict at LBA %d", lba)
		}
	}
	t.Fatal("traversal did not terminate")
	return "", 0, false
}

func TestIndexBuildShapes(t *testing.T) {
	d := newDev(Config{})
	for _, tc := range []struct {
		keys, fanout, levels int
	}{
		{1, 2, 1},   // single leaf is its own root
		{2, 2, 1},   // still one leaf
		{3, 2, 2},   // two leaves, one root
		{8, 2, 3},   // 4 leaves, 2 inner, root
		{16, 2, 4},  // full depth-3 binary shape
		{64, 8, 2},  // 8 leaves at fanout 8
		{100, 8, 3}, // 13 leaves, 2 inner, root
	} {
		var kvs []KV
		for i := 0; i < tc.keys; i++ {
			kvs = append(kvs, KV{Key: []byte(fmt.Sprintf("k%05d", i)), Val: []byte(fmt.Sprintf("v%d", i))})
		}
		idx, err := BuildIndex(d, seqAlloc(1000), kvs, tc.fanout)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Levels != tc.levels || idx.Depth != tc.levels-1 {
			t.Fatalf("%d keys fanout %d: levels = %d, want %d", tc.keys, tc.fanout, idx.Levels, tc.levels)
		}
		if idx.NumKeys != tc.keys || idx.BuildCost == 0 {
			t.Fatalf("NumKeys = %d BuildCost = %v", idx.NumKeys, idx.BuildCost)
		}
		// Every key resolves in exactly Levels hops.
		for i := 0; i < tc.keys; i++ {
			v, hops, ok := hostTraverse(t, d, idx, []byte(fmt.Sprintf("k%05d", i)))
			if !ok || v != fmt.Sprintf("v%d", i) {
				t.Fatalf("%d keys: key %d -> %q ok=%v", tc.keys, i, v, ok)
			}
			if hops != idx.Levels {
				t.Fatalf("%d keys: key %d took %d hops, want %d", tc.keys, i, hops, idx.Levels)
			}
		}
		// Misses on both flanks and in between.
		for _, miss := range []string{"a", "k00000x", "z"} {
			if _, _, ok := hostTraverse(t, d, idx, []byte(miss)); ok {
				t.Fatalf("ghost hit for %q", miss)
			}
		}
	}
}

func TestIndexDuplicateKeysLastWins(t *testing.T) {
	d := newDev(Config{})
	kvs := []KV{
		{Key: []byte("a"), Val: []byte("old")},
		{Key: []byte("b"), Val: []byte("b1")},
		{Key: []byte("a"), Val: []byte("new")},
	}
	idx, err := BuildIndex(d, seqAlloc(500), kvs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumKeys != 2 {
		t.Fatalf("NumKeys = %d, want 2 after dedupe", idx.NumKeys)
	}
	v, _, ok := hostTraverse(t, d, idx, []byte("a"))
	if !ok || v != "new" {
		t.Fatalf("a -> %q ok=%v, want the last value", v, ok)
	}
}

func TestIndexBuildRejects(t *testing.T) {
	d := newDev(Config{})
	if _, err := BuildIndex(d, seqAlloc(0), nil, 2); !errors.Is(err, ErrIndexEmpty) {
		t.Fatalf("empty: err = %v", err)
	}
	big := KV{Key: bytes.Repeat([]byte("k"), 10), Val: make([]byte, BlockSize)}
	if _, err := BuildIndex(d, seqAlloc(0), []KV{big}, 1); !errors.Is(err, ErrIndexEntryTooBig) {
		t.Fatalf("oversized entry: err = %v", err)
	}
	long := KV{Key: make([]byte, MaxKeyLen+1), Val: []byte("v")}
	if _, err := BuildIndex(d, seqAlloc(0), []KV{long}, 1); !errors.Is(err, ErrIndexEntryTooBig) {
		t.Fatalf("long key: err = %v", err)
	}
	allocFail := func(n int) (int, error) { return 0, ErrLogFull }
	if _, err := BuildIndex(d, allocFail, []KV{{Key: []byte("k"), Val: []byte("v")}}, 2); !errors.Is(err, ErrLogFull) {
		t.Fatalf("alloc failure: err = %v", err)
	}
}

func TestIndexStepRejectsDamage(t *testing.T) {
	d := newDev(Config{})
	idx, _ := buildTestIndex(t, d, 1)
	c := d.Execute(Command{Op: OpRead, LBA: idx.Root})
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	good := append([]byte(nil), c.Data...)
	if s := IndexStep([]byte("key-0000"), string(good)); s.Kind == StepCorrupt {
		t.Fatal("pristine node rejected")
	}
	// Damage every byte of the header region in turn; magic, level, or
	// entry-count corruption must never pass.
	for off := 0; off < 4; off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xFF
		if s := IndexStep([]byte("key-0000"), string(bad)); s.Kind != StepCorrupt {
			t.Fatalf("bad magic byte %d accepted: kind %d", off, s.Kind)
		}
	}
	// Truncated block.
	if s := IndexStep([]byte("key-0000"), string(good[:4])); s.Kind != StepCorrupt {
		t.Fatal("truncated block accepted")
	}
	// Entry count beyond the packed data walks off the block.
	bad := append([]byte(nil), good...)
	bad[6], bad[7] = 0xFF, 0xFF
	if s := IndexStep([]byte("key-0000"), string(bad)); s.Kind != StepCorrupt {
		t.Fatal("inflated nKeys accepted")
	}
}

// TestIndexDecodeKeptPerBlock: the index program decodes a node once per
// installed block. The first lookup that reads a node keeps its decode on
// the block, a later lookup in either mode searches that decode, and a
// write installs a new block that nobody has decoded.
func TestIndexDecodeKeptPerBlock(t *testing.T) {
	d := newDev(Config{})
	idx, keys := buildTestIndex(t, d, 2)
	h := IndexProg{}
	root := d.blocks.get(idx.Root)
	if root.decoded.Load() != nil {
		t.Fatal("the root was decoded before any lookup read it")
	}
	if r := runLookup(t, d, h, idx.Root, keys[0]); r.Err != nil || !r.Found {
		t.Fatalf("pushdown lookup: err=%v found=%v", r.Err, r.Found)
	}
	kept := root.decoded.Load()
	if kept == nil || kept.leaf || len(kept.offs) != 2 {
		t.Fatalf("root decode after a lookup = %+v, want an inner node of 2 entries", kept)
	}
	if r, _ := d.HostLookup(IndexProg{}, idx.Root, keys[len(keys)-1]); r.Err != nil || !r.Found {
		t.Fatalf("host lookup: err=%v found=%v", r.Err, r.Found)
	}
	if root.decoded.Load() != kept {
		t.Fatal("a second lookup decoded the root again")
	}
	if c := d.Execute(Command{Op: OpWrite, LBA: idx.Root, Data: []byte(root.data)}); c.Err != nil {
		t.Fatal(c.Err)
	}
	if b := d.blocks.get(idx.Root); b == root || b.decoded.Load() != nil {
		t.Fatal("a write did not install a new, undecoded block")
	}
	if root.decoded.Load() != kept {
		t.Fatal("a write changed the old block's decode")
	}
}

// TestConcurrentFirstDecodes: lookups from several goroutines at once, in
// both modes, that all read nodes nobody has decoded yet, each find their
// values; the first decode published is the one every later hop reads.
func TestConcurrentFirstDecodes(t *testing.T) {
	d := newDev(Config{})
	idx, keys := buildTestIndex(t, d, 3)
	h := IndexProg{}
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(host bool) {
			defer wg.Done()
			got := make(chan LookupResult, 1)
			done := func(r LookupResult) { got <- r }
			for i, k := range keys {
				var r LookupResult
				if host {
					r, _ = d.HostLookup(IndexProg{}, idx.Root, k)
				} else if err := d.SubmitLookup(h, idx.Root, k, done); err != nil {
					errs <- err
					return
				} else {
				wait:
					for {
						select {
						case r = <-got:
							break wait
						default:
							d.Pump()
						}
					}
				}
				if want := fmt.Sprintf("val-%d", i); r.Err != nil || r.Value != want {
					errs <- fmt.Errorf("key %q (host %v): value %q err %v, want %q", k, host, r.Value, r.Err, want)
					return
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d.blocks.get(idx.Root).decoded.Load() == nil {
		t.Fatal("no decode kept on the root")
	}
}

// TestBlockTableLeaves: the media table allocates a leaf on the first
// write into it, covers a namespace that is no multiple of a leaf, and
// reads an unwritten LBA as the zero block.
func TestBlockTableLeaves(t *testing.T) {
	d := newDev(Config{NumBlocks: leafLen + 3})
	if len(d.blocks) != 2 || d.blocks[0] != nil || d.blocks[1] != nil {
		t.Fatalf("a new table holds %d leaves, want 2 unallocated", len(d.blocks))
	}
	last := d.NumBlocks() - 1
	if c := d.Execute(Command{Op: OpWrite, LBA: last, Data: block('z')}); c.Err != nil {
		t.Fatal(c.Err)
	}
	if d.blocks[0] != nil || d.blocks[1] == nil {
		t.Fatal("a write into the second leaf did not allocate it alone")
	}
	if c := d.Execute(Command{Op: OpRead, LBA: last}); c.Err != nil || !bytes.Equal(c.Data, block('z')) {
		t.Fatalf("read of the last LBA: err=%v", c.Err)
	}
	if d.blocks.get(0) != zeroBlock || d.blocks.get(last-1) != zeroBlock {
		t.Fatal("an unwritten LBA is not the zero block")
	}
	if c := d.Execute(Command{Op: OpWrite, LBA: d.NumBlocks(), Data: block('z')}); !errors.Is(c.Err, ErrOutOfRange) {
		t.Fatalf("write past the namespace: err=%v", c.Err)
	}
}
