package spdk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"demikernel/internal/simclock"
)

func newDev(cfg Config) *Device {
	model := simclock.Datacenter2019()
	return New(&model, cfg)
}

func block(fill byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestWriteReadBlock(t *testing.T) {
	d := newDev(Config{})
	w := d.Execute(Command{Op: OpWrite, LBA: 7, Data: block('x')})
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	if w.Cost == 0 {
		t.Fatal("write cost not charged")
	}
	r := d.Execute(Command{Op: OpRead, LBA: 7})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Data, block('x')) {
		t.Fatal("read back wrong data")
	}
	if r.Cost >= w.Cost {
		t.Fatalf("NVMe read (%v) should be cheaper than write (%v)", r.Cost, w.Cost)
	}
}

func TestReadUnwrittenBlockIsZero(t *testing.T) {
	d := newDev(Config{})
	r := d.Execute(Command{Op: OpRead, LBA: 3})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Data, make([]byte, BlockSize)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestLBABoundsChecked(t *testing.T) {
	d := newDev(Config{NumBlocks: 8})
	if c := d.Execute(Command{Op: OpRead, LBA: 8}); !errors.Is(c.Err, ErrOutOfRange) {
		t.Fatalf("err = %v", c.Err)
	}
	if c := d.Execute(Command{Op: OpWrite, LBA: -1, Data: block(0)}); !errors.Is(c.Err, ErrOutOfRange) {
		t.Fatalf("err = %v", c.Err)
	}
	if d.Stats().Errors != 2 {
		t.Fatalf("Errors = %d", d.Stats().Errors)
	}
}

func TestWriteWrongLengthRejected(t *testing.T) {
	d := newDev(Config{})
	if _, err := d.submit(Command{Op: OpWrite, LBA: 0, Data: []byte("short")}, nil, false); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	d := newDev(Config{QueueDepth: 4})
	for i := 0; i < 4; i++ {
		if _, err := d.submit(Command{Op: OpRead, LBA: i}, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.submit(Command{Op: OpRead, LBA: 5}, nil, false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v", err)
	}
	if got := d.Poll(0); len(got) != 4 {
		t.Fatalf("completions = %d", len(got))
	}
	// Queue drained: submissions flow again.
	if _, err := d.submit(Command{Op: OpRead, LBA: 5}, nil, false); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitCopiesWriteBuffer(t *testing.T) {
	d := newDev(Config{})
	buf := block('a')
	if _, err := d.submit(Command{Op: OpWrite, LBA: 0, Data: buf}, nil, false); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'Z' // caller reuses its buffer before completion
	d.Poll(0)
	r := d.Execute(Command{Op: OpRead, LBA: 0})
	if r.Data[0] != 'a' {
		t.Fatal("device did not capture write data at submission")
	}
}

func TestAsyncCompletionOrder(t *testing.T) {
	d := newDev(Config{})
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := d.submit(Command{Op: OpWrite, LBA: i, Data: block(byte(i))}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	comps := d.Poll(0)
	if len(comps) != 5 {
		t.Fatalf("completions = %d", len(comps))
	}
	for i, c := range comps {
		if c.ID != ids[i] || c.Err != nil {
			t.Fatalf("completion %d: %+v", i, c)
		}
	}
}

func TestReset(t *testing.T) {
	d := newDev(Config{})
	d.Execute(Command{Op: OpWrite, LBA: 0, Data: block('x')})
	d.submit(Command{Op: OpRead, LBA: 0}, nil, false)
	d.Reset()
	comps := d.Poll(0)
	found := false
	for _, c := range comps {
		if errors.Is(c.Err, ErrDeviceReset) {
			found = true
		}
	}
	if !found {
		t.Fatal("in-flight command not failed by reset")
	}
	r := d.Execute(Command{Op: OpRead, LBA: 0})
	if !bytes.Equal(r.Data, make([]byte, BlockSize)) {
		t.Fatal("storage survived reset")
	}
}

func TestFlushCompletes(t *testing.T) {
	d := newDev(Config{})
	c := d.Execute(Command{Op: OpFlush})
	if c.Err != nil || c.Op != OpFlush {
		t.Fatalf("%+v", c)
	}
	if d.Stats().Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

// --- blob store ---

func TestBlobAppendRead(t *testing.T) {
	d := newDev(Config{})
	s, _, err := NewStore(d)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := s.Open("queue-1")
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("first"), []byte("second record"), make([]byte, 9000)}
	rand.New(rand.NewSource(9)).Read(recs[2])
	for _, r := range recs {
		if _, err := f.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d", f.NumRecords())
	}
	for i, want := range recs {
		got, cost, err := f.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
		if cost == 0 {
			t.Fatal("read cost not charged")
		}
	}
	if _, _, err := f.Read(3); !errors.Is(err, ErrNoSuchRecord) {
		t.Fatalf("err = %v", err)
	}
}

func TestBlobMultipleFiles(t *testing.T) {
	d := newDev(Config{})
	s, _, _ := NewStore(d)
	fa, _, _ := s.Open("a")
	fb, _, _ := s.Open("b")
	fa.Append([]byte("for a"))
	fb.Append([]byte("for b"))
	fa.Append([]byte("a again"))
	ga, _, _ := fa.Read(1)
	gb, _, _ := fb.Read(0)
	if string(ga) != "a again" || string(gb) != "for b" {
		t.Fatalf("cross-file interleave broken: %q %q", ga, gb)
	}
	if len(s.byName) != 2 {
		t.Fatalf("files = %v", s.byName)
	}
}

func TestBlobOpenIdempotent(t *testing.T) {
	d := newDev(Config{})
	s, _, _ := NewStore(d)
	f1, _, _ := s.Open("same")
	f2, _, _ := s.Open("same")
	if f1 != f2 {
		t.Fatal("Open created a duplicate file")
	}
	if _, ok := s.Lookup("same"); !ok {
		t.Fatal("Lookup missed existing file")
	}
	if _, ok := s.Lookup("other"); ok {
		t.Fatal("Lookup invented a file")
	}
}

func TestBlobRecovery(t *testing.T) {
	d := newDev(Config{})
	s, _, _ := NewStore(d)
	f, _, _ := s.Open("persist")
	f.Append([]byte("one"))
	f.Append([]byte("two"))
	g, _, _ := s.Open("other")
	g.Append([]byte("three"))

	// Re-open the same device: the log must rebuild the full index.
	s2, _, err := NewStore(d)
	if err != nil {
		t.Fatal(err)
	}
	f2, ok := s2.Lookup("persist")
	if !ok {
		t.Fatal("file lost across recovery")
	}
	if f2.NumRecords() != 2 {
		t.Fatalf("records after recovery = %d", f2.NumRecords())
	}
	got, _, err := f2.Read(1)
	if err != nil || string(got) != "two" {
		t.Fatalf("got %q err %v", got, err)
	}
	g2, ok := s2.Lookup("other")
	if !ok || g2.NumRecords() != 1 {
		t.Fatal("second file lost across recovery")
	}
	// Appends continue after recovery without clobbering.
	if _, err := f2.Append([]byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = f2.Read(2)
	if string(got) != "post-recovery" {
		t.Fatalf("got %q", got)
	}
	got, _, _ = g2.Read(0)
	if string(got) != "three" {
		t.Fatalf("append after recovery clobbered other file: %q", got)
	}
}

func TestBlobLogFull(t *testing.T) {
	d := newDev(Config{NumBlocks: 2})
	s, _, _ := NewStore(d)
	f, _, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(make([]byte, 3*BlockSize)); !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestPropBlobRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := newDev(Config{})
		s, _, _ := NewStore(d)
		nFiles := 1 + r.Intn(3)
		files := make([]*File, nFiles)
		var want [][][]byte
		for i := range files {
			files[i], _, _ = s.Open(fmt.Sprintf("f%d", i))
			want = append(want, nil)
		}
		for i := 0; i < 30; i++ {
			fi := r.Intn(nFiles)
			rec := make([]byte, r.Intn(2000))
			r.Read(rec)
			if _, err := files[fi].Append(rec); err != nil {
				return false
			}
			want[fi] = append(want[fi], rec)
		}
		// Verify via a fresh recovery.
		s2, _, err := NewStore(d)
		if err != nil {
			return false
		}
		for i := range files {
			f2, ok := s2.Lookup(fmt.Sprintf("f%d", i))
			if !ok || f2.NumRecords() != len(want[i]) {
				return false
			}
			for j, w := range want[i] {
				got, _, err := f2.Read(j)
				if err != nil || !bytes.Equal(got, w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
