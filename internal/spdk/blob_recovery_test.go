package spdk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Recovery-path coverage: torn tails, mid-log corruption, and scans
// racing controller resets. The invariant under test is the one New's
// callers rely on: recovery either reports the exact durable prefix of
// the log or returns an error — it never silently truncates.

// corruptByte flips one byte on media, bypassing the store.
func corruptByte(t *testing.T, d *Device, off int) {
	t.Helper()
	lba := off / BlockSize
	c := d.Execute(Command{Op: OpRead, LBA: lba})
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	blk := append([]byte(nil), c.Data...)
	blk[off%BlockSize] ^= 0xFF
	if c := d.Execute(Command{Op: OpWrite, LBA: lba, Data: blk}); c.Err != nil {
		t.Fatal(c.Err)
	}
}

// seedLog writes n records of the form "rec-i" and returns their byte
// offsets (payload start) in the log.
func seedLog(t *testing.T, d *Device, n int) []int {
	t.Helper()
	s, _, err := NewStore(d)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := s.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int, n)
	for i := 0; i < n; i++ {
		s.mu.Lock()
		offs[i] = s.tail + recordHdrLen
		s.mu.Unlock()
		if _, err := f.Append([]byte(fmt.Sprintf("rec-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return offs
}

func reopen(t *testing.T, d *Device) *Store {
	t.Helper()
	s, _, err := NewStore(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRecords(t *testing.T, s *Store, name string, want int) *File {
	t.Helper()
	f, ok := s.Lookup(name)
	if !ok {
		t.Fatalf("file %q lost in recovery", name)
	}
	if got := f.NumRecords(); got != want {
		t.Fatalf("recovered %d records, want %d", got, want)
	}
	return f
}

func TestRecoveryTornTailRecord(t *testing.T) {
	d := newDev(Config{})
	seedLog(t, d, 5)
	// Simulate a torn append: a valid header claiming a payload that was
	// never fully written (CRC of the real payload, data still zero).
	s := reopen(t, d)
	s.mu.Lock()
	tail := s.tail
	s.mu.Unlock()
	hdr := make([]byte, recordHdrLen)
	binary.BigEndian.PutUint32(hdr[0:4], recordMagic)
	binary.BigEndian.PutUint32(hdr[4:8], 1)
	binary.BigEndian.PutUint32(hdr[8:12], 64)
	binary.BigEndian.PutUint32(hdr[12:16], 0xDEADBEEF)
	blk := d.Execute(Command{Op: OpRead, LBA: tail / BlockSize})
	if blk.Err != nil {
		t.Fatal(blk.Err)
	}
	nb := append([]byte(nil), blk.Data...)
	copy(nb[tail%BlockSize:], hdr)
	if c := d.Execute(Command{Op: OpWrite, LBA: tail / BlockSize, Data: nb}); c.Err != nil {
		t.Fatal(c.Err)
	}

	s2 := reopen(t, d)
	f := mustRecords(t, s2, "data", 5)
	rec, _, err := f.Read(4)
	if err != nil || !bytes.Equal(rec, []byte("rec-004")) {
		t.Fatalf("last good record: %q, %v", rec, err)
	}
	// The torn record is dead: the next append overwrites it and the log
	// stays consistent across another reopen.
	f2, _, err := s2.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	f3 := mustRecords(t, reopen(t, d), "data", 6)
	rec, _, err = f3.Read(5)
	if err != nil || !bytes.Equal(rec, []byte("after-tear")) {
		t.Fatalf("post-tear append: %q, %v", rec, err)
	}
}

func TestRecoveryCRCMismatchMidLog(t *testing.T) {
	d := newDev(Config{})
	offs := seedLog(t, d, 8)
	// Corrupt one payload byte of record 3: the scan must stop before it,
	// keeping records 0..2 and orphaning 3..7 — never resurrecting a
	// record whose checksum fails.
	corruptByte(t, d, offs[3])
	s := reopen(t, d)
	f := mustRecords(t, s, "data", 3)
	for i := 0; i < 3; i++ {
		rec, _, err := f.Read(i)
		if err != nil || !bytes.Equal(rec, []byte(fmt.Sprintf("rec-%03d", i))) {
			t.Fatalf("record %d: %q, %v", i, rec, err)
		}
	}
}

func TestRecoveryCorruptHeaderMagic(t *testing.T) {
	d := newDev(Config{})
	offs := seedLog(t, d, 4)
	corruptByte(t, d, offs[2]-recordHdrLen) // smash record 2's magic
	mustRecords(t, reopen(t, d), "data", 2)
}

func TestRecoveryReturnsDeviceErrors(t *testing.T) {
	d := newDev(Config{})
	seedLog(t, d, 4)
	// A controller reset that outlasts the scan: every read fails, and
	// NewStore must surface the error instead of treating it as log end.
	d.ControllerReset(1 << 20)
	if _, _, err := NewStore(d); !errors.Is(err, ErrDeviceReset) {
		t.Fatalf("err = %v, want ErrDeviceReset", err)
	}
}

func TestRecoveryUnderChaosResets(t *testing.T) {
	d := newDev(Config{})
	seedLog(t, d, 50)

	// Controller resets while opens run. Each attempt either fails with
	// a typed transient error or recovers the full 50 records: a
	// partially scanned (silently truncated) store is the one forbidden
	// outcome. The resets are paced by the device's progress, not by how
	// fast a goroutine can loop: one scan is about 105 block reads, so a
	// reset every resetEvery reads lets about one scan in two finish.
	const resetEvery = 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() { close(stop); wg.Wait() }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := d.Stats().Reads + resetEvery
		for {
			select {
			case <-stop:
				return
			default:
			}
			if reads := d.Stats().Reads; reads >= next {
				d.ControllerReset(3)
				next = reads + resetEvery
			} else {
				runtime.Gosched()
			}
		}
	}()

	// At least 200 attempts, and more until both outcomes have shown, so
	// a resetter the scheduler kept waiting cannot pass the test vacuously.
	recovered, failed := 0, 0
	for i := 0; i < 200 || recovered == 0 || failed == 0; i++ {
		if i == 100_000 {
			t.Fatalf("%d attempts: %d recovered, %d failed", i, recovered, failed)
		}
		s, _, err := NewStore(d)
		if err != nil {
			if !errors.Is(err, ErrDeviceReset) && !errors.Is(err, ErrIO) {
				t.Errorf("attempt %d: unexpected error %v", i, err)
			}
			failed++
			continue
		}
		recovered++
		f, ok := s.Lookup("data")
		if !ok {
			t.Fatalf("attempt %d: clean recovery lost the file", i)
		}
		if got := f.NumRecords(); got != 50 {
			t.Fatalf("attempt %d: silent truncation to %d records", i, got)
		}
	}
}

func TestRecoveryWithInjectedIOErrors(t *testing.T) {
	d := newDev(Config{})
	seedLog(t, d, 30)
	// Each scan performs ~60 block reads; 2% per-command failure makes
	// both clean and failed scans likely across 100 attempts.
	d.SetErrorRate(0.02, 7)
	defer d.SetErrorRate(0, 0)
	sawError, sawClean := false, false
	for i := 0; i < 100; i++ {
		s, _, err := NewStore(d)
		if err != nil {
			if !errors.Is(err, ErrIO) {
				t.Fatalf("attempt %d: err = %v, want ErrIO", i, err)
			}
			sawError = true
			continue
		}
		sawClean = true
		mustRecords(t, s, "data", 30)
	}
	if !sawError || !sawClean {
		t.Fatalf("error/clean mix not exercised: sawError=%v sawClean=%v", sawError, sawClean)
	}
}

func TestAllocBlocksCollidesWithLog(t *testing.T) {
	d := newDev(Config{NumBlocks: 8})
	s, _, err := NewStore(d)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := s.AllocBlocks(4)
	if err != nil || lo != 4 {
		t.Fatalf("first alloc: lo=%d err=%v", lo, err)
	}
	lo, err = s.AllocBlocks(3)
	if err != nil || lo != 1 {
		t.Fatalf("second alloc: lo=%d err=%v", lo, err)
	}
	if _, err := s.AllocBlocks(2); !errors.Is(err, ErrLogFull) {
		t.Fatalf("overcommit: err = %v", err)
	}
	// The log may not grow into reserved blocks either: one block is
	// left, and a record spilling past it must fail.
	f, _, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(make([]byte, 2*BlockSize)); !errors.Is(err, ErrLogFull) {
		t.Fatalf("append into reservation: err = %v", err)
	}
	// Reservations are derived state: a reopen frees them.
	s2 := reopen(t, d)
	if lo, err := s2.AllocBlocks(7); err != nil || lo != 1 {
		t.Fatalf("post-reopen alloc: lo=%d err=%v", lo, err)
	}
}
