package spdk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"demikernel/internal/simclock"
)

// This file implements the accelerator-specific storage layout the paper
// sketches in §5.3: because each Demikernel libOS serves a single
// application, it need not pay for a general-purpose UNIX file system; a
// log-structured record store is enough and much cheaper.
//
// On-device layout: an append-only log of records packed across blocks.
//
//	record := magic(4) fileID(4) len(4) crc32(4) payload(len)
//
// fileID 0 is reserved for file-creation records whose payload is the
// file name; data records reference the fileID assigned at creation.
// Recovery is a single forward scan that stops at the first invalid
// record.

// recordMagic marks the start of every record.
const recordMagic = 0xDEB10B05

// recordHdrLen is the fixed record header size.
const recordHdrLen = 16

// Errors returned by the blob store.
var (
	ErrNoSuchFile   = errors.New("spdk/blob: no such file")
	ErrNoSuchRecord = errors.New("spdk/blob: record index out of range")
	ErrLogFull      = errors.New("spdk/blob: log full")
)

type recordRef struct {
	off int // byte offset of the payload in the log
	len int
}

// File is one named record stream in a Store.
type File struct {
	store *Store
	id    uint32
	name  string
	recs  []recordRef
}

// Store is a log-structured record store over one device namespace.
// It is safe for concurrent use.
type Store struct {
	dev *Device

	mu     sync.Mutex
	tail   int // next free byte offset in the log
	byName map[string]*File
	byID   map[uint32]*File
	nextID uint32
	// tailBlk caches the partially written tail block so appends are
	// read-modify-write-free.
	tailBlk []byte
	// hiBlk is the lowest LBA handed out to raw-block allocations
	// (AllocBlocks): the log grows up from 0, raw blocks grow down from
	// the top. Raw allocations are derived state (the block index is
	// rebuilt at open), so recovery resets hiBlk to the namespace top.
	hiBlk int
}

// NewStore opens (and recovers) the store on dev. A fresh device yields an
// empty store; a device carrying a previous log is scanned and its files
// and records re-indexed.
func NewStore(dev *Device) (*Store, simclock.Lat, error) {
	s := &Store{
		dev:     dev,
		byName:  make(map[string]*File),
		byID:    make(map[uint32]*File),
		tailBlk: make([]byte, BlockSize),
	}
	cost, err := s.recover()
	return s, cost, err
}

// recover scans the log forward, rebuilding the index. A device error
// mid-scan (controller reset, injected media error) is returned rather
// than silently treated as the end of the log — a truncated recovery
// would orphan durable records — so the caller can retry; each attempt
// starts from a clean slate.
func (s *Store) recover() (simclock.Lat, error) {
	s.byName = make(map[string]*File)
	s.byID = make(map[uint32]*File)
	s.nextID = 0
	s.hiBlk = s.dev.NumBlocks()
	var cost simclock.Lat
	off := 0
	for {
		hdr, c, err := s.readBytes(off, recordHdrLen)
		cost += c
		if errors.Is(err, ErrOutOfRange) {
			break // ran off the namespace: log ends here
		}
		if err != nil {
			return cost, err // device error: the scan must be retried
		}
		if binary.BigEndian.Uint32(hdr[0:4]) != recordMagic {
			break
		}
		fileID := binary.BigEndian.Uint32(hdr[4:8])
		plen := int(binary.BigEndian.Uint32(hdr[8:12]))
		wantCRC := binary.BigEndian.Uint32(hdr[12:16])
		payload, c2, err := s.readBytes(off+recordHdrLen, plen)
		cost += c2
		if err != nil && !errors.Is(err, ErrOutOfRange) {
			return cost, err
		}
		if err != nil || crc32.ChecksumIEEE(payload) != wantCRC {
			break // torn or corrupt record: the log ends before it
		}
		if fileID == 0 {
			s.indexCreate(string(payload))
		} else if f, ok := s.byID[fileID]; ok {
			f.recs = append(f.recs, recordRef{off: off + recordHdrLen, len: plen})
		}
		off += recordHdrLen + plen
	}
	s.tail = off
	// Prime the tail block cache.
	blk := off / BlockSize
	if blk < s.dev.NumBlocks() {
		c := s.dev.Execute(Command{Op: OpRead, LBA: blk})
		cost += c.Cost
		if c.Err != nil {
			return cost, c.Err
		}
		copy(s.tailBlk, c.Data)
	}
	return cost, nil
}

// AllocBlocks reserves n contiguous raw blocks from the top of the
// namespace, below any previous reservation, and returns the first LBA.
// The record log and raw allocations share the namespace from opposite
// ends; ErrLogFull when they would meet. Reservations are not persisted:
// they hold derived state (the block-resident index) that is rebuilt at
// open time.
func (s *Store) AllocBlocks(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("spdk/blob: bad allocation size %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := s.hiBlk - n
	if lo*BlockSize < s.tail {
		return 0, ErrLogFull
	}
	s.hiBlk = lo
	return lo, nil
}

func (s *Store) indexCreate(name string) *File {
	s.nextID++
	f := &File{store: s, id: s.nextID, name: name}
	s.byName[name] = f
	s.byID[f.id] = f
	return f
}

// Open returns the named file, creating it (with a durable creation
// record) if needed. The returned cost covers any device writes.
func (s *Store) Open(name string) (*File, simclock.Lat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.byName[name]; ok {
		return f, 0, nil
	}
	cost, err := s.appendLocked(0, []byte(name))
	if err != nil {
		return nil, cost, err
	}
	return s.indexCreate(name), cost, nil
}

// Lookup returns an existing file without creating it.
func (s *Store) Lookup(name string) (*File, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byName[name]
	return f, ok
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// NumRecords returns the number of records appended to the file.
func (f *File) NumRecords() int {
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	return len(f.recs)
}

// Append durably appends one record and returns the charged device cost.
func (f *File) Append(payload []byte) (simclock.Lat, error) {
	s := f.store
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.tail + recordHdrLen
	cost, err := s.appendLocked(f.id, payload)
	if err != nil {
		return cost, err
	}
	f.recs = append(f.recs, recordRef{off: start, len: len(payload)})
	return cost, nil
}

// Read returns record i of the file.
func (f *File) Read(i int) ([]byte, simclock.Lat, error) {
	s := f.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(f.recs) {
		return nil, 0, fmt.Errorf("%w: %d of %d", ErrNoSuchRecord, i, len(f.recs))
	}
	ref := f.recs[i]
	data, cost, err := s.readBytes(ref.off, ref.len)
	return data, cost, err
}

// appendLocked writes one record at the tail.
func (s *Store) appendLocked(fileID uint32, payload []byte) (simclock.Lat, error) {
	rec := make([]byte, 0, recordHdrLen+len(payload))
	rec = binary.BigEndian.AppendUint32(rec, recordMagic)
	rec = binary.BigEndian.AppendUint32(rec, fileID)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)

	if s.tail+len(rec) > s.hiBlk*BlockSize {
		// The log may not grow into the raw-block region (AllocBlocks).
		return 0, ErrLogFull
	}

	// Work on a scratch copy of the tail block and commit it (and the
	// tail offset) only after every device write succeeded. A failed
	// write — injected error, controller reset — therefore leaves the
	// in-memory state untouched, and retrying the append rewrites the
	// same byte range idempotently.
	var cost simclock.Lat
	off := s.tail
	tb := append([]byte(nil), s.tailBlk...)
	for len(rec) > 0 {
		blk := off / BlockSize
		blkOff := off % BlockSize
		n := copy(tb[blkOff:], rec)
		c := s.dev.Execute(Command{Op: OpWrite, LBA: blk, Data: tb})
		if c.Err != nil {
			return cost, c.Err
		}
		cost += c.Cost
		rec = rec[n:]
		off += n
		if off%BlockSize == 0 {
			// Moved past a block boundary: fresh tail block.
			for i := range tb {
				tb[i] = 0
			}
		}
	}
	s.tail = off
	copy(s.tailBlk, tb)
	return cost, nil
}

// readBytes reads an arbitrary byte range through block reads.
func (s *Store) readBytes(off, n int) ([]byte, simclock.Lat, error) {
	if n < 0 || off < 0 || off+n > s.dev.NumBlocks()*BlockSize {
		return nil, 0, ErrOutOfRange
	}
	out := make([]byte, 0, n)
	var cost simclock.Lat
	for n > 0 {
		blk := off / BlockSize
		blkOff := off % BlockSize
		c := s.dev.Execute(Command{Op: OpRead, LBA: blk})
		if c.Err != nil {
			return nil, cost, c.Err
		}
		cost += c.Cost
		take := min(n, BlockSize-blkOff)
		out = append(out, c.Data[blkOff:blkOff+take]...)
		off += take
		n -= take
	}
	return out, cost, nil
}
