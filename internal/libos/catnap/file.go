package catnap

import (
	"encoding/binary"
	"sync"

	"demikernel/internal/kernel"
	"demikernel/internal/queue"
	"demikernel/internal/simclock"
)

// This file gives catnap the file queues catfish has (queue.FileQueue),
// over the legacy kernel file path: every push is a write+fsync through
// the page cache and journal, every pop reads back through a syscall and a
// copy. Storage code thus runs unmodified on the kernel libOS too, paying
// Figure 1's legacy prices, which is what experiment E12 measures.

// fileLog is one path's kernel file as a queue.Log, open on one FD for
// the transport's life. Each record is a u32 length and then the SGA wire
// encoding.
type fileLog struct {
	k  *kernel.Kernel
	fd kernel.FD

	mu      sync.Mutex
	offsets []int // byte offset of each record's length prefix
	size    int   // where the next record's length prefix goes
}

// openLog opens path's kernel file and indexes the records already
// durable in it (the restart path). A disk must be attached to the
// kernel (kernel.AttachDisk).
func (t *Transport) openLog(path string) (queue.Log, error) {
	fd, _, err := t.k.OpenFile(path)
	if err != nil {
		return nil, err
	}
	size, err := t.k.FileSize(fd)
	if err != nil {
		return nil, err
	}
	l := &fileLog{k: t.k, fd: fd}
	for l.size+4 <= size {
		hdr, _, err := t.k.ReadFile(fd, l.size, 4)
		if err != nil {
			return nil, err
		}
		end := l.size + 4 + int(binary.BigEndian.Uint32(hdr))
		if end > size {
			break
		}
		l.offsets = append(l.offsets, l.size)
		l.size = end
	}
	return l, nil
}

// Append implements queue.Log: write + fsync, with the legacy costs
// charged by the kernel.
func (l *fileLog) Append(rec []byte) (simclock.Lat, error) {
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(rec)), uint32(len(rec)))
	buf = append(buf, rec...)
	l.mu.Lock()
	defer l.mu.Unlock()
	cost, err := l.k.WriteFile(l.fd, buf)
	if err != nil {
		return cost, err
	}
	l.size += len(buf)
	sCost, err := l.k.Fsync(l.fd)
	if err == nil {
		l.offsets = append(l.offsets, l.size-len(buf))
	}
	return cost + sCost, err
}

// Len implements queue.Log.
func (l *fileLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.offsets)
}

// Read implements queue.Log: the length prefix, then the record, each a
// kernel read.
func (l *fileLog) Read(i int) ([]byte, simclock.Lat, error) {
	l.mu.Lock()
	off := l.offsets[i]
	l.mu.Unlock()
	hdr, c1, err := l.k.ReadFile(l.fd, off, 4)
	if err != nil {
		return nil, c1, err
	}
	rec, c2, err := l.k.ReadFile(l.fd, off+4, int(binary.BigEndian.Uint32(hdr)))
	return rec, c1 + c2, err
}
