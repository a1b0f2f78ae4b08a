package catnap

import (
	"encoding/binary"
	"sync"

	"demikernel/internal/kernel"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// This file gives catnap the same file-queue API catfish offers, but over
// the legacy kernel file path: every push is a write+fsync through the
// page cache and journal, every pop reads back through a syscall and a
// copy. It exists so one application's storage code also runs unmodified
// on the kernel libOS — paying Figure 1's legacy prices, which is exactly
// what experiment E12 measures.
//
// Records are framed SGAs, length-prefixed in the file:
//
//	u32 recLen, recLen bytes (the SGA wire encoding)

// OpenFileQueue returns a file queue over the kernel file system. A disk
// must be attached to the kernel (kernel.AttachDisk).
func (t *Transport) OpenFileQueue(path string) (queue.IoQueue, error) {
	fd, _, err := t.k.OpenFile(path)
	if err != nil {
		return nil, err
	}
	fq := &fileQueue{t: t, fd: fd}
	// Index any records already durable in the file (restart path).
	if err := fq.reindex(); err != nil {
		return nil, err
	}
	return fq, nil
}

type fileQueue struct {
	t  *Transport
	fd kernel.FD

	mu      sync.Mutex
	offsets []int // byte offset of each record's length prefix
	size    int   // bytes indexed so far
	cursor  int
	waiters []queue.DoneFunc
	closed  bool
}

// reindex scans the file for record boundaries.
func (q *fileQueue) reindex() error {
	size, err := q.t.k.FileSize(q.fd)
	if err != nil {
		return err
	}
	off := 0
	for off+4 <= size {
		hdr, _, err := q.t.k.ReadFile(q.fd, off, 4)
		if err != nil {
			return err
		}
		recLen := int(binary.BigEndian.Uint32(hdr))
		if off+4+recLen > size {
			break
		}
		q.offsets = append(q.offsets, off)
		off += 4 + recLen
	}
	q.size = off
	return nil
}

// Push implements queue.IoQueue: write + fsync, with the legacy costs
// charged by the kernel.
func (q *fileQueue) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPush, Err: queue.ErrClosed})
		return
	}
	rec := s.Marshal()
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(rec)), uint32(len(rec)))
	buf = append(buf, rec...)
	start := q.size
	wCost, err := q.t.k.WriteFile(q.fd, buf)
	if err != nil {
		q.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPush, Err: err})
		return
	}
	sCost, err := q.t.k.Fsync(q.fd)
	if err != nil {
		q.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPush, Err: err})
		return
	}
	q.offsets = append(q.offsets, start)
	q.size += len(buf)
	q.mu.Unlock()
	done(queue.Completion{Kind: queue.OpPush, Cost: cost + wCost + sCost})
	q.Pump()
}

// Pop implements queue.IoQueue.
func (q *fileQueue) Pop(done queue.DoneFunc) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
		return
	}
	q.waiters = append(q.waiters, done)
	q.mu.Unlock()
	q.Pump()
}

// Pump implements queue.IoQueue.
func (q *fileQueue) Pump() int {
	n := 0
	for {
		q.mu.Lock()
		if q.closed || len(q.waiters) == 0 || q.cursor >= len(q.offsets) {
			q.mu.Unlock()
			return n
		}
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		off := q.offsets[q.cursor]
		q.cursor++
		q.mu.Unlock()

		hdr, c1, err := q.t.k.ReadFile(q.fd, off, 4)
		if err != nil {
			w(queue.Completion{Kind: queue.OpPop, Err: err})
			continue
		}
		recLen := int(binary.BigEndian.Uint32(hdr))
		rec, c2, err := q.t.k.ReadFile(q.fd, off+4, recLen)
		if err != nil {
			w(queue.Completion{Kind: queue.OpPop, Err: err})
			continue
		}
		s, _, err := sga.Unmarshal(rec)
		if err != nil {
			w(queue.Completion{Kind: queue.OpPop, Err: err})
			continue
		}
		w(queue.Completion{Kind: queue.OpPop, SGA: s, Cost: c1 + c2})
		n++
	}
}

// Close implements queue.IoQueue.
func (q *fileQueue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	q.t.k.Close(q.fd)
	for _, w := range ws {
		w(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
	}
	return nil
}
