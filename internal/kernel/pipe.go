package kernel

import (
	"io"

	"demikernel/internal/simclock"
)

// pipe is a classic UNIX pipe: a bounded in-kernel byte stream. The point
// the paper makes in §3.2 is that this abstraction forces applications to
// "operate on streams of data" — a reader can observe an arbitrary prefix
// of a message and must re-assemble and re-inspect it, unlike a
// Demikernel queue whose pop yields a whole element or nothing.
type pipe struct {
	buf      []byte
	capacity int
	wrClosed bool
	// rxCost carries the accumulated virtual cost of the newest bytes.
	rxCost simclock.Lat
}

// pipeCapacity matches the traditional 64 KiB pipe buffer.
const pipeCapacity = 64 * 1024

// Pipe creates a pipe and returns its read and write descriptors.
func (k *Kernel) Pipe() (r FD, w FD, cost simclock.Lat) {
	cost = k.Syscall(0)
	p := &pipe{capacity: pipeCapacity}
	r = k.newFD(&fdEntry{kind: fdPipeRead, pipe: p})
	w = k.newFD(&fdEntry{kind: fdPipeWrite, pipe: p})
	return r, w, cost
}

func (p *pipe) closeWrite() { p.wrClosed = true }

// WritePipe writes bytes into the pipe (syscall + user→kernel copy).
// It returns the number of bytes accepted, which may be short when the
// pipe is full.
func (k *Kernel) WritePipe(fd FD, b []byte, cost simclock.Lat) (int, simclock.Lat, error) {
	cost += k.Syscall(0)
	e, err := k.lookup(fd)
	if err != nil {
		return 0, cost, err
	}
	if e.kind != fdPipeWrite {
		return 0, cost, ErrBadFD
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	p := e.pipe
	space := p.capacity - len(p.buf)
	n := min(len(b), space)
	k.ctr.AddCopy(n)
	cost += k.model.CopyCost(n)
	p.buf = append(p.buf, b[:n]...)
	p.rxCost = cost
	return n, cost, nil
}

// ReadPipe reads up to max bytes. Stream semantics: whatever bytes happen
// to be in the pipe are returned, with no regard for message boundaries;
// an empty pipe returns ErrWouldBlock, and a drained pipe whose writer
// closed returns io.EOF.
func (k *Kernel) ReadPipe(fd FD, max int) ([]byte, simclock.Lat, error) {
	cost := k.Syscall(0)
	e, err := k.lookup(fd)
	if err != nil {
		return nil, cost, err
	}
	if e.kind != fdPipeRead {
		return nil, cost, ErrBadFD
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	p := e.pipe
	if len(p.buf) == 0 {
		if p.wrClosed {
			return nil, cost, io.EOF
		}
		return nil, cost, ErrWouldBlock
	}
	n := len(p.buf)
	if max > 0 && n > max {
		n = max
	}
	out := make([]byte, n)
	copy(out, p.buf)
	p.buf = p.buf[:copy(p.buf, p.buf[n:])]
	k.ctr.AddCopy(n)
	cost += k.model.CopyCost(n) + p.rxCost
	return out, cost, nil
}
