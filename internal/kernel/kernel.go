// Package kernel simulates the legacy operating-system path of Figure 1
// (left): every I/O crosses the user/kernel boundary, payloads are copied
// between user and kernel buffers, the in-kernel network stack charges its
// heavier per-packet cost, epoll wakes every waiting thread, pipes expose
// stream (not atomic-unit) semantics, and file I/O runs through a page
// cache with journaling write amplification.
//
// The package exists to be the baseline each experiment compares the
// Demikernel path against. It has no socket layer of its own: a kernel
// socket is a catnip endpoint whose pump charges Syscall for every send and
// recv, over a stack that pays KernelPerPacketExtra on every packet — the
// same protocol code as the kernel-bypass path, deliberately, so the only
// differences measured are the architectural ones the paper talks about:
// syscall crossings, copies, POSIX semantics, and scheduling behaviour.
package kernel

import (
	"errors"
	"fmt"
	"sync"

	"demikernel/internal/simclock"
)

// Errors returned by kernel calls.
var (
	ErrBadFD      = errors.New("kernel: bad file descriptor")
	ErrWouldBlock = errors.New("kernel: operation would block")
	ErrClosed     = errors.New("kernel: descriptor closed")
)

// FD is a file descriptor.
type FD int

// fdKind discriminates descriptor types.
type fdKind int

const (
	fdPipeRead fdKind = iota
	fdPipeWrite
	fdFile
)

type fdEntry struct {
	kind   fdKind
	pipe   *pipe
	file   *file
	closed bool
}

// Kernel is one simulated legacy-OS instance on a host: its descriptor
// table, file system and cost counters.
type Kernel struct {
	model *simclock.CostModel

	mu   sync.Mutex
	fds  map[FD]*fdEntry
	next FD
	ctr  simclock.Counters
	fs   *fileSystem
}

// New creates a kernel charging costs from model.
func New(model *simclock.CostModel) *Kernel {
	return &Kernel{
		model: model,
		fds:   make(map[FD]*fdEntry),
		next:  3, // 0..2 are where stdio would be
		fs:    newFileSystem(model),
	}
}

// KernelPerPacketExtra is the per-packet tax the in-kernel stack pays
// on top of the user-level protocol work (skb management, netfilter,
// socket lookup, softirq).
func KernelPerPacketExtra(model *simclock.CostModel) simclock.Lat {
	return model.KernelNetStackNS - model.UserNetStackNS
}

// Counters returns a snapshot of the kernel's observable cost counters.
func (k *Kernel) Counters() simclock.Counters {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ctr
}

// ResetCounters zeroes the counters between experiment phases.
func (k *Kernel) ResetCounters() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ctr.Reset()
}

// Syscall charges one user/kernel crossing that copies copied payload
// bytes across the boundary (none for a call that moves no payload).
func (k *Kernel) Syscall(copied int) simclock.Lat {
	k.mu.Lock()
	k.ctr.AddSyscall()
	k.ctr.AddCopy(copied)
	k.mu.Unlock()
	return k.model.SyscallNS + k.model.CopyCost(copied)
}

func (k *Kernel) newFD(e *fdEntry) FD {
	k.mu.Lock()
	defer k.mu.Unlock()
	fd := k.next
	k.next++
	k.fds[fd] = e
	return fd
}

func (k *Kernel) lookup(fd FD) (*fdEntry, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	if e.closed {
		return nil, fmt.Errorf("%w: %d", ErrClosed, fd)
	}
	return e, nil
}

// Close releases a descriptor.
func (k *Kernel) Close(fd FD) (simclock.Lat, error) {
	cost := k.Syscall(0)
	e, err := k.lookup(fd)
	if err != nil {
		return cost, err
	}
	k.mu.Lock()
	e.closed = true
	delete(k.fds, fd)
	if e.kind == fdPipeWrite {
		e.pipe.closeWrite()
	}
	k.mu.Unlock()
	return cost, nil
}
