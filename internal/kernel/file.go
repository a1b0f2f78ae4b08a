package kernel

import (
	"errors"
	"fmt"

	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

// This file simulates the legacy kernel file path of §5.3: a
// general-purpose file system with a page cache, user/kernel copies on
// every read and write, and journaling write amplification on fsync.
// The storage libOS (catfish) instead uses the accelerator-specific
// log-structured layout in package spdk directly.

// Errors returned by file calls.
var (
	ErrNoDisk   = errors.New("kernel: no disk attached")
	ErrDiskFull = errors.New("kernel: disk full")
)

// journalFactor is the write amplification charged by the journaling file
// system on flush: each dirty page is written once to the journal and
// once in place.
const journalFactor = 2

type file struct {
	name string
	size int
	// blocks maps file page index -> device LBA.
	blocks []int
}

type fileSystem struct {
	model *simclock.CostModel
	disk  *spdk.Device
	files map[string]*file
	// pageCache maps LBA -> cached block.
	pageCache map[int][]byte
	dirty     map[int]bool
	nextLBA   int
}

func newFileSystem(model *simclock.CostModel) *fileSystem {
	return &fileSystem{
		model:     model,
		files:     make(map[string]*file),
		pageCache: make(map[int][]byte),
		dirty:     make(map[int]bool),
	}
}

// AttachDisk gives the kernel a block device for its file system.
func (k *Kernel) AttachDisk(dev *spdk.Device) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.fs.disk = dev
}

// OpenFile opens (or creates) a file and returns its descriptor.
func (k *Kernel) OpenFile(name string) (FD, simclock.Lat, error) {
	cost := k.Syscall(0)
	k.mu.Lock()
	if k.fs.disk == nil {
		k.mu.Unlock()
		return -1, cost, ErrNoDisk
	}
	f, ok := k.fs.files[name]
	if !ok {
		f = &file{name: name}
		k.fs.files[name] = f
	}
	k.mu.Unlock()
	return k.newFD(&fdEntry{kind: fdFile, file: f}), cost, nil
}

// WriteFile appends data to the file through the page cache. The payload
// is copied user→kernel and dirtied pages are charged page-cache
// management cost; no device I/O happens until Fsync.
func (k *Kernel) WriteFile(fd FD, data []byte) (simclock.Lat, error) {
	cost := k.Syscall(0)
	e, err := k.lookup(fd)
	if err != nil {
		return cost, err
	}
	if e.kind != fdFile {
		return cost, ErrBadFD
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	fs := k.fs
	f := e.file
	k.ctr.AddCopy(len(data))
	cost += k.model.CopyCost(len(data))
	for len(data) > 0 {
		page := f.size / spdk.BlockSize
		pageOff := f.size % spdk.BlockSize
		if page >= len(f.blocks) {
			if fs.nextLBA >= fs.disk.NumBlocks() {
				return cost, ErrDiskFull
			}
			f.blocks = append(f.blocks, fs.nextLBA)
			fs.nextLBA++
		}
		lba := f.blocks[page]
		blk, ok := fs.pageCache[lba]
		if !ok {
			blk = make([]byte, spdk.BlockSize)
			fs.pageCache[lba] = blk
		}
		cost += k.model.PageCacheNS
		n := copy(blk[pageOff:], data)
		data = data[n:]
		f.size += n
		fs.dirty[lba] = true
	}
	return cost, nil
}

// Fsync flushes the file's dirty pages with journaling write
// amplification.
func (k *Kernel) Fsync(fd FD) (simclock.Lat, error) {
	cost := k.Syscall(0)
	e, err := k.lookup(fd)
	if err != nil {
		return cost, err
	}
	if e.kind != fdFile {
		return cost, ErrBadFD
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	fs := k.fs
	for _, lba := range e.file.blocks {
		if !fs.dirty[lba] {
			continue
		}
		delete(fs.dirty, lba)
		for j := 0; j < journalFactor; j++ {
			c := fs.disk.Execute(spdk.Command{Op: spdk.OpWrite, LBA: lba, Data: fs.pageCache[lba]})
			if c.Err != nil {
				return cost, c.Err
			}
			cost += c.Cost
		}
	}
	c := fs.disk.Execute(spdk.Command{Op: spdk.OpFlush})
	cost += c.Cost
	return cost, c.Err
}

// ReadFile reads n bytes at off, through the page cache, with the
// kernel→user copy charged.
func (k *Kernel) ReadFile(fd FD, off, n int) ([]byte, simclock.Lat, error) {
	cost := k.Syscall(0)
	e, err := k.lookup(fd)
	if err != nil {
		return nil, cost, err
	}
	if e.kind != fdFile {
		return nil, cost, ErrBadFD
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	fs := k.fs
	f := e.file
	if off < 0 || off > f.size {
		return nil, cost, fmt.Errorf("kernel: read offset %d beyond size %d", off, f.size)
	}
	if off+n > f.size {
		n = f.size - off
	}
	out := make([]byte, 0, n)
	for n > 0 {
		page := off / spdk.BlockSize
		pageOff := off % spdk.BlockSize
		lba := f.blocks[page]
		blk, ok := fs.pageCache[lba]
		cost += k.model.PageCacheNS
		if !ok {
			c := fs.disk.Execute(spdk.Command{Op: spdk.OpRead, LBA: lba})
			if c.Err != nil {
				return nil, cost, c.Err
			}
			cost += c.Cost
			blk = c.Data
			fs.pageCache[lba] = blk
		}
		take := min(n, spdk.BlockSize-pageOff)
		out = append(out, blk[pageOff:pageOff+take]...)
		off += take
		n -= take
	}
	k.ctr.AddCopy(len(out))
	cost += k.model.CopyCost(len(out))
	return out, cost, nil
}

// FileSize returns the current size of the file.
func (k *Kernel) FileSize(fd FD) (int, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	if e.kind != fdFile {
		return 0, ErrBadFD
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return e.file.size, nil
}
