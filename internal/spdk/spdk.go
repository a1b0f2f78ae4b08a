// Package spdk simulates an SPDK-class kernel-bypass NVMe device (Table 1,
// left column of the paper, storage side): a namespace of fixed-size
// blocks with device latencies charged from the cost model.
//
// Like its network sibling (package nic), the device offers no OS
// functionality: no file system, no page cache, no naming. The
// accelerator-specific log-structured layout the paper sketches in §5.3
// lives on top, in blob.go, and the storage libOS (internal/libos/catfish)
// exposes it through Demikernel file queues.
//
// A host command (Execute) completes inside the call that submits it,
// its modelled latency charged in virtual time. Only the reads of the
// storage pushdown engine (pushdown.go) queue: a lookup chains them
// inside the device, one hop per Pump, and crosses back to the host once,
// with its result.
package spdk

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// BlockSize is the device's logical block size.
const BlockSize = 4096

// Op is an NVMe command opcode.
type Op int

// Command opcodes.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
)

// Errors surfaced in completions.
var (
	ErrQueueFull   = errors.New("spdk: submission queue full")
	ErrOutOfRange  = errors.New("spdk: LBA out of range")
	ErrBadLength   = errors.New("spdk: data length must equal one block")
	ErrDeviceReset = errors.New("spdk: device was reset")
	// ErrIO is an injected transient media error (chaos testing). Unlike
	// ErrDeviceReset it carries no queue-wide abort; retrying the same
	// command usually succeeds.
	ErrIO = errors.New("spdk: media I/O error")
)

// Command is one host block command.
type Command struct {
	Op  Op
	LBA int
	// Data holds exactly BlockSize bytes for writes; unused for reads
	// and flushes.
	Data []byte
}

// Completion is the outcome of one command.
type Completion struct {
	Op   Op
	LBA  int
	Err  error
	Data []byte // block contents for host reads: the host's own DMA copy
	Cost simclock.Lat

	// block is the media block itself, immutable, for a read that is
	// not copied into Data.
	block *Block
}

// Block is one installed media block. A write installs a new Block, so
// a Block never changes: a reader may keep it, and what a program once
// made of its bytes stays true.
type Block struct {
	data string
	// decoded is the index program's decode of data (index.go), made
	// by the first lookup that reads the block.
	decoded atomic.Pointer[entryTable]
}

// Data returns the block's bytes.
func (b *Block) Data() string { return b.data }

// zeroBlock is what a read of an unwritten LBA sees.
var zeroBlock = &Block{data: strings.Repeat("\x00", BlockSize)}

// leafBits sizes a leaf of the block table: 256 LBAs, 2 KiB of pointers.
const (
	leafBits = 8
	leafLen  = 1 << leafBits
)

// blockTable is the media, indexed by LBA: a top array of fixed-size
// leaves, each allocated on the first write into it, so an unwritten
// stretch of the namespace costs one nil pointer per leafLen blocks.
type blockTable []*[leafLen]*Block

func newBlockTable(numBlocks int) blockTable {
	return make(blockTable, (numBlocks+leafLen-1)>>leafBits)
}

// get returns the block at an in-range lba.
func (t blockTable) get(lba int) *Block {
	if leaf := t[lba>>leafBits]; leaf != nil {
		if b := leaf[lba&(leafLen-1)]; b != nil {
			return b
		}
	}
	return zeroBlock
}

// put installs b at an in-range lba.
func (t blockTable) put(lba int, b *Block) {
	leaf := t[lba>>leafBits]
	if leaf == nil {
		leaf = new([leafLen]*Block)
		t[lba>>leafBits] = leaf
	}
	leaf[lba&(leafLen-1)] = b
}

// Config describes a device.
type Config struct {
	NumBlocks  int // namespace capacity in blocks (default 16384)
	QueueDepth int // submission queue depth (default 256)
}

// Stats counts device events.
type Stats struct {
	Reads      int64
	Writes     int64
	Flushes    int64
	QueueFulls int64
	Errors     int64
	DMABytes   int64
	// Chaos counters.
	Resets         int64 // controller resets (spontaneous or requested)
	InjectedErrors int64 // commands failed by the injected error rate
}

// Device is a simulated NVMe namespace. All methods are safe for
// concurrent use.
type Device struct {
	model *simclock.CostModel
	cfg   Config

	mu     sync.Mutex
	blocks blockTable
	// sq holds the pushdown reads the next pump processes, and next the
	// reads their hops queue while it does; next becomes sq for the pump
	// after, so a traversal advances one hop per pump.
	sq    []sqe
	next  []sqe
	stats Stats

	// Finished traversals, staged under mu and dispatched outside it (a
	// result callback may submit, which retakes the lock). conts/spare
	// ping-pong so the steady state allocates nothing.
	conts []*traversal
	spare []*traversal

	// pd is the storage-pushdown engine state (pushdown.go).
	pd pushdownState

	// Fault injection (chaos testing).
	rng     *rand.Rand // seeded by SetErrorRate; nil = no injection
	errRate float64    // probability a command fails with ErrIO
	downFor int        // commands still failed while the controller re-inits
}

// sqe is one queued pushdown read: the hop of traversal t that reads lba.
type sqe struct {
	lba int
	t   *traversal
}

// readPath is where a read's block goes.
type readPath uint8

const (
	// toHost DMAs the block into the host's own copy, Completion.Data.
	toHost readPath = iota
	// toHostInPlace charges the same DMA but hands the reader the media
	// block itself, which a copy would equal byte for byte: the host
	// fallback's read of an index node.
	toHostInPlace
	// inDevice keeps the block on the device, no DMA: a pushdown hop.
	inDevice
)

// New creates a device.
func New(model *simclock.CostModel, cfg Config) *Device {
	if cfg.NumBlocks <= 0 {
		cfg.NumBlocks = 16384
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	return &Device{model: model, cfg: cfg, blocks: newBlockTable(cfg.NumBlocks)}
}

// NumBlocks returns the namespace capacity in blocks.
func (d *Device) NumBlocks() int { return d.cfg.NumBlocks }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// RegisterTelemetry lifts the device counters into a telemetry registry
// under prefix (e.g. "nvme"). Sample funcs snapshot Stats() at read time.
func (d *Device) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	stat := func(read func(Stats) int64) func() int64 {
		return func() int64 { return read(d.Stats()) }
	}
	r.RegisterFunc(prefix+".reads", stat(func(s Stats) int64 { return s.Reads }))
	r.RegisterFunc(prefix+".writes", stat(func(s Stats) int64 { return s.Writes }))
	r.RegisterFunc(prefix+".flushes", stat(func(s Stats) int64 { return s.Flushes }))
	r.RegisterFunc(prefix+".queue_fulls", stat(func(s Stats) int64 { return s.QueueFulls }))
	r.RegisterFunc(prefix+".errors", stat(func(s Stats) int64 { return s.Errors }))
	r.RegisterFunc(prefix+".dma_bytes", stat(func(s Stats) int64 { return s.DMABytes }))
	r.RegisterFunc(prefix+".resets", stat(func(s Stats) int64 { return s.Resets }))
	r.RegisterFunc(prefix+".injected_errors", stat(func(s Stats) int64 { return s.InjectedErrors }))
	d.registerPushdownTelemetry(r, prefix+".pushdown")
}

// Pump processes the queued pushdown reads, one hop of each traversal,
// and delivers the results of the traversals that ended. It returns the
// number of hops advanced. LibOS poll loops call it to drive in-flight
// pushdown traversals.
func (d *Device) Pump() int {
	d.mu.Lock()
	if len(d.sq) == 0 {
		d.mu.Unlock()
		return 0
	}
	n := d.processLocked()
	conts := d.takeContsLocked()
	d.mu.Unlock()
	d.dispatch(conts)
	return n
}

// takeContsLocked detaches the staged traversals, installing the spare
// buffer (if free) so processing can continue while the batch is
// dispatched outside the lock.
func (d *Device) takeContsLocked() []*traversal {
	if len(d.conts) == 0 {
		return nil
	}
	out := d.conts
	if d.spare != nil {
		d.conts = d.spare[:0]
		d.spare = nil
	} else {
		d.conts = nil
	}
	return out
}

// dispatch delivers a batch of finished traversals' results, then, under
// one hold of the lock, recycles the traversals and returns the batch to
// the spare slot for reuse.
func (d *Device) dispatch(conts []*traversal) {
	if len(conts) == 0 {
		return
	}
	for _, t := range conts {
		t.done(t.result())
		d.pd.inflight.Add(-1)
	}
	d.mu.Lock()
	for _, t := range conts {
		d.putTraversalLocked(t)
	}
	clear(conts)
	if d.spare == nil {
		d.spare = conts[:0]
	}
	d.mu.Unlock()
}

// processLocked runs every queued pushdown read and its hop, and returns
// how many it ran.
func (d *Device) processLocked() int {
	for i := range d.sq {
		e := &d.sq[i]
		c := Completion{Op: OpRead, LBA: e.lba}
		d.runLocked(&c, nil, inDevice)
		d.hopLocked(e.t, &c)
		// A processed entry lets go of its traversal.
		*e = sqe{}
	}
	n := len(d.sq)
	// The reads this pass's hops queued are the next pump's.
	d.sq, d.next = d.next, d.sq[:0]
	return n
}

// runLocked carries out the command c names (its Op and LBA; data is a
// write's): it aborts while the controller re-initialises after a reset,
// fails at the injected error rate, and otherwise runs on the media.
func (d *Device) runLocked(c *Completion, data []byte, path readPath) {
	switch {
	case d.downFor > 0:
		// Controller still re-initialising after a reset: every
		// command aborts without touching media.
		d.downFor--
		c.Err = ErrDeviceReset
	case d.errRate > 0 && d.rng != nil && d.rng.Float64() < d.errRate:
		// Injected transient media error; the command has no effect.
		d.stats.InjectedErrors++
		c.Err = ErrIO
	case c.Op == OpFlush:
		d.stats.Flushes++
		c.Cost = d.model.NVMeWriteNS
	case c.LBA < 0 || c.LBA >= d.cfg.NumBlocks:
		c.Err = ErrOutOfRange
	case c.Op == OpRead:
		d.stats.Reads++
		blk := d.blocks.get(c.LBA)
		if path == inDevice {
			// Pushdown-internal read: the block stays on the device
			// (no host DMA).
			c.Cost = d.model.NVMeReadNS
		} else {
			d.stats.DMABytes += BlockSize
			c.Cost = d.model.NVMeReadNS + d.model.DMACost(BlockSize)
		}
		if path == toHost {
			c.Data = []byte(blk.data)
		} else {
			c.block = blk
		}
	case c.Op == OpWrite:
		d.stats.Writes++
		d.stats.DMABytes += BlockSize
		// The device DMAs the buffer into a block of its own, so the
		// caller may reuse its buffer at once.
		d.blocks.put(c.LBA, &Block{data: string(data)})
		c.Cost = d.model.NVMeWriteNS + d.model.DMACost(BlockSize)
	}
	if c.Err != nil {
		d.stats.Errors++
	}
}

// Execute runs cmd to completion and returns its completion, the
// modelled device latency in Cost. The pushdown reads queued before it
// run first, as a pump would run them. It is the synchronous block
// interface of the blob layer and the kernel's file system.
func (d *Device) Execute(cmd Command) Completion { return d.execute(cmd, toHost) }

// execute is Execute with the read path chosen.
func (d *Device) execute(cmd Command, path readPath) Completion {
	c := Completion{Op: cmd.Op, LBA: cmd.LBA}
	d.mu.Lock()
	if len(d.sq) >= d.cfg.QueueDepth {
		d.stats.QueueFulls++
		d.mu.Unlock()
		c.Err = ErrQueueFull
		return c
	}
	if cmd.Op == OpWrite && len(cmd.Data) != BlockSize {
		d.mu.Unlock()
		c.Err = fmt.Errorf("%w: %d", ErrBadLength, len(cmd.Data))
		return c
	}
	if len(d.sq) > 0 {
		d.processLocked()
	}
	d.runLocked(&c, cmd.Data, path)
	conts := d.takeContsLocked()
	d.mu.Unlock()
	d.dispatch(conts)
	return c
}

// ControllerReset simulates a spontaneous NVMe controller reset: every
// queued pushdown read aborts with ErrDeviceReset and the next downFor
// commands also fail while the controller re-initialises. Media contents
// are preserved — after recovery, retried commands see the data that was
// durably written before the reset. In-flight pushdown traversals
// surface exactly one typed error result each.
func (d *Device) ControllerReset(downFor int) {
	d.mu.Lock()
	d.stats.Resets++
	d.abortInflightLocked()
	if downFor > 0 {
		d.downFor = downFor
	}
	conts := d.takeContsLocked()
	d.mu.Unlock()
	d.dispatch(conts)
}

func (d *Device) abortInflightLocked() {
	for i := range d.sq {
		e := &d.sq[i]
		d.stats.Errors++
		d.hopLocked(e.t, &Completion{Op: OpRead, LBA: e.lba, Err: ErrDeviceReset})
	}
	clear(d.sq)
	d.sq = d.sq[:0]
}

// SetErrorRate arms (or, with rate 0, disarms) seeded random command
// failures: each processed command fails with ErrIO with probability
// rate. Deterministic for a fixed seed and command sequence.
func (d *Device) SetErrorRate(rate float64, seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.errRate = rate
	if rate > 0 {
		d.rng = rand.New(rand.NewSource(seed))
	} else {
		d.rng = nil
	}
}
