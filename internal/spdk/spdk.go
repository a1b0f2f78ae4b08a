// Package spdk simulates an SPDK-class kernel-bypass NVMe device (Table 1,
// left column of the paper, storage side): a namespace of fixed-size
// blocks accessed through asynchronous submission/completion queue pairs,
// with device latencies charged from the cost model.
//
// Like its network sibling (package nic), the device offers no OS
// functionality: no file system, no page cache, no naming. The
// accelerator-specific log-structured layout the paper sketches in §5.3
// lives on top, in blob.go, and the storage libOS (internal/libos/catfish)
// exposes it through Demikernel file queues.
//
// Completions are continuation-carrying: a submitter may attach a
// callback that the device invokes when the command completes, instead of
// surfacing the completion through the shared CQ. That is the mechanism
// behind both the synchronous Execute convenience and the storage
// pushdown engine (pushdown.go), which chains reads entirely inside the
// device without ever crossing back to the host.
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

// Errors returned by Submit and surfaced in completions.
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

// Command is one submission-queue entry.
type Command struct {
	Op  Op
	LBA int
	// Data holds exactly BlockSize bytes for writes; unused for reads
	// and flushes.
	Data []byte
}

// Completion is one completion-queue entry.
type Completion struct {
	ID   uint64
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

// Device is a simulated NVMe namespace with one SQ/CQ pair. All methods
// are safe for concurrent use.
type Device struct {
	model *simclock.CostModel
	cfg   Config

	mu     sync.Mutex
	blocks blockTable
	sq     []sqe
	// next holds the reads pushdown hops queue while a pump processes
	// sq; they become sq for the next pump, so a traversal advances one
	// hop per pump.
	next   []sqe
	nextID uint64
	stats  Stats

	// CQ ring: completions without a continuation accumulate in cq and
	// are drained by Poll from cqHead. The backing array is reused: once
	// fully drained it rewinds to the front instead of reallocating.
	cq     []Completion
	cqHead int

	// Completed continuation-carrying entries and finished pushdown
	// traversals, staged under mu and dispatched outside it (a
	// continuation may resubmit, which retakes the lock). conts/spare
	// ping-pong so the steady state allocates nothing.
	conts []pendingCont
	spare []pendingCont

	// execFree recycles Execute's wait state.
	execFree []*execState

	// pd is the storage-pushdown engine state (pushdown.go).
	pd pushdownState

	// Fault injection (chaos testing).
	rng     *rand.Rand // seeded by SetErrorRate; nil = no injection
	errRate float64    // probability a command fails with ErrIO
	downFor int        // commands still failed while the controller re-inits
}

type sqe struct {
	id  uint64
	op  Op
	lba int
	// blk is a write's block, copied at submission.
	blk *Block
	// done, when non-nil, receives the completion instead of the CQ.
	done func(Completion)
	// t, when non-nil, is the pushdown traversal whose hop this read
	// is: the device runs its program where the read completes.
	t *traversal
	// path is where a read's block goes.
	path readPath
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

// pendingCont is one staged continuation: fn with its completion, or a
// finished traversal t, whose result is its only completion.
type pendingCont struct {
	fn func(Completion)
	c  Completion
	t  *traversal
}

// execState is the pooled wait state behind Execute. The buffered
// channel lets any goroutine's pump deliver the completion.
type execState struct {
	ch chan Completion
	fn func(Completion)
}

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

func (d *Device) submit(cmd Command, done func(Completion), path readPath) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.submitLocked(cmd, done, path)
}

func (d *Device) submitLocked(cmd Command, done func(Completion), path readPath) (uint64, error) {
	if len(d.sq) >= d.cfg.QueueDepth {
		d.stats.QueueFulls++
		return 0, ErrQueueFull
	}
	if cmd.Op == OpWrite && len(cmd.Data) != BlockSize {
		return 0, fmt.Errorf("%w: %d", ErrBadLength, len(cmd.Data))
	}
	d.nextID++
	id := d.nextID
	e := sqe{id: id, op: cmd.Op, lba: cmd.LBA, done: done, path: path}
	if cmd.Op == OpWrite {
		// The device DMAs the buffer at submission; keep a copy so the
		// caller may reuse its buffer immediately (completion-side
		// free-protection is the libOS's job, not the device's).
		e.blk = &Block{data: string(cmd.Data)}
	}
	d.sq = append(d.sq, e)
	return id, nil
}

// Poll processes pending submissions and returns up to max completions
// (0 means all). The returned slice aliases the device's completion
// ring and is valid only until the next Poll — the rx_burst contract:
// consume or copy before polling again.
func (d *Device) Poll(max int) []Completion {
	d.mu.Lock()
	d.processLocked()
	n := len(d.cq) - d.cqHead
	if max > 0 && n > max {
		n = max
	}
	out := d.cq[d.cqHead : d.cqHead+n]
	d.cqHead += n
	if d.cqHead == len(d.cq) {
		// Fully drained: rewind the ring, reusing the backing array.
		d.cq = d.cq[:0]
		d.cqHead = 0
	}
	conts := d.takeContsLocked()
	d.mu.Unlock()
	d.dispatch(conts)
	return out
}

// Pump processes pending submissions and dispatches continuation-
// carrying completions, leaving CQ completions queued for Poll. It
// returns the number of completions it processed that had a consumer
// other than the CQ: one per pushdown hop advanced, whether its
// traversal went on or ended, and one per other continuation. LibOS
// poll loops call it to drive Execute waiters and in-flight pushdown
// traversals.
func (d *Device) Pump() int {
	d.mu.Lock()
	n := 0
	if len(d.sq) > 0 {
		n = d.processLocked()
	}
	conts := d.takeContsLocked()
	d.mu.Unlock()
	d.dispatch(conts)
	return n
}

// takeContsLocked detaches the staged continuation batch, installing the
// spare buffer (if free) so processing can continue while the batch is
// dispatched outside the lock.
func (d *Device) takeContsLocked() []pendingCont {
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

// dispatch invokes a batch of continuations, then, under one hold of the
// lock, recycles its finished traversals and returns the batch to the
// spare slot for reuse.
func (d *Device) dispatch(conts []pendingCont) {
	if len(conts) == 0 {
		return
	}
	for i := range conts {
		if t := conts[i].t; t != nil {
			t.done(t.result())
			d.pd.inflight.Add(-1)
		} else {
			conts[i].fn(conts[i].c)
		}
	}
	d.mu.Lock()
	for i := range conts {
		if t := conts[i].t; t != nil {
			d.putTraversalLocked(t)
		}
		conts[i] = pendingCont{}
	}
	if d.spare == nil {
		d.spare = conts[:0]
	}
	d.mu.Unlock()
}

// processLocked completes every queued command and returns how many had
// a consumer other than the CQ (completeLocked).
func (d *Device) processLocked() int {
	n := 0
	for i := range d.sq {
		e := &d.sq[i]
		c := Completion{ID: e.id, Op: e.op, LBA: e.lba}
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
		default:
			d.mediaLocked(e, &c)
		}
		if c.Err != nil {
			d.stats.Errors++
		}
		n += d.completeLocked(e, &c)
	}
	// The reads this pass's hops queued are the next pump's.
	d.sq, d.next = d.next, d.sq[:0]
	return n
}

// mediaLocked carries out one command on the media.
func (d *Device) mediaLocked(e *sqe, c *Completion) {
	switch e.op {
	case OpRead:
		if e.lba < 0 || e.lba >= d.cfg.NumBlocks {
			c.Err = ErrOutOfRange
			return
		}
		d.stats.Reads++
		blk := d.blocks.get(e.lba)
		if e.path == inDevice {
			// Pushdown-internal read: the block stays on the device
			// (no host DMA).
			c.Cost = d.model.NVMeReadNS
		} else {
			d.stats.DMABytes += BlockSize
			c.Cost = d.model.NVMeReadNS + d.model.DMACost(BlockSize)
		}
		if e.path == toHost {
			c.Data = []byte(blk.data)
		} else {
			c.block = blk
		}
	case OpWrite:
		if e.lba < 0 || e.lba >= d.cfg.NumBlocks {
			c.Err = ErrOutOfRange
			return
		}
		d.stats.Writes++
		d.stats.DMABytes += BlockSize
		d.blocks.put(e.lba, e.blk)
		c.Cost = d.model.NVMeWriteNS + d.model.DMACost(BlockSize)
	case OpFlush:
		d.stats.Flushes++
		c.Cost = d.model.NVMeWriteNS
	}
}

// completeLocked routes one finished command: a pushdown hop runs its
// program here (hopLocked), other continuation-carrying entries stage
// for out-of-lock dispatch, and the rest join the CQ ring. It returns 1
// for a command with a consumer other than the CQ.
func (d *Device) completeLocked(e *sqe, c *Completion) int {
	switch {
	case e.t != nil:
		d.hopLocked(e.t, c)
	case e.done != nil:
		d.conts = append(d.conts, pendingCont{fn: e.done, c: *c})
	default:
		d.cq = append(d.cq, *c)
		return 0
	}
	return 1
}

// Execute submits cmd and pumps the device until its completion arrives,
// returning it. It is the synchronous convenience used by the blob
// layer. The completion travels by continuation, so foreign completions
// are never scanned or re-queued.
func (d *Device) Execute(cmd Command) Completion { return d.execute(cmd, toHost) }

// execute is Execute with the read path chosen.
func (d *Device) execute(cmd Command, path readPath) Completion {
	st := d.getExecState()
	if _, err := d.submit(cmd, st.fn, path); err != nil {
		d.putExecState(st)
		return Completion{Op: cmd.Op, LBA: cmd.LBA, Err: err}
	}
	for {
		select {
		case c := <-st.ch:
			d.putExecState(st)
			return c
		default:
		}
		d.Pump()
	}
}

func (d *Device) getExecState() *execState {
	d.mu.Lock()
	if n := len(d.execFree); n > 0 {
		st := d.execFree[n-1]
		d.execFree = d.execFree[:n-1]
		d.mu.Unlock()
		return st
	}
	d.mu.Unlock()
	st := &execState{ch: make(chan Completion, 1)}
	st.fn = func(c Completion) { st.ch <- c }
	return st
}

func (d *Device) putExecState(st *execState) {
	d.mu.Lock()
	d.execFree = append(d.execFree, st)
	d.mu.Unlock()
}

// Reset clears queues and storage, as a factory-level namespace format
// would. (For a media-preserving controller reset, see ControllerReset.)
func (d *Device) Reset() {
	d.mu.Lock()
	d.abortInflightLocked()
	d.blocks = newBlockTable(d.cfg.NumBlocks)
	conts := d.takeContsLocked()
	d.mu.Unlock()
	d.dispatch(conts)
}

// ControllerReset simulates a spontaneous NVMe controller reset: every
// in-flight command aborts with ErrDeviceReset and the next downFor
// submitted commands also fail while the controller re-initialises.
// Media contents are preserved — after recovery, retried commands see
// the data that was durably written before the reset. In-flight pushdown
// traversals surface exactly one typed error completion each (their
// aborted read's continuation runs like any other).
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
		d.completeLocked(e, &Completion{ID: e.id, Op: e.op, LBA: e.lba, Err: ErrDeviceReset})
	}
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
