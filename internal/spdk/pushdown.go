package spdk

import (
	"errors"
	"fmt"
	"sync/atomic"

	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// This file implements storage pushdown: BPF-style compute in the NVMe
// completion path. The paper's thesis is that the OS should keep control
// of protection while letting applications push logic to the device;
// "BPF for storage" (PAPERS.md) shows the biggest storage win is
// eliminating the per-block host crossing of a multi-hop index lookup.
//
// The mechanism rides the continuation-carrying completion path: a
// lookup submits one read whose continuation runs the installed program
// over the block right where the completion is processed. The program's
// verdict either resubmits the next read — device-internal, no host DMA,
// no surfaced completion — or emits the final value (or a typed error)
// as the single completion that crosses back to the libOS.
//
// The completion path is the protection boundary: programs are validated
// at install time (the sandbox admission check), every per-hop verdict
// is re-validated at run time (LBA range, value bounds), and the hop
// budget guarantees termination no matter what the program does. The
// device — standing in for the OS control plane — never cedes those
// checks to the application, exactly the kernel-retains-control split
// the paper argues for.

// Sandbox limits on pushdown programs and lookups.
const (
	// MaxKeyLen bounds the lookup key a traversal carries device-side.
	MaxKeyLen = 128
	// DefaultMaxHops is the default per-lookup hop budget.
	DefaultMaxHops = 16
	// MaxHopBudget is the hard ceiling a program may request at install
	// time; the admission check rejects anything larger.
	MaxHopBudget = 64
	// MaxValueLen bounds the value a program may emit from a block.
	MaxValueLen = BlockSize
)

// Pushdown errors. All surface as the Err of exactly one completion.
var (
	ErrNotFound     = errors.New("spdk: key not found")
	ErrHopBudget    = errors.New("spdk: pushdown hop budget exhausted")
	ErrBadProg      = errors.New("spdk: pushdown program rejected")
	ErrNoProg       = errors.New("spdk: no pushdown program at handle")
	ErrKeyTooLong   = errors.New("spdk: lookup key exceeds MaxKeyLen")
	ErrCorruptIndex = errors.New("spdk: pushdown program rejected block")
)

// StepKind is a pushdown program's verdict on one block.
type StepKind int

const (
	// StepNext descends: read NextLBA and run the program again.
	StepNext StepKind = iota
	// StepDone ends the traversal with Value as the result.
	StepDone
	// StepMiss ends the traversal: the key is not in the structure.
	StepMiss
	// StepCorrupt ends the traversal: the block failed the program's
	// own validation (bad magic, truncated entry, ...).
	StepCorrupt
)

// Step is one program verdict.
type Step struct {
	Kind    StepKind
	NextLBA int
	// Value is the emitted result for StepDone. It may be a substring
	// of the block: blocks are immutable, so it stays valid.
	Value string
}

// Prog is a sandboxed pushdown program: a pure function from (key,
// block) to a verdict. The block is the media block itself, handed over
// as a string so the program cannot write it; it never changes, so the
// program may keep it or any part of it. A program must not block; the
// admission check cannot verify purity (this is a simulation, not a
// verifier), but the engine re-validates every verdict, so a
// misbehaving program can waste its own hop budget and nothing else.
type Prog interface {
	// Name identifies the program in telemetry and errors.
	Name() string
	// Step inspects one block and decides what happens next.
	Step(key []byte, block string) Step
}

// PushdownConfig bounds one installed program.
type PushdownConfig struct {
	// MaxHops is the per-lookup read budget (0 = DefaultMaxHops).
	MaxHops int
}

// PushdownStats counts pushdown-engine events.
type PushdownStats struct {
	Installs       int64 // programs admitted
	Lookups        int64 // traversals started
	Hits           int64 // lookups completed with a value
	Misses         int64 // lookups completed key-not-found
	Resubmits      int64 // device-internal reads that never surfaced
	HopsSaved      int64 // host crossings avoided (resubmits of finished lookups)
	BudgetExceeded int64 // lookups aborted by the hop budget
	ResetAborts    int64 // lookups aborted mid-traversal by a controller reset
	CorruptBlocks  int64 // lookups aborted by program block validation
	HostFallbacks  int64 // lookups the libOS ran on the CPU instead
	Inflight       int64 // traversals currently device-side (gauge)
}

// pushdownState is the engine state embedded in Device. Counters are
// atomics: steps run outside the device lock.
type pushdownState struct {
	progs []progSlot // handle = index; nil prog = uninstalled

	installs       atomic.Int64
	lookups        atomic.Int64
	hits           atomic.Int64
	misses         atomic.Int64
	resubmits      atomic.Int64
	hopsSaved      atomic.Int64
	budgetExceeded atomic.Int64
	resetAborts    atomic.Int64
	corruptBlocks  atomic.Int64
	hostFallbacks  atomic.Int64
	inflight       atomic.Int64

	travFree []*traversal
}

type progSlot struct {
	prog Prog
	cfg  PushdownConfig
}

// LookupResult is the single completion a pushdown traversal surfaces.
type LookupResult struct {
	// Value holds the found value. It is immutable and may be kept
	// past the completion callback.
	Value string
	// Found distinguishes a clean miss (Err == nil, Found == false) from
	// a hit.
	Found bool
	// Hops is the number of block reads the traversal performed,
	// including the one that failed — the budget is always accounted.
	Hops int
	// Cost is the accumulated virtual device time: per-hop read + program
	// step, plus the final value's DMA to the host.
	Cost simclock.Lat
	// Err is the typed error that ended the traversal, if any.
	Err error
}

// traversal is one in-flight pushdown lookup. Instances recycle through
// a freelist; onRead is bound once so resubmission allocates nothing.
type traversal struct {
	d      *Device
	prog   Prog
	budget int
	key    [MaxKeyLen]byte
	keyLen int
	hops   int
	cost   simclock.Lat
	done   func(LookupResult)
	onRead func(Completion)
}

// InstallPushdown admits a program into the device's pushdown slot table
// and returns its handle. Admission enforces the sandbox bounds the
// device refuses to outsource: a present program and a hop budget within
// MaxHopBudget.
func (d *Device) InstallPushdown(prog Prog, cfg PushdownConfig) (int, error) {
	if prog == nil {
		return 0, fmt.Errorf("%w: nil program", ErrBadProg)
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = DefaultMaxHops
	}
	if cfg.MaxHops < 1 || cfg.MaxHops > MaxHopBudget {
		return 0, fmt.Errorf("%w: hop budget %d outside [1, %d]", ErrBadProg, cfg.MaxHops, MaxHopBudget)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pd.progs = append(d.pd.progs, progSlot{prog: prog, cfg: cfg})
	d.pd.installs.Add(1)
	return len(d.pd.progs) - 1, nil
}

// UninstallPushdown removes the program at handle; in-flight traversals
// finish with the program they started with.
func (d *Device) UninstallPushdown(handle int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if handle >= 0 && handle < len(d.pd.progs) {
		d.pd.progs[handle] = progSlot{}
	}
}

// SubmitLookup starts a pushdown traversal: read rootLBA, run the
// program at handle over each completed block, follow its verdicts
// device-side, and deliver exactly one LookupResult to done — the single
// host crossing of the whole lookup. The key is copied; the caller may
// reuse it immediately. done runs from whichever goroutine pumps the
// device, like any completion continuation.
func (d *Device) SubmitLookup(handle, rootLBA int, key []byte, done func(LookupResult)) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLong, len(key))
	}
	d.mu.Lock()
	if handle < 0 || handle >= len(d.pd.progs) || d.pd.progs[handle].prog == nil {
		d.mu.Unlock()
		return ErrNoProg
	}
	slot := d.pd.progs[handle]
	t := d.getTraversalLocked()
	t.prog = slot.prog
	t.budget = slot.cfg.MaxHops
	t.keyLen = copy(t.key[:], key)
	t.hops = 0
	t.cost = 0
	t.done = done
	_, err := d.submitLocked(Command{Op: OpRead, LBA: rootLBA}, t.onRead, true)
	if err != nil {
		d.putTraversalLocked(t)
		d.mu.Unlock()
		return err
	}
	d.pd.lookups.Add(1)
	d.pd.inflight.Add(1)
	d.mu.Unlock()
	return nil
}

func (d *Device) getTraversalLocked() *traversal {
	if n := len(d.pd.travFree); n > 0 {
		t := d.pd.travFree[n-1]
		d.pd.travFree = d.pd.travFree[:n-1]
		return t
	}
	t := &traversal{d: d}
	t.onRead = t.step
	return t
}

func (d *Device) putTraversalLocked(t *traversal) {
	t.prog = nil
	t.done = nil
	d.pd.travFree = append(d.pd.travFree, t)
}

// step is the continuation of every read a traversal submits: it runs
// the program over the block in the completion path and acts on the
// verdict.
func (t *traversal) step(c Completion) {
	d := t.d
	t.cost += c.Cost
	if c.Err != nil {
		// The typed error completion: a reset (or injected error) ends
		// the traversal here, hop budget accounted.
		if errors.Is(c.Err, ErrDeviceReset) {
			d.pd.resetAborts.Add(1)
		}
		t.finish(LookupResult{Err: c.Err})
		return
	}
	t.hops++
	// The program runs at the device's offloaded per-element rate.
	t.cost += d.model.OffloadedFilterCost()
	s := t.prog.Step(t.key[:t.keyLen], c.block)
	switch s.Kind {
	case StepNext:
		if s.NextLBA < 0 || s.NextLBA >= d.cfg.NumBlocks {
			t.finish(LookupResult{Err: fmt.Errorf("%w: next LBA %d out of range", ErrCorruptIndex, s.NextLBA)})
			return
		}
		if t.hops >= t.budget {
			d.pd.budgetExceeded.Add(1)
			t.finish(LookupResult{Err: fmt.Errorf("%w: %d hops", ErrHopBudget, t.hops)})
			return
		}
		d.pd.resubmits.Add(1)
		if _, err := d.submit(Command{Op: OpRead, LBA: s.NextLBA}, t.onRead, true); err != nil {
			t.finish(LookupResult{Err: err})
		}
	case StepDone:
		if len(s.Value) > MaxValueLen {
			t.finish(LookupResult{Err: fmt.Errorf("%w: value %d bytes", ErrCorruptIndex, len(s.Value))})
			return
		}
		d.pd.hits.Add(1)
		d.pd.hopsSaved.Add(int64(t.hops - 1))
		// Only the final value DMAs to the host — that is the win.
		t.cost += d.model.DMACost(len(s.Value))
		t.finish(LookupResult{Value: s.Value, Found: true})
	case StepMiss:
		d.pd.misses.Add(1)
		d.pd.hopsSaved.Add(int64(t.hops - 1))
		t.finish(LookupResult{})
	default: // StepCorrupt and anything unrecognised
		d.pd.corruptBlocks.Add(1)
		t.finish(LookupResult{Err: fmt.Errorf("%w: %q at hop %d", ErrCorruptIndex, t.prog.Name(), t.hops)})
	}
}

// finish delivers the traversal's single surfaced completion and
// recycles its state.
func (t *traversal) finish(r LookupResult) {
	r.Hops = t.hops
	r.Cost = t.cost
	d := t.d
	done := t.done
	done(r)
	d.pd.inflight.Add(-1)
	d.mu.Lock()
	d.putTraversalLocked(t)
	d.mu.Unlock()
}

// NoteHostFallback records one lookup the libOS chose to run on the host
// CPU instead of the device ("library OSes ... default to using the CPU
// if necessary"), so the fallback rate is observable next to the
// pushdown counters.
func (d *Device) NoteHostFallback() { d.pd.hostFallbacks.Add(1) }

// PushdownStats returns a snapshot of the pushdown-engine counters.
func (d *Device) PushdownStats() PushdownStats {
	return PushdownStats{
		Installs:       d.pd.installs.Load(),
		Lookups:        d.pd.lookups.Load(),
		Hits:           d.pd.hits.Load(),
		Misses:         d.pd.misses.Load(),
		Resubmits:      d.pd.resubmits.Load(),
		HopsSaved:      d.pd.hopsSaved.Load(),
		BudgetExceeded: d.pd.budgetExceeded.Load(),
		ResetAborts:    d.pd.resetAborts.Load(),
		CorruptBlocks:  d.pd.corruptBlocks.Load(),
		HostFallbacks:  d.pd.hostFallbacks.Load(),
		Inflight:       d.pd.inflight.Load(),
	}
}

// registerPushdownTelemetry lifts the pushdown counters into a registry
// under prefix (RegisterTelemetry appends ".pushdown" for it).
func (d *Device) registerPushdownTelemetry(r *telemetry.Registry, prefix string) {
	r.RegisterFunc(prefix+".installs", d.pd.installs.Load)
	r.RegisterFunc(prefix+".lookups", d.pd.lookups.Load)
	r.RegisterFunc(prefix+".hits", d.pd.hits.Load)
	r.RegisterFunc(prefix+".misses", d.pd.misses.Load)
	r.RegisterFunc(prefix+".resubmits", d.pd.resubmits.Load)
	r.RegisterFunc(prefix+".hops_saved", d.pd.hopsSaved.Load)
	r.RegisterFunc(prefix+".budget_exceeded", d.pd.budgetExceeded.Load)
	r.RegisterFunc(prefix+".reset_aborts", d.pd.resetAborts.Load)
	r.RegisterFunc(prefix+".corrupt_blocks", d.pd.corruptBlocks.Load)
	r.RegisterFunc(prefix+".host_fallbacks", d.pd.hostFallbacks.Load)
	r.RegisterFunc(prefix+".inflight", d.pd.inflight.Load)
}
