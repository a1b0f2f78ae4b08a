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
// The mechanism is the device's completion path: a lookup submits one
// read, and where that read completes, under the device lock in the same
// pump, the device runs the lookup's program over the block, as a
// controller runs it in its completion path. The program's verdict either
// queues the next read for the next pump — device-internal, no host DMA,
// no surfaced completion — or emits the final value (or a typed error)
// as the single result that crosses back to the libOS.
//
// The completion path is the protection boundary: every per-hop verdict
// is validated at run time (LBA range, value bounds), and the hop budget
// guarantees termination no matter what the program does. The device —
// standing in for the OS control plane — never cedes those checks to the
// application, exactly the kernel-retains-control split the paper argues
// for. The host fallback (HostLookup) runs the same program through the
// same checks, one host read per hop, so where a lookup runs is a
// scheduling decision and never a semantics change.

// Sandbox limits on pushdown programs and lookups.
const (
	// MaxKeyLen bounds the lookup key a traversal carries device-side.
	MaxKeyLen = 128
	// MaxHops is the per-lookup hop budget: the block reads a traversal
	// may make before it ends with ErrHopBudget.
	MaxHops = 16
	// MaxValueLen bounds the value a program may emit from a block.
	MaxValueLen = BlockSize
)

// Pushdown errors. All surface as the Err of exactly one completion.
var (
	ErrNotFound     = errors.New("spdk: key not found")
	ErrHopBudget    = errors.New("spdk: pushdown hop budget exhausted")
	ErrBadProg      = errors.New("spdk: pushdown program rejected")
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
	// of the block's Data: blocks are immutable, so it stays valid.
	Value string
}

// Prog is a sandboxed pushdown program: a pure function from (key,
// block) to a verdict. The block is the media block itself, whose bytes
// (Block.Data) are a string so the program cannot write them; it never
// changes, so the program may keep it or any part of it. A program runs
// in the device's completion path, under the device lock: it must not
// block or call the device. The admission check cannot verify that
// (this is a simulation, not a verifier), but the engine re-validates
// every verdict, so a misbehaving program can waste its own hop budget
// and nothing else.
type Prog interface {
	// Name identifies the program in telemetry and errors.
	Name() string
	// Step inspects one block and decides what happens next.
	Step(key []byte, b *Block) Step
}

// PushdownStats counts pushdown-engine events.
type PushdownStats struct {
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
// atomics: PushdownStats reads them without the device lock.
type pushdownState struct {
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

// LookupResult is the single completion a pushdown traversal surfaces,
// and what HostLookup returns.
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
	// step, plus the final value's DMA to the host (a host fallback's
	// reads DMA each whole block instead).
	Cost simclock.Lat
	// Err is the typed error that ended the traversal, if any.
	Err error
}

// traversal is one lookup's walk down a block structure, in either
// mode. Instances recycle through a freelist, so a hop allocates
// nothing.
type traversal struct {
	d    *Device
	prog Prog
	// host marks the CPU fallback: every block crosses to the host and
	// the program runs at host rate. It moves no pushdown counter.
	host bool
	// stepCost is the virtual cost of one program step where it runs.
	stepCost simclock.Lat
	key      [MaxKeyLen]byte
	keyLen   int
	hops     int
	cost     simclock.Lat
	// res is the result that ended the walk, once it has ended.
	res  LookupResult
	done func(LookupResult)
}

// SubmitLookup starts a pushdown traversal: read rootLBA, run prog over
// each completed block, follow its verdicts device-side, and deliver
// exactly one LookupResult to done — the single host crossing of the
// whole lookup. The program is untrusted: admission refuses only a
// missing one and a key past MaxKeyLen, and every verdict it returns is
// checked in the completion path. The key is copied; the caller may
// reuse it immediately. done runs from whichever goroutine pumps the
// device.
func (d *Device) SubmitLookup(prog Prog, rootLBA int, key []byte, done func(LookupResult)) error {
	if err := admit(prog, key); err != nil {
		return err
	}
	d.mu.Lock()
	t := d.getTraversalLocked(prog, key, false)
	t.done = done
	if err := d.queueHopLocked(&d.sq, rootLBA, t); err != nil {
		d.putTraversalLocked(t)
		d.mu.Unlock()
		return err
	}
	d.pd.lookups.Add(1)
	d.pd.inflight.Add(1)
	d.mu.Unlock()
	return nil
}

// admit refuses a lookup the device will not start, in either mode.
func admit(prog Prog, key []byte) error {
	if prog == nil {
		return fmt.Errorf("%w: nil program", ErrBadProg)
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLong, len(key))
	}
	return nil
}

// HostLookup is the CPU fallback ("library OSes ... default to using the
// CPU if necessary"): the traversal SubmitLookup runs, under the same
// rules, but every block crosses to the host as a full read with its
// block-sized DMA, and prog runs at host rate. It returns when the
// traversal ends, with the number of device round trips it made. Of the
// pushdown counters it moves only HostFallbacks.
func (d *Device) HostLookup(prog Prog, rootLBA int, key []byte) (r LookupResult, reads int) {
	d.pd.hostFallbacks.Add(1)
	if err := admit(prog, key); err != nil {
		return LookupResult{Err: err}, 0
	}
	d.mu.Lock()
	t := d.getTraversalLocked(prog, key, true)
	d.mu.Unlock()
	for lba, more := rootLBA, true; more; reads++ {
		c := d.execute(Command{Op: OpRead, LBA: lba}, toHostInPlace)
		lba, more = t.advance(&c)
	}
	r = t.result()
	d.mu.Lock()
	d.putTraversalLocked(t)
	d.mu.Unlock()
	return r, reads
}

func (d *Device) getTraversalLocked(prog Prog, key []byte, host bool) *traversal {
	var t *traversal
	if n := len(d.pd.travFree); n > 0 {
		t = d.pd.travFree[n-1]
		d.pd.travFree = d.pd.travFree[:n-1]
	} else {
		t = &traversal{d: d}
	}
	t.prog = prog
	t.host = host
	// The device runs the program at its offloaded per-element rate.
	t.stepCost = d.model.OffloadedFilterCost()
	if host {
		t.stepCost = d.model.FilterNS
	}
	t.keyLen = copy(t.key[:], key)
	t.hops = 0
	t.cost = 0
	return t
}

func (d *Device) putTraversalLocked(t *traversal) {
	t.prog = nil
	t.res = LookupResult{}
	t.done = nil
	d.pd.travFree = append(d.pd.travFree, t)
}

// advance takes one completed read of a traversal in either mode and
// holds the program's verdict on its block to the device's rules: the
// next LBA must lie in the namespace, the walk must end within MaxHops
// reads, and a value must fit in MaxValueLen. It returns the next LBA to
// read, or more == false once t.res holds the result that ends the walk.
func (t *traversal) advance(c *Completion) (next int, more bool) {
	d := t.d
	t.cost += c.Cost
	if c.Err != nil {
		// The typed error completion: a reset (or injected error) ends
		// the traversal here, hop budget accounted.
		if errors.Is(c.Err, ErrDeviceReset) {
			t.count(&d.pd.resetAborts, 1)
		}
		return t.end(LookupResult{Err: c.Err})
	}
	t.hops++
	t.cost += t.stepCost
	s := t.prog.Step(t.key[:t.keyLen], c.block)
	switch s.Kind {
	case StepNext:
		if s.NextLBA < 0 || s.NextLBA >= d.cfg.NumBlocks {
			return t.end(LookupResult{Err: fmt.Errorf("%w: next LBA %d out of range", ErrCorruptIndex, s.NextLBA)})
		}
		if t.hops >= MaxHops {
			t.count(&d.pd.budgetExceeded, 1)
			return t.end(LookupResult{Err: fmt.Errorf("%w: %d hops", ErrHopBudget, t.hops)})
		}
		return s.NextLBA, true
	case StepDone:
		if len(s.Value) > MaxValueLen {
			return t.end(LookupResult{Err: fmt.Errorf("%w: value %d bytes", ErrCorruptIndex, len(s.Value))})
		}
		t.count(&d.pd.hits, 1)
		t.count(&d.pd.hopsSaved, int64(t.hops-1))
		if !t.host {
			// Only the final value DMAs to the host — that is the win.
			t.cost += d.model.DMACost(len(s.Value))
		}
		return t.end(LookupResult{Value: s.Value, Found: true})
	case StepMiss:
		t.count(&d.pd.misses, 1)
		t.count(&d.pd.hopsSaved, int64(t.hops-1))
		return t.end(LookupResult{})
	default: // StepCorrupt and anything unrecognised
		t.count(&d.pd.corruptBlocks, 1)
		return t.end(LookupResult{Err: fmt.Errorf("%w: %q at hop %d", ErrCorruptIndex, t.prog.Name(), t.hops)})
	}
}

// end records the result that ends the walk.
func (t *traversal) end(r LookupResult) (next int, more bool) {
	t.res = r
	return 0, false
}

// count adds n to a pushdown-engine counter; the host fallback moves
// none of them.
func (t *traversal) count(c *atomic.Int64, n int64) {
	if !t.host {
		c.Add(n)
	}
}

// queueHopLocked queues a pushdown traversal's read of lba on q: sq for a
// lookup's first read, next for the read a hop descends to.
func (d *Device) queueHopLocked(q *[]sqe, lba int, t *traversal) error {
	if len(*q) >= d.cfg.QueueDepth {
		d.stats.QueueFulls++
		return ErrQueueFull
	}
	*q = append(*q, sqe{lba: lba, t: t})
	return nil
}

// hopLocked is where a pushdown read completes: it runs the program over
// the block under the device lock and either queues the next read
// device-side for the next pump or stages the traversal as finished
// (dispatch delivers its result and recycles it).
func (d *Device) hopLocked(t *traversal, c *Completion) {
	if next, more := t.advance(c); more {
		d.pd.resubmits.Add(1)
		err := d.queueHopLocked(&d.next, next, t)
		if err == nil {
			return
		}
		t.res = LookupResult{Err: err}
	}
	d.conts = append(d.conts, t)
}

// result is the walk's result with its hops and cost.
func (t *traversal) result() LookupResult {
	r := t.res
	r.Hops = t.hops
	r.Cost = t.cost
	return r
}

// PushdownStats returns a snapshot of the pushdown-engine counters.
func (d *Device) PushdownStats() PushdownStats {
	return PushdownStats{
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
