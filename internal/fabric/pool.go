package fabric

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"

	"demikernel/internal/sga"
	"demikernel/internal/telemetry"
)

// This file implements the frame pool behind the zero-allocation data
// path. A kernel-bypass stack that allocates per packet spends its µs
// budget in the allocator and the GC instead of the wire (§4.5 of the
// paper puts buffer management squarely in the libOS); the pool recycles
// frame backing storage across the whole tx→wire→rx pipeline.
//
// Ownership contract: a FrameBuf starts with one reference. Exactly one
// holder owns a Frame at any moment — the sending stack until Port.Send,
// the switch while the frame is in flight (including the reorder hold
// slot), the NIC ring after delivery, and finally the receiving stack,
// which releases it once the payload has been copied out or consumed.
// Every drop point (runt, link down, injected loss, ring full) releases.
// Frames whose Buf is nil (heap-backed, e.g. from tests or transports
// that do not pool) are unaffected: Release is a no-op for them, so the
// pool is strictly opt-in and never required for correctness.
//
// The same pool backs every pool-backed SGA: the buffers AllocSGA hands
// out and the ones popped SGAs are decoded into are FrameBufs too, each
// the whole SGA — segments, Free and reference count — in one pooled
// object. One buffer type serves the wire frame and the application, as
// one DPDK mempool serves the NIC and the app; a push holds the buffer of
// the SGA it has queued by one more reference (Retain).

// frameClasses are the pooled buffer size classes. The largest class
// covers a full Ethernet+IPv4+TCP frame at the default 1400-byte MSS
// with headroom; larger requests fall back to dedicated heap buffers
// (counted as misses, never recycled).
var frameClasses = [...]int{128, 512, 2048, 16384}

// Accountant charges pooled frame storage to some resource account —
// the hook the multi-tenant plane (internal/tenant's Ledger) plugs in.
// ChargeFrame is called once per Get with the class-rounded byte size
// and may refuse (Get then returns nil); CreditFrame is called once
// when the final reference is released. Both run on the per-frame hot
// path and must be lock-free.
type Accountant interface {
	ChargeFrame(bytes int) bool
	CreditFrame(bytes int)
}

// ErrNoMem is the typed backpressure error surfaced when a pool's
// accountant refuses a charge: one tenant exhausting its frame quota gets
// this while every other tenant's pool keeps allocating.
var ErrNoMem = errors.New("fabric: frame quota exhausted")

// FrameBuf is a reference-counted, pool-recycled frame backing buffer.
// It is also the whole of a pool-backed SGA, and that SGA's Reg: its
// segments are inline (up to 8, which covers every app in this repo) and
// its Free is bound once, so after the first few calls SGA and FrameAlloc
// cost one class-pool Get and Free one Put. The count holds the
// application's reference, dropped by Free, and one per push of the SGA
// that a transport still has queued (Retain); the storage goes back to
// the pool when the last is gone, so "push it, then Free it" is safe
// however long the push waits (free-protection, §4.5).
type FrameBuf struct {
	pool  *FramePool
	class int8 // index into frameClasses; classOversized, classBare
	refs  atomic.Int32
	data  []byte // current view (len = requested size)
	full  []byte // full class-sized backing storage

	inline [8]sga.Segment
	free   func() // freeSGA, bound on first use as an SGA
	// freed is set by the application's Free and cleared when the buffer
	// is handed out as an SGA again. A plain field, not an atomic: between
	// hand-outs only the application writes it.
	freed bool
}

// The classes of a FrameBuf that is not in frameClasses: an oversized
// buffer, on dedicated heap storage that is never recycled, and a bare
// one, behind an empty or over-quota SGA, which the pool neither counts
// nor charges.
const (
	classOversized = -1
	classBare      = -2
)

// Owner names the tenant owning the buffer's pool ("" when unowned).
func (b *FrameBuf) Owner() string {
	if b.pool == nil {
		return ""
	}
	return b.pool.owner
}

// ownerSuffix tags a panic message with the offending tenant. Only the
// failure path pays the formatting.
func (b *FrameBuf) ownerSuffix() string {
	if o := b.Owner(); o != "" {
		return " [pool owner: " + o + "]"
	}
	return ""
}

// Bytes returns the buffer's usable bytes (length = the size requested
// from Get). The slice is valid until the final reference is released.
func (b *FrameBuf) Bytes() []byte { return b.data }

// Retain takes an additional reference: a transport's, for as long as a
// push of the SGA the buffer backs is queued. It is only legal while the
// caller itself holds a live reference, so a legal Retain never sees the
// count at 0; an illegal one that races the final Release flips it 0→1
// and panics (Add returns exactly 1) instead of resurrecting storage the
// pool may already have handed to someone else.
func (b *FrameBuf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("fabric: Retain on released FrameBuf" + b.ownerSuffix())
	}
}

// Release drops one reference; the storage recycles into the pool when
// the last reference is gone. Releasing more times than retained is a
// bug and panics. Exactly one goroutine can observe the count hit 0
// (atomic decrement), so put runs at most once per lifetime.
func (b *FrameBuf) Release() {
	n := b.refs.Add(-1)
	switch {
	case n == 0:
		if b.pool != nil {
			b.pool.onFinalRelease(b)
		}
	case n < 0:
		panic("fabric: FrameBuf reference count underflow (double release)" + b.ownerSuffix())
	}
}

// FramePoolStats is a snapshot of a pool's counters.
type FramePoolStats struct {
	// Pooled counts Gets served by recycling a previously released
	// buffer.
	Pooled int64
	// Misses counts Gets that had to allocate fresh storage (cold pool
	// or oversized request).
	Misses int64
	// Recycled counts buffers returned to the pool's free lists.
	Recycled int64
	// QuotaDenied counts Gets refused by the pool's accountant (the
	// owning tenant was over its frame quota).
	QuotaDenied int64
	// Outstanding is buffers handed out and not yet finally released.
	Outstanding int64
	// DoubleFrees counts Frees of a pool SGA the application had already
	// freed, through another copy of it: counted and ignored.
	DoubleFrees int64
}

// FramePool recycles frame buffers by size class. It is safe for
// concurrent use. The zero value is not usable; call NewFramePool.
//
// The hot counters are each padded to their own cache line: Get and put
// run on every frame of every shard, and with the counters adjacent a
// TX-heavy shard bumping misses would invalidate the line an RX-heavy
// shard needs for recycled (write-write false sharing). sync.Pool is
// already per-P sharded internally.
type FramePool struct {
	classes [len(frameClasses)]sync.Pool
	// bare recycles the FrameBufs of bare SGAs (see sgaBuf), so that an
	// empty SGA costs no allocation and an over-quota one only its bytes.
	bare sync.Pool

	// owner/acct attribute the pool to a tenant (SetOwner, config
	// time). acct==nil — the single-tenant default — costs the hot
	// path one predictable nil check.
	owner string
	acct  Accountant

	pooled   atomic.Int64
	_        [56]byte //nolint:unused // false-sharing pad
	misses   atomic.Int64
	_        [56]byte //nolint:unused // false-sharing pad
	recycled atomic.Int64
	_        [56]byte //nolint:unused // false-sharing pad

	quotaDenied atomic.Int64
	// dropped counts oversized buffers' final releases, which Outstanding
	// subtracts beside recycled; doubleFrees is freeSGA's.
	dropped     atomic.Int64
	doubleFrees atomic.Int64
}

// NewFramePool returns an empty frame pool.
func NewFramePool() *FramePool { return &FramePool{} }

// SetOwner tags the pool with the owning tenant's name (surfaced in
// reference-count violation panics, naming the offender) and optionally
// attaches an accountant charging the tenant's frame quota. Call before
// the pool is shared with the data path; not safe concurrently with
// Get/Release.
func (p *FramePool) SetOwner(owner string, acct Accountant) {
	p.owner = owner
	p.acct = acct
}

// Owner returns the pool's owner tag ("" when unowned).
func (p *FramePool) Owner() string { return p.owner }

// DefaultFramePool is the process-wide pool the simulated stacks draw
// their frame buffers from.
var DefaultFramePool = NewFramePool()

// classFor returns the index of the smallest class that fits n, or -1.
func classFor(n int) int {
	for i, c := range frameClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// Get returns a buffer whose Bytes() is exactly n bytes, backed by
// recycled pool storage when available. The caller owns one reference.
//
// When the pool has an accountant (multi-tenant mode) and the charge is
// refused, Get returns nil: the owning tenant is over its frame quota.
// Callers on the data path treat nil as a drop-with-backpressure (the
// typed error for it is ErrNoMem); pools without an accountant never
// return nil.
func (p *FramePool) Get(n int) *FrameBuf {
	ci := classFor(n)
	if p.acct != nil && !p.acct.ChargeFrame(chargeSize(ci, n)) {
		p.quotaDenied.Add(1)
		return nil
	}
	if ci < 0 {
		// Oversized: dedicated heap buffer, never recycled.
		p.misses.Add(1)
		mem := make([]byte, n)
		b := &FrameBuf{pool: p, class: classOversized, data: mem, full: mem}
		b.refs.Store(1)
		return b
	}
	var b *FrameBuf
	if v := p.classes[ci].Get(); v != nil {
		b = v.(*FrameBuf)
		p.pooled.Add(1)
	} else {
		p.misses.Add(1)
		mem := make([]byte, frameClasses[ci])
		b = &FrameBuf{pool: p, class: int8(ci)}
		b.full = mem
	}
	b.data = b.full[:n]
	b.refs.Store(1)
	return b
}

// chargeSize is the accounted size of a buffer in class ci: the full
// class-rounded backing size (that is what the tenant really pins), or
// the raw request for oversized heap buffers.
func chargeSize(ci, n int) int {
	if ci >= 0 {
		return frameClasses[ci]
	}
	return n
}

// onFinalRelease runs exactly once per buffer lifetime, when the last
// reference is gone: the tenant's account is credited and class-backed
// storage recycles (oversized buffers go to the GC, as before).
func (p *FramePool) onFinalRelease(b *FrameBuf) {
	// Drop the payload references an SGA left in its segments before
	// pooling: they run up to the first unused one.
	for i := range b.inline {
		if b.inline[i].Buf == nil {
			break
		}
		b.inline[i] = sga.Segment{}
	}
	if b.class == classBare {
		b.data = nil
		p.bare.Put(b)
		return
	}
	if p.acct != nil {
		p.acct.CreditFrame(chargeSize(int(b.class), len(b.full)))
	}
	if b.class >= 0 {
		p.put(b)
	} else {
		p.dropped.Add(1)
	}
}

func (p *FramePool) put(b *FrameBuf) {
	// Defensive fence for the reference count: by the time the last
	// Release reaches here no other holder may exist, so any non-zero
	// count means a reference was taken after the final Release.
	// Failing loudly here beats recycling a buffer somebody still reads.
	if b.refs.Load() != 0 {
		panic("fabric: FrameBuf recycled while still referenced (illegal Retain after final Release)" + b.ownerSuffix())
	}
	b.data = nil
	p.recycled.Add(1)
	p.classes[b.class].Put(b)
}

// sgaBuf returns a buffer of n bytes for a pool SGA, the application's
// reference held. An empty SGA, and one whose charge the accountant
// refused, gets a bare buffer: no pool storage, heap bytes when n > 0 (the
// SGA still works; the over-quota tenant loses recycling, not
// correctness), and nothing counted or charged.
func (p *FramePool) sgaBuf(n int) *FrameBuf {
	var b *FrameBuf
	if n > 0 {
		b = p.Get(n)
	}
	if b == nil {
		if b, _ = p.bare.Get().(*FrameBuf); b == nil {
			b = &FrameBuf{pool: p, class: classBare}
		}
		if n > 0 {
			b.data = make([]byte, n)
		}
		b.refs.Store(1)
	}
	if b.free == nil {
		b.free = b.freeSGA
	}
	b.freed = false
	return b
}

// SGA returns a one-segment SGA of n bytes from the pool, its buffer in
// Reg and the buffer's release as its Free: what a libOS's AllocSGA hands
// out.
func (p *FramePool) SGA(n int) sga.SGA {
	b := p.sgaBuf(n)
	b.inline[0] = sga.Segment{Buf: b.data}
	return sga.SGA{Segments: b.inline[:1], Reg: b}.WithFree(b.free)
}

// FrameAlloc implements sga.FrameAlloc over the pool: a frame being
// decoded goes into one pool buffer, which the framer sub-slices per
// segment into the buffer's inline segments.
func (p *FramePool) FrameAlloc(n int) ([]byte, []sga.Segment, func(), any) {
	b := p.sgaBuf(n)
	return b.data, b.inline[:0], b.free, b
}

// freeSGA is a pool SGA's Free: it drops the application's reference. A
// second Free, through another copy of the SGA, is counted and ignored.
func (b *FrameBuf) freeSGA() {
	if b.freed {
		b.pool.doubleFrees.Add(1)
		return
	}
	b.freed = true
	b.Release()
}

// Stats returns a snapshot of the pool's counters.
func (p *FramePool) Stats() FramePoolStats {
	return FramePoolStats{
		Pooled:      p.pooled.Load(),
		Misses:      p.misses.Load(),
		Recycled:    p.recycled.Load(),
		QuotaDenied: p.quotaDenied.Load(),
		Outstanding: p.Outstanding(),
		DoubleFrees: p.doubleFrees.Load(),
	}
}

// Outstanding returns how many buffers are handed out and not yet finally
// released: 0 on a pool at rest that nothing leaks from.
func (p *FramePool) Outstanding() int64 {
	return p.pooled.Load() + p.misses.Load() - p.recycled.Load() - p.dropped.Load()
}

// PoolStats returns the counters of the process-wide DefaultFramePool,
// for observability surfaces (cmd/demi-bench).
func PoolStats() FramePoolStats { return DefaultFramePool.Stats() }

// RegisterTelemetry lifts the pool's counters into a telemetry registry
// under prefix (e.g. "framepool").
func (p *FramePool) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	r.RegisterFunc(prefix+".pooled", p.pooled.Load)
	r.RegisterFunc(prefix+".misses", p.misses.Load)
	r.RegisterFunc(prefix+".recycled", p.recycled.Load)
	r.RegisterFunc(prefix+".quota_denied", p.quotaDenied.Load)
	r.RegisterFunc(prefix+".outstanding", p.Outstanding)
}

// RegisterBurstTelemetry lifts the process-wide RX burst-size histogram
// into a telemetry registry under prefix, one sample per bucket
// (prefix.le_N / prefix.gt_N, mirroring BurstBucketLabel).
func RegisterBurstTelemetry(r *telemetry.Registry, prefix string) {
	for i := 0; i < BurstBuckets; i++ {
		i := i
		label := BurstBucketLabel(i)
		switch {
		case i < BurstBuckets-1 && i > 1:
			label = "le_" + itoa(1<<i)
		case i == BurstBuckets-1:
			label = "gt_" + itoa(1<<(BurstBuckets-2))
		}
		r.RegisterFunc(prefix+"."+label, burstHist[i].Load)
	}
}

// --- burst-size observability ---

// BurstBuckets is the number of burst-size histogram buckets. Bucket i
// (for i < BurstBuckets-1) counts bursts of size in (2^(i-1), 2^i]; the
// last bucket counts everything larger.
const BurstBuckets = 9

var burstHist [BurstBuckets]atomic.Int64

// RecordBurstSize records the size of one non-empty receive burst in the
// process-wide histogram. Devices call it from their rx_burst paths so
// batching efficiency is observable, not asserted.
func RecordBurstSize(n int) {
	if n <= 0 {
		return
	}
	i := bits.Len(uint(n - 1)) // 1→0, 2→1, 4→2, 8→3, ...
	if i >= BurstBuckets {
		i = BurstBuckets - 1
	}
	burstHist[i].Add(1)
}

// BurstHistogram returns a snapshot of the burst-size histogram.
func BurstHistogram() [BurstBuckets]int64 {
	var out [BurstBuckets]int64
	for i := range out {
		out[i] = burstHist[i].Load()
	}
	return out
}

// BurstBucketLabel names histogram bucket i ("1", "2", "≤4", ... ">128").
func BurstBucketLabel(i int) string {
	switch {
	case i == 0:
		return "1"
	case i == 1:
		return "2"
	case i < BurstBuckets-1:
		return "≤" + itoa(1<<i)
	default:
		return ">" + itoa(1<<(BurstBuckets-2))
	}
}

// itoa avoids pulling strconv into the hot-path package for one label.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
