// Package tenant is the multi-tenant protection plane of the simulated
// kernel-bypass stack: the piece of the paper's argument (§3, §7) that
// the OS role which *cannot* move into the application is protecting
// applications from each other. Untrusting applications share one NIC;
// nothing in a DPDK-class device stops one of them from hogging frame
// memory, binding filters over a neighbour's flows, or saturating the
// TX path — so, following Beadle et al.'s "Safe Sharing of Fast
// Kernel-Bypass I/O Among Nontrusting Applications" (see PAPERS.md),
// the control plane pre-computes per-tenant resource bounds at bind
// time and the data plane enforces them with counters, not locks:
//
//   - a Ledger charges every pooled frame a tenant holds against its
//     byte/frame quota (fabric.FramePool calls it through the
//     fabric.Accountant interface), AllocSGA's buffers included;
//   - steering bounds (which MAC/IP/port ranges a tenant may bind
//     filters for) are validated by internal/nic at rule-install time —
//     the data path never re-checks them;
//   - TX weight and rate-limit parameters feed the NIC's
//     weighted-deficit-round-robin scheduler.
//
// The ledger also makes the frame-conservation law per-tenant: every
// frame a tenant touches is charged to it, every release credits it,
// and Reclaim zeroes it on crash — so "the hostile tenant's quota
// returns to zero after Crash()" is an assertable invariant, not a
// hope.
package tenant

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"demikernel/internal/fabric"
	"demikernel/internal/telemetry"
)

// ID names one tenant sharing the NIC.
type ID string

// Policy is a tenant's resource contract, fixed at registration. The
// zero value of any field means "unbounded / default" so single-tenant
// rigs lose nothing.
type Policy struct {
	// FrameQuotaBytes caps the bytes of pooled frame storage the tenant
	// may hold at once (TX frames in flight, RX payload copies, the
	// buffers popped SGAs are decoded into, AllocSGA's). Exhaustion
	// surfaces as a failed FramePool.Get; the SGA paths fall back to heap
	// memory, the frame paths drop with backpressure. 0 = unbounded.
	FrameQuotaBytes int64
	// FrameQuotaFrames caps the number of outstanding pooled frames.
	// 0 = unbounded.
	FrameQuotaFrames int64

	// TxWeight is the tenant's share in the NIC's weighted-deficit-
	// round-robin TX scheduler. 0 = weight 1.
	TxWeight int
	// TxRateBps, when nonzero, rate-limits the tenant's TX path with a
	// token bucket of TxBurstBytes (default: one quantum) refilled at
	// TxRateBps bytes/second.
	TxRateBps int64
	// TxBurstBytes is the token bucket depth for TxRateBps.
	TxBurstBytes int64

	// MACs / IPs / PortLo..PortHi bound what the tenant may bind
	// steering rules for. Empty MACs/IPs default to exactly the
	// tenant's own identity; PortLo=PortHi=0 means every port.
	MACs   []fabric.MAC
	IPs    [][4]byte
	PortLo uint16
	PortHi uint16
}

// ErrDuplicate is returned by Register for an already-registered ID.
var ErrDuplicate = errors.New("tenant: id already registered")

// Ledger is a tenant's frame-quota account: lock-free charge/credit
// counters the frame-pool hot path can afford. It implements
// fabric.Accountant.
//
// Credits clamp at zero rather than going negative: after a crash
// Reclaim zeroes the account while frames the dead tenant leaked may
// still be released by the fabric later; their late credits must not
// drive occupancy below zero (that would hide a subsequent leak of
// equal size).
type Ledger struct {
	maxBytes  int64
	maxFrames int64

	bytes   atomic.Int64
	frames  atomic.Int64
	denials atomic.Int64

	reclaims        atomic.Int64
	reclaimedFrames atomic.Int64
	reclaimedBytes  atomic.Int64
}

// NewLedger returns a ledger enforcing the given caps (0 = unbounded).
func NewLedger(maxBytes, maxFrames int64) *Ledger {
	return &Ledger{maxBytes: maxBytes, maxFrames: maxFrames}
}

// ChargeFrame implements fabric.Accountant: it accounts one outstanding
// frame of n bytes, refusing (and counting a denial) when either cap
// would be exceeded. The optimistic add-then-undo keeps the common case
// a single atomic per cap; a racing pair may transiently observe the
// sum over cap and both back off, which errs on the side of protection.
func (l *Ledger) ChargeFrame(n int) bool {
	if f := l.frames.Add(1); l.maxFrames > 0 && f > l.maxFrames {
		decClamped(&l.frames, 1)
		l.denials.Add(1)
		return false
	}
	if b := l.bytes.Add(int64(n)); l.maxBytes > 0 && b > l.maxBytes {
		decClamped(&l.bytes, int64(n))
		decClamped(&l.frames, 1)
		l.denials.Add(1)
		return false
	}
	return true
}

// CreditFrame implements fabric.Accountant: the final release of an
// n-byte frame returns its account. Clamped at zero (see type comment).
func (l *Ledger) CreditFrame(n int) {
	decClamped(&l.frames, 1)
	decClamped(&l.bytes, int64(n))
}

// decClamped subtracts n from v without letting it go below zero.
func decClamped(v *atomic.Int64, n int64) {
	for {
		cur := v.Load()
		next := cur - n
		if next < 0 {
			next = 0
		}
		if cur == next || v.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Reclaim zeroes the account — the crash path: whatever the dead tenant
// still held (including frames it leaked by withholding Release) is
// repossessed by the control plane. Returns what was outstanding.
func (l *Ledger) Reclaim() (frames, bytes int64) {
	frames = l.frames.Swap(0)
	bytes = l.bytes.Swap(0)
	l.reclaims.Add(1)
	l.reclaimedFrames.Add(frames)
	l.reclaimedBytes.Add(bytes)
	return frames, bytes
}

// Outstanding reports the currently charged frames and bytes.
func (l *Ledger) Outstanding() (frames, bytes int64) {
	return l.frames.Load(), l.bytes.Load()
}

// Denials reports how many charges the caps refused.
func (l *Ledger) Denials() int64 { return l.denials.Load() }

// Reclaims reports completed Reclaim calls and the cumulative frames
// and bytes they repossessed.
func (l *Ledger) Reclaims() (count, frames, bytes int64) {
	return l.reclaims.Load(), l.reclaimedFrames.Load(), l.reclaimedBytes.Load()
}

// Tenant is one registered tenant: identity, contract, and account.
type Tenant struct {
	ID     ID
	Policy Policy
	Ledger *Ledger
}

// RegisterTelemetry lifts the tenant's ledger counters into a registry
// under prefix (e.g. "tenant.a"): quota occupancy, denials, reclaims.
func (t *Tenant) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	r.RegisterFunc(prefix+".frames_outstanding", func() int64 {
		f, _ := t.Ledger.Outstanding()
		return f
	})
	r.RegisterFunc(prefix+".bytes_outstanding", func() int64 {
		_, b := t.Ledger.Outstanding()
		return b
	})
	r.RegisterFunc(prefix+".quota_denials", t.Ledger.Denials)
	r.RegisterFunc(prefix+".reclaims", func() int64 {
		c, _, _ := t.Ledger.Reclaims()
		return c
	})
	r.RegisterFunc(prefix+".reclaimed_frames", func() int64 {
		_, f, _ := t.Ledger.Reclaims()
		return f
	})
	r.RegisterFunc(prefix+".reclaimed_bytes", func() int64 {
		_, _, b := t.Ledger.Reclaims()
		return b
	})
}

// Registry is the TenantID-keyed control plane: registration is the
// bind-time moment every per-tenant bound is fixed. It is safe for
// concurrent use; the data path never touches it.
type Registry struct {
	mu      sync.Mutex
	tenants map[ID]*Tenant
	order   []ID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[ID]*Tenant)}
}

// Register creates the tenant and its ledger from the policy. A second
// registration of the same ID fails with ErrDuplicate: a tenant's
// contract is fixed for its lifetime.
func (r *Registry) Register(id ID, p Policy) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	t := &Tenant{ID: id, Policy: p, Ledger: NewLedger(p.FrameQuotaBytes, p.FrameQuotaFrames)}
	r.tenants[id] = t
	r.order = append(r.order, id)
	return t, nil
}

// Get returns the tenant registered under id.
func (r *Registry) Get(id ID) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	return t, ok
}

// List returns every tenant in registration order.
func (r *Registry) List() []*Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Tenant, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.tenants[id])
	}
	return out
}

// RegisterTelemetry registers every tenant's ledger under
// prefix.<id>.* (tenants registered later are not picked up; register
// tenants before telemetry, as Cluster.Spawn does).
func (r *Registry) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	for _, t := range r.List() {
		t.RegisterTelemetry(reg, prefix+"."+string(t.ID))
	}
}
