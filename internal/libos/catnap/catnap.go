// Package catnap is the kernel library OS: it implements the Demikernel
// queue abstraction over ordinary (simulated) kernel sockets. It exists
// for portability and development, just like the open-source Demikernel's
// catnap: the same application binary that runs over catnip (DPDK) or
// catmint (RDMA) runs here — paying the legacy costs of Figure 1's left
// side: a syscall crossing and a payload copy per I/O, and the in-kernel
// network stack per packet.
//
// Figure 1's two columns run the same protocol over the same wire, so a
// catnap socket is a catnip endpoint on a transport with a kernel attached
// (catnip.Transport.SetKernel): the one pump charges the kernel's prices.
// What is catnap's own is what differs — the features, plain heap buffers,
// the file queues' layout in kernel files, and the kernel's counters.
package catnap

import (
	"demikernel/internal/core"
	"demikernel/internal/kernel"
	"demikernel/internal/libos/catnip"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// Transport is the catnap libOS transport.
type Transport struct {
	set   *catnip.ShardSet
	k     *kernel.Kernel
	files queue.Files
}

// New puts set, a catnip set of one, on the kernel path of a fresh kernel
// and wraps it: its sockets are catnap's, at kernel prices.
func New(model *simclock.CostModel, set *catnip.ShardSet) *Transport {
	t := &Transport{set: set, k: kernel.New(model)}
	set.Shard(0).SetKernel(t.k)
	return t
}

// Name implements core.Transport.
func (t *Transport) Name() string { return "catnap" }

// Features implements core.Transport: no kernel bypass at all — the
// kernel supplies everything, at kernel prices.
func (t *Transport) Features() core.Features {
	return core.Features{
		KernelBypass:     false,
		SoftwareSupplied: []string{"sga framing"},
	}
}

// Kernel exposes the kernel (for counters and its file system).
func (t *Transport) Kernel() *kernel.Kernel { return t.k }

// Set exposes the catnip set of one the sockets run on, which SwitchKind
// hands to the bypass path as it is.
func (t *Transport) Set() *catnip.ShardSet { return t.set }

// RegisterTelemetry lifts the socket transport's stack counters and the
// kernel's cost counters into a telemetry registry under prefix.
func (t *Transport) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	t.set.Shard(0).RegisterTelemetry(r, prefix)
	ctr := func(read func(simclock.Counters) int64) func() int64 {
		return func() int64 { return read(t.k.Counters()) }
	}
	r.RegisterFunc(prefix+".kernel.syscall_crossings", ctr(func(c simclock.Counters) int64 { return c.SyscallCrossings }))
	r.RegisterFunc(prefix+".kernel.bytes_copied", ctr(func(c simclock.Counters) int64 { return c.BytesCopied }))
	r.RegisterFunc(prefix+".kernel.wakeups", ctr(func(c simclock.Counters) int64 { return c.Wakeups }))
	r.RegisterFunc(prefix+".kernel.wasted_wakeups", ctr(func(c simclock.Counters) int64 { return c.WastedWakeups }))
}

// AllocSGA implements core.Transport: plain heap memory; there is no
// device to register with.
func (t *Transport) AllocSGA(n int) sga.SGA {
	return sga.New(make([]byte, n))
}

// SocketUDP implements core.Transport; this libOS has no datagram path.
func (t *Transport) SocketUDP() (core.Endpoint, error) {
	return nil, core.ErrNotSupported
}

// Open implements core.Transport: file queues over the legacy kernel
// file system (page cache, journaling, syscalls, copies). Requires a
// disk attached to the kernel; see file.go.
func (t *Transport) Open(path string) (queue.IoQueue, error) {
	return t.files.Open(path, func() (queue.Log, error) { return t.openLog(path) })
}

// Socket implements core.Transport.
func (t *Transport) Socket() (core.Endpoint, error) {
	return t.set.Shard(0).Socket()
}

// Poll implements core.Transport: the sockets' transport. A file queue
// needs no poll: its Pop pumps it, and a Push pumps every queue open on
// its path.
func (t *Transport) Poll() int { return t.set.Shard(0).Poll() }

// Pumped reports how many socket endpoints the next Poll pumps: the
// endpoints with work marked for it.
func (t *Transport) Pumped() int {
	_, _, _, endpoints := t.set.Shard(0).WorkQueued()
	return endpoints
}
