// Package simclock provides the virtual cost model that underlies every
// experiment in this reproduction.
//
// The paper's quantitative claims are architectural: a kernel crossing
// costs on the order of hundreds of nanoseconds, copying a 4 KB page costs
// about a microsecond on a 4 GHz CPU, a Redis-style request costs about
// two microseconds of application compute. None of those costs can be
// measured faithfully inside a Go simulation of the hardware, so instead
// every simulated component *charges* an explicit, documented cost for the
// work it models. Experiments report these charged (virtual) latencies,
// which makes results deterministic and lets the comparison shapes in the
// paper be checked bit-for-bit.
//
// Costs are expressed in virtual nanoseconds. A request accumulates cost
// as it moves through components (see Lat); the final accumulated value is
// the simulated end-to-end latency of that request.
package simclock

import "fmt"

// Lat is a virtual latency in nanoseconds. It is accumulated along a
// request path: each simulated component adds the cost of the work it
// models.
type Lat int64

// Add returns l extended by d virtual nanoseconds.
func (l Lat) Add(d Lat) Lat { return l + d }

// String formats the latency in a human unit.
func (l Lat) String() string {
	switch {
	case l >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(l)/1e6)
	case l >= 1_000:
		return fmt.Sprintf("%.2fµs", float64(l)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(l))
	}
}

// CostModel holds every charged cost in the simulation. All values are in
// virtual nanoseconds (or virtual nanoseconds per byte where noted). The
// model is deliberately explicit: every experiment's outcome can be traced
// to these constants, and a different hardware generation is a different
// CostModel value, not a code change.
type CostModel struct {
	// SyscallNS is the cost of one user/kernel boundary round trip
	// (trap, register save/restore, return). Charged once per syscall
	// by the simulated legacy kernel; never charged on a kernel-bypass
	// data path.
	SyscallNS Lat

	// CopyPerByteNS is the per-byte cost of a CPU memcpy between
	// buffers. The paper calibrates this: "copying a 4k page takes 1µs
	// on a 4Ghz CPU", i.e. ~0.244 ns/byte.
	CopyPerByteNS float64

	// DMAPerByteNS is the per-byte cost of device DMA to or from host
	// memory. DMA is cheaper than a CPU copy and does not occupy the
	// CPU, but it is not free.
	DMAPerByteNS float64

	// WireDelayNS is the one-way propagation plus switching delay of
	// the datacenter network between two servers.
	WireDelayNS Lat

	// NICProcessNS is the per-packet processing cost inside the NIC
	// hardware (parse, DMA setup, descriptor update).
	NICProcessNS Lat

	// KernelNetStackNS is the per-packet cost of the in-kernel network
	// stack (skb handling, netfilter, socket demux). Charged by the
	// legacy kernel path only.
	KernelNetStackNS Lat

	// UserNetStackNS is the per-packet cost of a lean user-level stack
	// doing the same protocol work without the kernel's generality.
	UserNetStackNS Lat

	// PosixEmulationNS is the extra per-operation cost of preserving
	// POSIX semantics in a user-level stack (mTCP/F-stack style:
	// descriptor table emulation, event batching, stream buffering).
	// Section 6 observes such stacks can be slower than the kernel.
	PosixEmulationNS Lat

	// NVMeReadNS / NVMeWriteNS are the device-side latencies of one
	// NVMe read/write command, excluding DMA per-byte cost.
	NVMeReadNS  Lat
	NVMeWriteNS Lat

	// PageCacheNS is the kernel page-cache lookup/insert cost charged
	// per file I/O on the legacy path.
	PageCacheNS Lat

	// RDMAOpNS is the NIC-side cost of one RDMA verb (send, recv
	// completion, or one-sided op), excluding wire and DMA costs.
	RDMAOpNS Lat

	// RegistrationNS is the control-path cost of registering one memory
	// region with a device (pinning, IOMMU programming). Expensive;
	// the libOS amortises it over whole regions (§4.5).
	RegistrationNS Lat

	// WakeupNS is the cost of waking a blocked thread (scheduler,
	// context switch). Charged per thread actually woken, which is how
	// epoll's thundering herd becomes visible (§4.4).
	WakeupNS Lat

	// AppRequestNS is the application compute per request for the
	// Redis-style workload: "Redis spends about 2µs on each read
	// request".
	AppRequestNS Lat

	// FilterNS / MapNS are the per-element CPU costs of running a queue
	// filter or map function on the host; devices run them at
	// OffloadFactor of the cost (§4.2).
	FilterNS Lat
	MapNS    Lat

	// OffloadFactor scales FilterNS/MapNS when the function runs on the
	// device instead of the CPU. The device computes more slowly per
	// element near memory (§3.3) but the host CPU spends nothing.
	OffloadFactor float64
}

// Datacenter2019 returns the cost model calibrated to the paper's own
// numbers and to contemporary (2019) datacenter hardware measurements.
func Datacenter2019() CostModel {
	return CostModel{
		SyscallNS:        500,   // getpid-class crossing w/ KPTI era mitigations
		CopyPerByteNS:    0.244, // 1 µs per 4 KB page (paper, §3.2)
		DMAPerByteNS:     0.05,  // ~20 GB/s effective DMA engine
		WireDelayNS:      1000,  // one-way ToR switch hop
		NICProcessNS:     300,   // per-packet NIC pipeline
		KernelNetStackNS: 2400,  // per-packet kernel TCP/IP work
		UserNetStackNS:   600,   // lean user-level stack per packet
		PosixEmulationNS: 2600,  // mTCP-style POSIX preservation tax
		NVMeReadNS:       8000,  // enterprise NVMe read
		NVMeWriteNS:      12000, // enterprise NVMe write (post-buffer)
		PageCacheNS:      400,   // page-cache hit management
		RDMAOpNS:         900,   // verb issue + completion
		RegistrationNS:   40000, // pin + IOMMU program per region
		WakeupNS:         1500,  // futex wake + context switch
		AppRequestNS:     2000,  // Redis request compute (paper, §3.2)
		FilterNS:         80,    // per-element predicate on CPU
		MapNS:            150,   // per-element transform on CPU
		OffloadFactor:    1.6,   // device computes ~1.6x slower/element
	}
}

// CopyCost returns the virtual cost of copying n bytes with the CPU.
func (m *CostModel) CopyCost(n int) Lat { return Lat(float64(n) * m.CopyPerByteNS) }

// DMACost returns the virtual cost of moving n bytes by device DMA.
func (m *CostModel) DMACost(n int) Lat { return Lat(float64(n) * m.DMAPerByteNS) }

// OffloadedFilterCost returns the per-element cost of a filter run on the
// device rather than the host CPU.
func (m *CostModel) OffloadedFilterCost() Lat {
	return Lat(float64(m.FilterNS) * m.OffloadFactor)
}

// Counters tracks observable data-path events so tests and experiments can
// verify architectural properties (e.g. "the bypass path performs zero
// kernel crossings", "the zero-copy path copies zero payload bytes").
// All methods are safe for concurrent use only when each counter instance
// is confined to one goroutine or externally synchronised; the simulation
// components that share a Counters value guard it with their own locks.
type Counters struct {
	SyscallCrossings int64 // user/kernel boundary round trips
	BytesCopied      int64 // payload bytes moved by CPU memcpy
	Wakeups          int64 // threads woken
	WastedWakeups    int64 // threads woken with no work available
}

// AddSyscall records one syscall crossing.
func (c *Counters) AddSyscall() { c.SyscallCrossings++ }

// AddCopy records a CPU copy of n payload bytes.
func (c *Counters) AddCopy(n int) { c.BytesCopied += int64(n) }

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }
