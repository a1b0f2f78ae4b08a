package main

import (
	"math/bits"
	"runtime"
	"syscall"
	"unsafe"
)

// The host gives each vCPU a fast state and slower ones of its own (a
// 512 KiB pointer chase reads 6.5 ns a step on one and 20 on the other for
// seconds on end, then the other way round: neighbours on the sibling
// hyperthread, by the look of it). A thread the kernel leaves on one vCPU
// sees that vCPU's spells only, and they outlast a run. So a timed pass
// moves its one thread to the next allowed CPU at every window boundary:
// each window is measured on one CPU, a run samples all of them, and the
// fast windows are found on whichever is fast.

type cpuMask [16]uint64 // 1024 CPUs

// setAffinity restricts the calling thread (pid 0) to m. A refusal is
// ignored: the thread then stays where it is, as it does on a platform
// without the call.
func setAffinity(m *cpuMask) {
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
}

// cpuHopper moves the calling thread between the CPUs it was allowed at
// the start.
type cpuHopper struct {
	all  cpuMask
	cpus []int
}

// newCPUHopper wires the calling goroutine to its thread and reads the
// thread's allowed CPUs. It returns nil when there is nothing to hop
// between.
func newCPUHopper() *cpuHopper {
	runtime.LockOSThread()
	h := &cpuHopper{}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(h.all), uintptr(unsafe.Pointer(&h.all))); e != 0 {
		return nil
	}
	for w, word := range h.all {
		for ; word != 0; word &= word - 1 {
			h.cpus = append(h.cpus, w*64+bits.TrailingZeros64(word))
		}
	}
	if len(h.cpus) < 2 {
		return nil
	}
	return h
}

// hop pins the thread to the n-th allowed CPU, counting round and round.
func (h *cpuHopper) hop(n int) {
	cpu := h.cpus[n%len(h.cpus)]
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	setAffinity(&m)
}

// release gives the thread back every CPU it was allowed.
func (h *cpuHopper) release() { setAffinity(&h.all) }
