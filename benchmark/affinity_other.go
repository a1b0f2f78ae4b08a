//go:build !linux

package main

// cpuHopper is the Linux-only window-by-window CPU rotation (see
// affinity_linux.go); elsewhere a pass stays where the scheduler puts it.
type cpuHopper struct{}

func newCPUHopper() *cpuHopper { return nil }
func (h *cpuHopper) hop(int)   {}
func (h *cpuHopper) release()  {}
