// Live libOS switching, catnip side: the kernel path and the bypass path
// differ only in prices, so a switch between them is a change of prices
// on a running transport. Its endpoints, connections, listeners and timers
// stay where they are.
package catnip

import (
	"demikernel/internal/kernel"
	"demikernel/internal/simclock"
)

// SetKernel puts the transport on the kernel path (k non-nil) or the
// bypass path (nil), under the shard lock: from the next pump on, every
// send and recv of its endpoints charges k a syscall and a copy, and every
// packet of its stack pays the kernel's per-packet tax on top of the one
// it was configured with (Config.PerPacketExtra).
func (t *Transport) SetKernel(k *kernel.Kernel) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.kern = k
	t.Stack().SetPerPacketExtraLocked(t.perPacketExtraLocked())
}

// perPacketExtraLocked is the per-packet tax of the transport's stack.
func (t *Transport) perPacketExtraLocked() simclock.Lat {
	if t.kern == nil {
		return t.cfg.PerPacketExtra
	}
	return t.cfg.PerPacketExtra + kernel.KernelPerPacketExtra(t.model)
}

// HasUDP reports whether any UDP endpoint is open. The kernel path has no
// datagram surface, so SwitchKind refuses to demote while one exists.
func (t *Transport) HasUDP() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.udps) > 0
}
