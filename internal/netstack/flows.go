package netstack

import "demikernel/internal/simclock"

// Flow is the exported identity of one live TCP connection, the tuple
// the stack demultiplexes on and the device can pin with an
// exact-match steering rule. Resharding uses it to keep established
// flows landing on the queue whose shard owns the connection while new
// flows hash over the changed RSS width.
type Flow struct {
	LocalPort  uint16
	RemoteIP   IPv4Addr
	RemotePort uint16
}

// EstablishedFlows snapshots the flow tuples of every connection that
// is not fully closed — including handshakes in flight, whose SYN/ACK
// exchange must keep reaching this stack across a reshard just as much
// as an established conversation.
func (s *Stack) EstablishedFlows() []Flow {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Flow, 0, len(s.conns))
	for k, c := range s.conns {
		if c.state == stateClosed {
			continue
		}
		out = append(out, Flow{LocalPort: k.localPort, RemoteIP: k.remoteIP, RemotePort: k.remotePort})
	}
	return out
}

// SetPerPacketExtraLocked rebinds the stack's additional per-packet
// processing cost; the caller holds the stack's lock. Live libOS switching
// uses it: the same stack keeps all its connection state while the tax
// flips between the kernel path's and the bypass path's.
func (s *Stack) SetPerPacketExtraLocked(extra simclock.Lat) {
	s.cfg.PerPacketExtra = extra
}
