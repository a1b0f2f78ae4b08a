// Live libOS switching: the syscall layer's half of SwitchKind.
//
// A switch moves every socket queue descriptor from one transport to
// another without the application noticing: QDs keep their numbers,
// established TCP connections keep their protocol objects (both
// transports run the same netstack code over the same device — the
// paper's deliberate symmetry between Figure 1's two columns), and the
// per-endpoint soft state (the frame being decoded, undelivered
// completions, parked poppers, queued TX frames) travels in a PortState. The
// LibrettOS idea in Demikernel terms: the OS *configuration* changes
// at run time while the application's queues stay up.
package core

import (
	"demikernel/internal/netstack"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// PortTx is one staged TX frame carried across a transport switch:
// already-framed bytes plus the accumulated virtual cost and the push
// completion to run once the adopting transport sends it. Sent marks
// frames the old transport already handed to the stack and is carried
// for completeness (its Done has then already run).
type PortTx struct {
	Data []byte
	Cost simclock.Lat
	Done queue.DoneFunc
	Sent bool
}

// PortState is the transportable state of one socket endpoint: the
// protocol objects (owned by the shared netstack, so migration is a
// pointer handoff) and the libOS-side soft state around them.
type PortState struct {
	Bound     Addr
	LocalPort uint16 // client-side fixed source port (0 = ephemeral)
	Listening bool

	Conn     *netstack.TCPConn
	Listener *netstack.TCPListener

	Framer  sga.Framer         // from Framer.Export: a frame half decoded travels re-encoded; adopter sets its allocator
	Ready   []queue.Completion // decoded-but-undelivered pops
	Waiters []queue.DoneFunc   // parked poppers, FIFO order
	Tx      []PortTx           // staged, unsent TX frames
}

// PortExporter is implemented by transports whose endpoints can be
// exported for a live switch. Export detaches ep's state (marking the
// old endpoint closed so stale concurrent operations fail with
// queue.ErrClosed, a retriable error) and returns it; ok is false for
// endpoints the transport cannot export (e.g. UDP).
type PortExporter interface {
	Export(ep Endpoint) (PortState, bool)
}

// PortAdopter is implemented by transports that can rebuild a live
// endpoint from an exported PortState.
type PortAdopter interface {
	Adopt(st PortState) (Endpoint, error)
}

// SwapTransport atomically replaces the libOS's transport and migrates
// every socket descriptor through migrate, which maps an old endpoint
// to its replacement on the new transport (nil = leave the descriptor
// in place, e.g. for non-socket queues it is never called on). QD
// numbers are preserved; each migrated descriptor gets a *fresh* qdesc
// so concurrent operations holding the old one keep touching the old
// (now closed) endpoint instead of racing a mutation. Returns the
// number of descriptors migrated.
func (l *LibOS) SwapTransport(newT Transport, migrate func(Endpoint) Endpoint) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tp.Store(&transportCell{t: newT})
	l.spans.SetName(newT.Name())
	n := 0
	qds := *l.qds.Load()
	for qd := QD(1); qd < l.next; qd++ {
		d := qds[qd].Load()
		if d == nil || d.kind != qdEndpoint {
			continue
		}
		if nep := migrate(d.ep); nep != nil {
			qds[qd].Store(&qdesc{kind: qdEndpoint, ep: nep})
			n++
		}
	}
	return n
}
