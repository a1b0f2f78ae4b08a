// Live libOS switching, catnip side: a transport can be constructed
// over an already-running netstack (promotion from the kernel path
// adopts the kernel's stack object wholesale — same TCP state, same
// device, only the per-packet cost profile changes), and endpoints can
// be exported to / adopted from the transport-neutral core.PortState.
package catnip

import (
	"demikernel/internal/core"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
)

// NewOnStack builds a catnip set of one that drives an existing stack on
// an existing device instead of constructing fresh ones. The stack keeps
// every established connection, listener, and timer it had; the caller is
// responsible for flipping its per-packet cost profile
// (netstack.SetPerPacketExtra) to match the bypass path. From there on the
// set crashes, restarts and registers like one spawned as catnip.
func NewOnStack(model *simclock.CostModel, dev *nic.Device, cfg Config, stack *netstack.Stack) *ShardSet {
	s := newSet(model, dev, nil, cfg, 1, 1)
	// In place of the fresh stack newSet built: the stack, and its lock
	// with it, which is the shard lock from now on and every restarted
	// stack's.
	t := s.shards[0]
	t.mu = stack.Mutex()
	t.stackp.Store(stack)
	return s
}

// HasUDP reports whether any UDP endpoint is open. UDP state cannot
// move across a libOS switch (the kernel side has no UDP surface), so
// SwitchKind refuses while one exists.
func (t *Transport) HasUDP() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.udps) > 0
}

// Export implements core.PortExporter: it detaches the endpoint's
// protocol objects and soft state for adoption by another transport.
// The old endpoint is left closed-in-place WITHOUT closing the
// connection — stale concurrent operations fail with queue.ErrClosed
// (retriable by failover) instead of racing the adopter.
func (t *Transport) Export(cep core.Endpoint) (core.PortState, bool) {
	e, ok := cep.(*endpoint)
	if !ok || e.t != t {
		return core.PortState{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := e.listener.Load()
	st := core.PortState{
		Bound:     e.bound,
		LocalPort: e.localPort,
		Listening: l != nil,
		Conn:      e.conn,
		Listener:  l,
		// A frame half decoded travels as the stream bytes it came from:
		// its buffer is this transport's pool's, and stays here.
		Framer:  e.framer.Export(),
		Ready:   e.ready.Take(),
		Waiters: e.waiters.Take(),
	}
	// Queued pushes move as heap copies of their unsent bytes, so that
	// what they hold of this libOS's registered memory is let go now.
	for _, f := range e.txq.Take() {
		st.Tx = append(st.Tx, core.PortTx{Data: f.rest(), Cost: f.cost, Done: f.done})
		f.release()
	}
	if st.Conn != nil {
		st.Conn.Held().SetOwner(nil)
	}
	e.conn = nil
	e.listener.Store(nil)
	e.closed = true
	t.dropLocked(e)
	return st, true
}

// Adopt implements core.PortAdopter: it rebuilds a live endpoint from
// an exported PortState on this transport.
func (t *Transport) Adopt(st core.PortState) (core.Endpoint, error) {
	e := &endpoint{
		t:         t,
		bound:     st.Bound,
		localPort: st.LocalPort,
		conn:      st.Conn,
		framer:    st.Framer,
	}
	e.listener.Store(st.Listener)
	e.framer.SetAlloc(t.pool.FrameAlloc)
	for _, f := range st.Tx {
		// The bytes were framed by the exporter; they go out as they are.
		e.txq.Push(txFrame{raw: f.Data, cost: f.Cost, done: f.Done})
	}
	for _, c := range st.Ready {
		e.ready.Push(c)
	}
	for _, w := range st.Waiters {
		e.waiters.Push(w)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.adoptLocked(e)
	if st.Conn != nil {
		st.Conn.Held().SetOwner(e)
	}
	// Whatever came along — staged frames, parked poppers, bytes the old
	// transport left in the connection — is work for the first poll.
	t.markLocked(e)
	return e, nil
}
