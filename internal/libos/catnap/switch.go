// Live libOS switching, catnap side: endpoints export to / adopt from
// the transport-neutral core.PortState. The kernel keeps owning the
// netstack either way — promotion detaches the protocol objects from
// their file descriptors without closing them, demotion wraps live
// objects in fresh descriptors. Control-plane only: no syscall or copy
// costs are charged for the handoff itself.
package catnap

import "demikernel/internal/core"

// Export implements core.PortExporter. The old endpoint is left
// closed-in-place without closing the connection; stale concurrent
// operations fail with queue.ErrClosed (retriable by failover).
func (t *Transport) Export(cep core.Endpoint) (core.PortState, bool) {
	e, ok := cep.(*endpoint)
	if !ok || e.t != t {
		return core.PortState{}, false
	}
	e.mu.Lock()
	st := core.PortState{
		Bound:     e.bound,
		Listening: e.listening,
		Framer:    e.framer.Export(),
		Ready:     e.ready,
		Waiters:   e.waiters,
	}
	if e.fd >= 0 {
		if c, err := t.k.DetachConn(e.fd); err == nil {
			st.Conn = c
		}
	}
	if e.listening {
		if l, err := t.k.DetachListener(e.listenFD); err == nil {
			st.Listener = l
		}
	}
	for i := range e.txq {
		f := &e.txq[i]
		rest := append([]byte(nil), f.data[f.sent:]...)
		st.Tx = append(st.Tx, core.PortTx{Data: rest, Cost: f.cost, Done: f.done})
	}
	e.txq = nil
	e.ready = nil
	e.waiters = nil
	e.fd = -1
	e.listenFD = 0
	e.listening = false
	e.closed = true
	e.mu.Unlock()
	return st, true
}

// Adopt implements core.PortAdopter: it wraps the exported protocol
// objects in fresh kernel descriptors and rebuilds the endpoint's soft
// state around them.
func (t *Transport) Adopt(st core.PortState) (core.Endpoint, error) {
	e := &endpoint{
		t:       t,
		fd:      -1,
		bound:   st.Bound,
		framer:  st.Framer,
		ready:   st.Ready,
		waiters: st.Waiters,
	}
	if st.Conn != nil {
		e.fd = t.k.AdoptConn(st.Conn)
	}
	if st.Listener != nil {
		e.listenFD = t.k.AdoptListener(st.Listener)
		e.listening = true
	}
	for _, f := range st.Tx {
		e.txq = append(e.txq, txFrame{data: f.Data, cost: f.Cost, done: f.Done})
	}
	t.adopt(e)
	return e, nil
}
