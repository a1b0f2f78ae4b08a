package catmint

import (
	"errors"

	"demikernel/internal/core"
	"demikernel/internal/queue"
	"demikernel/internal/rdma"
	"demikernel/internal/simclock"
)

// The paper's data path covers "reading and writing to storage devices,
// networking devices and remote memory" (§4.1). This file supplies the
// remote-memory piece over the RDMA device's one-sided verbs: an
// application exposes a Window of registered memory, hands its
// (rkey, length) to a peer over a normal queue message, and the peer
// reads and writes that memory with no receiver-side software at all —
// the defining property of one-sided RDMA.

// ErrNotCatmint is returned when a one-sided handle is requested for an
// endpoint that does not belong to this transport.
var ErrNotCatmint = errors.New("catmint: endpoint is not a catmint queue")

// Window is a region of local memory exposed for one-sided peer access.
type Window struct {
	mr  *rdma.MR
	buf []byte
}

// ExposeMemory registers n bytes and returns the window. The returned
// window's RKey travels to peers inside ordinary queue messages.
func (t *Transport) ExposeMemory(n int) *Window {
	buf := make([]byte, n)
	return &Window{mr: t.pd.RegisterMemory(buf), buf: buf}
}

// RKey returns the key a peer needs for one-sided access.
func (w *Window) RKey() uint32 { return w.mr.RKey() }

// Len returns the window length.
func (w *Window) Len() int { return len(w.buf) }

// Bytes exposes the window's memory. One-sided peer writes appear here
// with no local software involvement.
func (w *Window) Bytes() []byte { return w.buf }

// Revoke deregisters the window; subsequent peer access fails with a
// remote-access error.
func (w *Window) Revoke() { w.mr.Deregister() }

// OneSided is a handle for issuing one-sided operations over an
// established catmint connection.
type OneSided struct {
	t  *Transport
	ep *endpoint
}

// OneSided returns the one-sided handle for a connected catmint endpoint
// (as returned by the transport's Socket/Accept path through the core
// layer).
func (t *Transport) OneSided(ep core.Endpoint) (*OneSided, error) {
	ce, ok := ep.(*endpoint)
	if !ok {
		return nil, ErrNotCatmint
	}
	return &OneSided{t: t, ep: ce}, nil
}

// WriteResult reports completion of a one-sided write.
type WriteResult struct {
	Err  error
	Cost simclock.Lat
}

// Write copies data into the peer window (rkey, roff) with no peer
// software on the path. done is invoked from the transport's Poll.
func (o *OneSided) Write(data []byte, rkey uint32, roff int, done func(WriteResult)) error {
	qp, err := o.ep.usableQP()
	if err != nil {
		return err
	}
	if len(data) > SlotSize {
		return ErrMessageTooBig
	}
	sl := o.t.allocSlot()
	copy(sl.bytes(), data)
	wrID := o.t.newWRID(&pendingOp{
		kind: queue.OpPush,
		ep:   o.ep,
		slot: sl,
		onWC: func(wc rdma.WC) {
			done(WriteResult{Cost: wc.Cost, Err: wcErr("one-sided write", wc.Status)})
		},
	})
	if err := qp.PostWrite(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: len(data)}, rkey, roff); err != nil && o.t.unpost(wrID) {
		return postErr(err)
	}
	return nil
}

// ReadResult reports completion of a one-sided read.
type ReadResult struct {
	Data []byte
	Err  error
	Cost simclock.Lat
}

// Read fetches n bytes from the peer window (rkey, roff) with no peer
// software on the path.
func (o *OneSided) Read(n int, rkey uint32, roff int, done func(ReadResult)) error {
	qp, err := o.ep.usableQP()
	if err != nil {
		return err
	}
	if n > SlotSize {
		return ErrMessageTooBig
	}
	sl := o.t.allocSlot()
	wrID := o.t.newWRID(&pendingOp{
		kind: queue.OpPop,
		ep:   o.ep,
		slot: sl,
		onWC: func(wc rdma.WC) {
			r := ReadResult{Cost: wc.Cost, Err: wcErr("one-sided read", wc.Status)}
			if r.Err == nil {
				r.Data = append([]byte(nil), sl.bytes()[:wc.Len]...)
			}
			done(r)
		},
	})
	if err := qp.PostRead(wrID, rdma.Sge{MR: sl.mr, Off: sl.off, Len: n}, rkey, roff, n); err != nil && o.t.unpost(wrID) {
		return postErr(err)
	}
	return nil
}
