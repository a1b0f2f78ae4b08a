package catnip

import (
	"slices"

	"demikernel/internal/core"
	"demikernel/internal/netstack"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// SocketUDP implements core.Transport: a datagram queue endpoint over
// the user-level UDP path. A datagram is already an atomic unit, so the
// SGA framing only preserves segmentation inside each datagram — there
// is no stream reassembly at all.
func (t *Transport) SocketUDP() (core.Endpoint, error) {
	ep := &udpEndpoint{t: t}
	t.mu.Lock()
	t.udps = append(t.udps, ep)
	t.mu.Unlock()
	return ep, nil
}

// udpEndpoint is one catnip datagram queue. Connect fixes the peer for
// subsequent pushes (connected-UDP semantics); Listen/Accept are not
// datagram concepts and return ErrNotListening. Its state is under the
// shard lock, as a TCP endpoint's is. Its socket holds the datagrams: a
// pump takes one for each parked pop, and a poll pumps the endpoint when
// the stack reports one landed.
type udpEndpoint struct {
	t        *Transport
	bound    core.Addr
	peer     core.Addr
	havePeer bool
	sock     *netstack.UDPSock
	// rx is the pop side. Its terminal error is the crash's, until a
	// restart rebinds the socket.
	rx queue.PopSide
}

// Bind implements core.Endpoint.
func (e *udpEndpoint) Bind(addr core.Addr) error {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	e.bound = addr
	return e.openLocked(addr.Port)
}

// openLocked binds the endpoint's socket, if it has none yet.
func (e *udpEndpoint) openLocked(port uint16) error {
	if e.sock != nil {
		return nil
	}
	u, err := e.t.Stack().OpenUDPHeld(port, e)
	if err != nil {
		return err
	}
	e.sock = u
	return nil
}

// LocalAddr implements core.Endpoint.
func (e *udpEndpoint) LocalAddr() core.Addr {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	return e.bound
}

// Listen implements core.Endpoint; datagram sockets do not listen.
func (e *udpEndpoint) Listen() error { return core.ErrNotListening }

// Accept implements core.Endpoint; datagram sockets do not accept.
func (e *udpEndpoint) Accept() (core.Endpoint, bool, error) {
	return nil, false, core.ErrNotListening
}

// Connect implements core.Endpoint: it fixes the default peer.
func (e *udpEndpoint) Connect(addr core.Addr) error {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	if err := e.openLocked(0); err != nil {
		return err
	}
	e.peer = addr
	e.havePeer = true
	return nil
}

// Connected implements core.Endpoint; connected-UDP is ready instantly.
func (e *udpEndpoint) Connected() bool {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	return e.havePeer
}

// Err implements core.Endpoint; datagram sockets are connectionless, so
// the only terminal failure they can carry is a local stack crash.
func (e *udpEndpoint) Err() error {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	return e.rx.Err()
}

// Push implements queue.IoQueue: one SGA becomes one datagram.
func (e *udpEndpoint) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	e.t.mu.Lock()
	err := e.rx.Err()
	if err == nil && (e.rx.Closed() || !e.havePeer || e.sock == nil) {
		err = queue.ErrClosed
	}
	peer, sock := e.peer, e.sock
	e.t.mu.Unlock()
	if err != nil {
		done(queue.Completion{Kind: queue.OpPush, Err: err})
		return
	}
	sock.SendTo(peer.IP, peer.Port, s.Marshal(), cost)
	done(queue.Completion{Kind: queue.OpPush, Cost: cost})
}

// Pop implements queue.IoQueue: the pop side answers it, or it parks and
// the pump reads the socket for it.
func (e *udpEndpoint) Pop(done queue.DoneFunc) {
	e.t.mu.Lock()
	if c, ok := e.rx.Pop(done); ok {
		e.t.mu.Unlock()
		done(c)
		return
	}
	e.pumpUnlock()
}

// Pump implements queue.IoQueue.
func (e *udpEndpoint) Pump() int {
	e.t.mu.Lock()
	return e.pumpUnlock()
}

// pumpUnlock is Pump entered with the shard lock held.
func (e *udpEndpoint) pumpUnlock() int {
	var popArr [2]popDone
	f, spill, n := e.pumpLocked(fired{pop: popArr[:0]}, nil)
	e.t.mu.Unlock()
	e.t.fire(f, spill)
	return n
}

// pumpLocked takes a datagram off the socket for each parked pop, under the
// shard lock, and records the pops answered in f (spilling to sp).
func (e *udpEndpoint) pumpLocked(f fired, sp *fired) (fired, *fired, int) {
	if e.sock == nil || e.rx.Parked() == 0 {
		return f, sp, 0
	}
	if k := e.rx.Parked(); !f.room(0, k) {
		f, sp = e.t.reserve(f, sp, 0, k)
	}
	n := 0
	for ; e.rx.Parked() > 0; n++ {
		d, ok := e.sock.RecvHeld()
		if !ok {
			break
		}
		c := datagramPop(d)
		w, _ := e.rx.Deliver(c) // a pop is parked: it gets c
		f.pop = append(f.pop, popDone{done: w, c: c})
	}
	return f, sp, n
}

// datagramPop is a datagram's pop completion. Zero-copy: the SGA aliases the
// pooled payload, and the consumer's SGA.Free recycles it.
func datagramPop(d netstack.Datagram) queue.Completion {
	s, _, err := sga.Unmarshal(d.Payload)
	if err != nil {
		d.Free()
		return queue.Completion{Kind: queue.OpPop, Err: err, Cost: d.Cost}
	}
	return queue.Completion{Kind: queue.OpPop, SGA: s.WithFree(d.Free), Cost: d.Cost}
}

// Close implements queue.IoQueue: parked pops fail with ErrClosed, and the
// datagrams nobody popped go back to their pool with the socket.
func (e *udpEndpoint) Close() error {
	e.t.mu.Lock()
	if e.rx.Closed() {
		e.t.mu.Unlock()
		return nil
	}
	dropped, sock := e.rx.Close(), e.sock
	if i := slices.Index(e.t.udps, e); i >= 0 {
		e.t.udps = slices.Delete(e.t.udps, i, i+1)
	}
	e.t.mu.Unlock()
	if sock != nil {
		sock.Close()
	}
	dropped.Settle()
	return nil
}
