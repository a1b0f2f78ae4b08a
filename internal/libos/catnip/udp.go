package catnip

import (
	"sync"

	"demikernel/internal/core"
	"demikernel/internal/fifo"
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
	t.udps = append(t.udps[:len(t.udps):len(t.udps)], ep) // copy: Poll may hold the old slice
	t.mu.Unlock()
	return ep, nil
}

// udpEndpoint is one catnip datagram queue. Connect fixes the peer for
// subsequent pushes (connected-UDP semantics); Listen/Accept are not
// datagram concepts and return ErrNotListening.
type udpEndpoint struct {
	t *Transport

	mu       sync.Mutex
	bound    core.Addr
	peer     core.Addr
	havePeer bool
	sock     *netstack.UDPSock
	ready    fifo.Queue[queue.Completion]
	waiters  fifo.Queue[queue.DoneFunc]
	closed   bool
	// dead, when non-nil, is the lifecycle-typed error stamped by a
	// stack crash; cleared when Restart rebinds the socket on the fresh
	// stack.
	dead error
}

// Bind implements core.Endpoint.
func (e *udpEndpoint) Bind(addr core.Addr) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bound = addr
	return e.ensureSockLocked(addr.Port)
}

func (e *udpEndpoint) ensureSockLocked(port uint16) error {
	if e.sock != nil {
		return nil
	}
	u, err := e.t.Stack().OpenUDP(port)
	if err != nil {
		return err
	}
	e.sock = u
	return nil
}

// LocalAddr implements core.Endpoint.
func (e *udpEndpoint) LocalAddr() core.Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
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
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureSockLocked(0); err != nil {
		return err
	}
	e.peer = addr
	e.havePeer = true
	return nil
}

// Connected implements core.Endpoint; connected-UDP is ready instantly.
func (e *udpEndpoint) Connected() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.havePeer
}

// Err implements core.Endpoint; datagram sockets are connectionless, so
// the only terminal failure they can carry is a local stack crash.
func (e *udpEndpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dead
}

// Push implements queue.IoQueue: one SGA becomes one datagram.
func (e *udpEndpoint) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	e.mu.Lock()
	if e.dead != nil {
		dead := e.dead
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPush, Err: dead})
		return
	}
	if e.closed || !e.havePeer || e.sock == nil {
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPush, Err: queue.ErrClosed})
		return
	}
	peer := e.peer
	sock := e.sock
	e.mu.Unlock()
	sock.SendTo(peer.IP, peer.Port, s.Marshal(), cost)
	done(queue.Completion{Kind: queue.OpPush, Cost: cost})
}

// Pop implements queue.IoQueue.
func (e *udpEndpoint) Pop(done queue.DoneFunc) {
	e.mu.Lock()
	if e.dead != nil {
		dead := e.dead
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: dead})
		return
	}
	if e.closed {
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
		return
	}
	if e.ready.Len() > 0 {
		c := e.ready.Pop()
		e.mu.Unlock()
		done(c)
		return
	}
	e.waiters.Push(done)
	e.mu.Unlock()
	e.Pump()
}

// Pump implements queue.IoQueue: drain received datagrams into whole
// SGAs.
func (e *udpEndpoint) Pump() int {
	e.mu.Lock()
	sock := e.sock
	closed := e.closed
	e.mu.Unlock()
	if sock == nil || closed {
		return 0
	}
	n := 0
	for {
		d, ok := sock.Recv()
		if !ok {
			break
		}
		// Zero-copy pop: the SGA aliases the datagram's pooled payload;
		// the consumer's SGA.Free recycles it (Unmarshal aliases its
		// input, so no byte is copied between wire and application).
		s, _, err := sga.Unmarshal(d.Payload)
		comp := queue.Completion{Kind: queue.OpPop, Cost: d.Cost}
		if err != nil {
			d.Free()
			comp.Err = err
		} else {
			comp.SGA = s.WithFree(d.Free)
		}
		e.mu.Lock()
		e.ready.Push(comp)
		e.mu.Unlock()
		n++
	}
	e.serveWaiters()
	return n
}

func (e *udpEndpoint) serveWaiters() {
	for {
		e.mu.Lock()
		if e.waiters.Len() == 0 || e.ready.Len() == 0 {
			e.mu.Unlock()
			return
		}
		w, c := e.waiters.Pop(), e.ready.Pop()
		e.mu.Unlock()
		w(c)
	}
}

// Close implements queue.IoQueue.
func (e *udpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	ws := e.waiters.Take()
	sock := e.sock
	e.mu.Unlock()
	if sock != nil {
		sock.Close()
	}
	for _, w := range ws {
		w(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
	}
	e.t.dropUDP(e)
	return nil
}

// dropUDP takes a closed datagram endpoint out of udps, into a fresh
// slice like every change to it.
func (t *Transport) dropUDP(ep *udpEndpoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := make([]*udpEndpoint, 0, len(t.udps))
	for _, u := range t.udps {
		if u != ep {
			kept = append(kept, u)
		}
	}
	t.udps = kept
}
