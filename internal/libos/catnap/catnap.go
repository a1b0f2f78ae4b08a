// Package catnap is the kernel library OS: it implements the Demikernel
// queue abstraction over ordinary (simulated) kernel sockets. It exists
// for portability and development, just like the open-source Demikernel's
// catnap: the same application binary that runs over catnip (DPDK) or
// catmint (RDMA) runs here — paying the legacy costs of Figure 1's left
// side: a syscall crossing and a payload copy per I/O, and the in-kernel
// network stack per packet.
package catnap

import (
	"errors"
	"io"
	"sync"

	"demikernel/internal/core"
	"demikernel/internal/kernel"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// Transport is the catnap libOS transport.
type Transport struct {
	model *simclock.CostModel
	k     *kernel.Kernel

	// eps and fqs are what Poll pumps, from slice headers snapshotted
	// under mu and walked outside it. An open appends, which writes past
	// what any snapshot covers; a close builds a new slice without its
	// entry and never writes the old one.
	mu  sync.Mutex
	eps []*endpoint
	fqs []*fileQueue
}

// New wraps an existing simulated kernel. The kernel carries the NIC and
// in-kernel stack; see kernel.New.
func New(model *simclock.CostModel, k *kernel.Kernel) *Transport {
	return &Transport{model: model, k: k}
}

// Name implements core.Transport.
func (t *Transport) Name() string { return "catnap" }

// Features implements core.Transport: no kernel bypass at all — the
// kernel supplies everything, at kernel prices.
func (t *Transport) Features() core.Features {
	return core.Features{
		KernelBypass:     false,
		SoftwareSupplied: []string{"sga framing"},
	}
}

// Kernel exposes the underlying kernel (for counters in experiments).
func (t *Transport) Kernel() *kernel.Kernel { return t.k }

// RegisterTelemetry lifts the kernel's simclock counters and the
// in-kernel stack's counters into a telemetry registry under prefix.
func (t *Transport) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	t.k.Stack().RegisterTelemetry(r, prefix+".netstack")
	ctr := func(read func(simclock.Counters) int64) func() int64 {
		return func() int64 { return read(t.k.Counters()) }
	}
	r.RegisterFunc(prefix+".kernel.syscall_crossings", ctr(func(c simclock.Counters) int64 { return c.SyscallCrossings }))
	r.RegisterFunc(prefix+".kernel.bytes_copied", ctr(func(c simclock.Counters) int64 { return c.BytesCopied }))
	r.RegisterFunc(prefix+".kernel.packets", ctr(func(c simclock.Counters) int64 { return c.Packets }))
	r.RegisterFunc(prefix+".kernel.wakeups", ctr(func(c simclock.Counters) int64 { return c.Wakeups }))
	r.RegisterFunc(prefix+".kernel.wasted_wakeups", ctr(func(c simclock.Counters) int64 { return c.WastedWakeups }))
}

// AllocSGA implements core.Transport: plain heap memory; there is no
// device to register with.
func (t *Transport) AllocSGA(n int) sga.SGA {
	return sga.New(make([]byte, n))
}

// SocketUDP implements core.Transport; this libOS has no datagram path.
func (t *Transport) SocketUDP() (core.Endpoint, error) {
	return nil, core.ErrNotSupported
}

// Open implements core.Transport: file queues over the legacy kernel
// file system (page cache, journaling, syscalls, copies). Requires a
// disk attached to the kernel; see file.go.
func (t *Transport) Open(path string) (queue.IoQueue, error) {
	return t.OpenFileQueue(path)
}

// Socket implements core.Transport.
func (t *Transport) Socket() (core.Endpoint, error) {
	ep := &endpoint{t: t, fd: -1}
	t.adopt(ep)
	return ep, nil
}

// Poll implements core.Transport.
func (t *Transport) Poll() int {
	n := t.k.Poll()
	// Snapshot the slice headers only: no change to either table writes
	// where a snapshot reads, so the tick allocates nothing.
	t.mu.Lock()
	eps, fqs := t.eps, t.fqs
	t.mu.Unlock()
	for _, ep := range eps {
		n += ep.Pump()
	}
	for _, fq := range fqs {
		n += fq.Pump()
	}
	return n
}

// Pumped reports how many socket endpoints and file queues a Poll pumps:
// the open ones, a closed one having left its table.
func (t *Transport) Pumped() (endpoints, files int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.eps), len(t.fqs)
}

func (t *Transport) adopt(ep *endpoint) {
	t.mu.Lock()
	t.eps = append(t.eps, ep)
	t.mu.Unlock()
}

// without returns a copy of list that lacks x.
func without[T comparable](list []T, x T) []T {
	kept := make([]T, 0, len(list))
	for _, v := range list {
		if v != x {
			kept = append(kept, v)
		}
	}
	return kept
}

// endpoint is one catnap socket queue over a kernel TCP socket.
type endpoint struct {
	t *Transport

	mu        sync.Mutex
	bound     core.Addr
	fd        kernel.FD // connection fd, -1 until connected/accepted
	listenFD  kernel.FD
	listening bool
	framer    sga.Framer
	ready     []queue.Completion
	waiters   []queue.DoneFunc
	txq       []txFrame
	closed    bool
}

type txFrame struct {
	data []byte
	cost simclock.Lat
	done queue.DoneFunc
	sent int
}

// Bind implements core.Endpoint.
func (e *endpoint) Bind(addr core.Addr) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bound = addr
	return nil
}

// LocalAddr implements core.Endpoint.
func (e *endpoint) LocalAddr() core.Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bound
}

// Listen implements core.Endpoint.
func (e *endpoint) Listen() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	fd, _, err := e.t.k.Listen(e.bound.Port)
	if err != nil {
		return err
	}
	e.listenFD = fd
	e.listening = true
	return nil
}

// Accept implements core.Endpoint.
func (e *endpoint) Accept() (core.Endpoint, bool, error) {
	e.mu.Lock()
	if !e.listening {
		e.mu.Unlock()
		return nil, false, core.ErrNotListening
	}
	lfd := e.listenFD
	e.mu.Unlock()
	fd, _, err := e.t.k.Accept(lfd)
	if errors.Is(err, kernel.ErrWouldBlock) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	child := &endpoint{t: e.t, fd: fd}
	e.t.adopt(child)
	return child, true, nil
}

// Connect implements core.Endpoint.
func (e *endpoint) Connect(addr core.Addr) error {
	fd, _, err := e.t.k.Connect(addr.IP, addr.Port)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.fd = fd
	e.mu.Unlock()
	return nil
}

// Connected implements core.Endpoint.
func (e *endpoint) Connected() bool {
	e.mu.Lock()
	fd := e.fd
	e.mu.Unlock()
	return fd >= 0 && e.t.k.Connected(fd)
}

// Err implements core.Endpoint. The in-kernel stack owns failure
// detection for catnap sockets and reports errors through syscall
// results, so the endpoint itself never carries a terminal error.
func (e *endpoint) Err() error { return nil }

// Push implements queue.IoQueue. Unlike catnip, every pushed byte pays
// the syscall and user→kernel copy inside kernel.Send.
func (e *endpoint) Push(s sga.SGA, cost simclock.Lat, done queue.DoneFunc) {
	e.mu.Lock()
	if e.closed || e.fd < 0 {
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPush, Err: queue.ErrClosed})
		return
	}
	e.txq = append(e.txq, txFrame{data: s.Marshal(), cost: cost, done: done})
	e.pumpUnlock()
}

// Pop implements queue.IoQueue.
func (e *endpoint) Pop(done queue.DoneFunc) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		done(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
		return
	}
	if len(e.ready) > 0 && len(e.waiters) == 0 {
		c := e.ready[0]
		e.ready = e.ready[1:]
		e.mu.Unlock()
		done(c)
		return
	}
	e.waiters = append(e.waiters, done)
	e.pumpUnlock()
}

// Pump implements queue.IoQueue.
func (e *endpoint) Pump() int {
	e.mu.Lock()
	return e.pumpUnlock()
}

// fired is a completion recorded under e.mu and delivered after it is
// released, so that a DoneFunc may come back into the endpoint.
type fired struct {
	done queue.DoneFunc
	c    queue.Completion
}

// pumpUnlock is the one body of Push, Pop and Pump. Entered with e.mu
// held, it flushes the send queue, drains the socket through the framer
// and matches waiters to completions, all under that one hold: two
// pollers (a background one and a waiting application) can then neither
// feed the framer out of order nor serve a later waiter ahead of an
// earlier one. Waiters fail at the end of the stream only once every
// decoded element has been handed out, so the final message is delivered
// ahead of the EOF behind it. It releases e.mu and only then fires what
// completed, and returns bytes sent plus SGAs decoded.
func (e *endpoint) pumpUnlock() int {
	fd := e.fd
	if fd < 0 || e.closed {
		e.mu.Unlock()
		return 0
	}
	var arr [4]fired
	out := arr[:0]
	n := 0
	for len(e.txq) > 0 {
		f := &e.txq[0]
		sent, cost, err := e.t.k.Send(fd, f.data[f.sent:], f.cost)
		c := queue.Completion{Kind: queue.OpPush, Err: err}
		if err == nil {
			f.sent += sent
			f.cost = cost
			n += sent
			if f.sent < len(f.data) {
				break
			}
			c.Cost = cost
		}
		out = append(out, fired{f.done, c})
		e.txq = e.txq[1:]
	}
	// failErr is what fails the waiters no completion is left for: the end
	// of the stream, or bytes that are no frame (the framer stays poisoned).
	var failErr error
	for failErr = e.framer.Err(); failErr == nil; {
		b, cost, err := e.t.k.Recv(fd, 0)
		if errors.Is(err, io.EOF) {
			failErr = queue.ErrClosed
			break
		}
		if err != nil || len(b) == 0 {
			break
		}
		for len(b) > 0 && failErr == nil {
			k, s, ok, ferr := e.framer.Write(b, len(b))
			if failErr = ferr; ok {
				e.ready = append(e.ready, queue.Completion{Kind: queue.OpPop, SGA: s, Cost: cost})
				n++
			}
			b = b[k:]
		}
	}
	for len(e.waiters) > 0 && len(e.ready) > 0 {
		out = append(out, fired{e.waiters[0], e.ready[0]})
		e.waiters, e.ready = e.waiters[1:], e.ready[1:]
	}
	if failErr != nil && len(e.ready) == 0 {
		for _, w := range e.waiters {
			out = append(out, fired{w, queue.Completion{Kind: queue.OpPop, Err: failErr}})
		}
		e.waiters = nil
	}
	e.mu.Unlock()
	for _, f := range out {
		f.done(f.c)
	}
	return n
}

// Close implements queue.IoQueue.
func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	fd, lfd, listening := e.fd, e.listenFD, e.listening
	ws := e.waiters
	e.waiters = nil
	e.mu.Unlock()
	if fd >= 0 {
		e.t.k.Close(fd)
	}
	if listening {
		e.t.k.Close(lfd)
	}
	for _, w := range ws {
		w(queue.Completion{Kind: queue.OpPop, Err: queue.ErrClosed})
	}
	e.t.mu.Lock()
	e.t.eps = without(e.t.eps, e)
	e.t.mu.Unlock()
	return nil
}
