// Node lifecycle for the catnip libOS: Crash drops the stack the way a
// process death does — instantly, rudely, with no FIN and no goodbye —
// and Restart reconstitutes it on the same device, MAC, and IP.
//
// This is the paper's §3 warning reproduced as a mechanism: with
// kernel bypass, the TCP state machine, the pinned buffers, and the
// pending qtokens all live in the dying process. The kernel keeps
// nothing, so the *simulation* must model what is lost (connections,
// in-flight operations) and what must be reclaimed (pooled frames,
// device rings) — and LibrettOS-style recovery means the application's
// listening queues re-bind to the reborn stack without the application
// re-running its setup.
package catnip

import (
	"errors"

	"demikernel/internal/queue"
	"demikernel/internal/telemetry"
)

// ErrNotCrashed is returned by Restart when the transport is running.
var ErrNotCrashed = errors.New("catnip: restart of a running stack")

// Crash tears the transport down as a process crash would: the netstack
// is shut down in place (connections terminal, OOO pooled buffers
// released, listeners unbound, queued datagrams recycled), every
// endpoint's pending qtokens complete immediately with the typed
// crash error (errors.Is(err, core.ErrLocalReset)), un-popped pooled
// pop payloads are released back to their pool, and the poll path is
// gated off behind the crashed flag. Nothing is transmitted — peers
// discover the death through their own retransmission budgets. The NIC
// receive ring is flushed too — frames the dead stack never ingested go
// back to their pools, counted in nic RxFlushed; this is the device-side
// resource reclamation of Beadle et al.'s safe sharing, performed here by
// the simulated device model on behalf of the dead client.
//
// Crash returns the number of qtokens it aborted plus frames flushed. It is
// idempotent; repeated calls return 0.
func (t *Transport) Crash() int {
	if !t.crashed.CompareAndSwap(false, true) {
		return 0
	}
	telemetry.TraceInstant("lifecycle", "crash", int32(t.rxQueue), 0)
	t.Stack().Shutdown(errCrashed)
	t.mu.Lock()
	t.crashes++
	eps := append([]*endpoint(nil), t.eps...)
	// A datagram endpoint dies under this hold: its socket went with the
	// stack, and its parked pops fail once the lock is free.
	dropped := make([]queue.Dropped, len(t.udps))
	for i, u := range t.udps {
		u.sock, dropped[i] = nil, u.rx.Crash(errCrashed)
	}
	// The flush reads the ring, so it runs as the ring's poller does: under
	// the shard lock.
	var n int
	if t.group != nil {
		n = t.group.FlushRxQueue(t.rxQueue)
	} else {
		n = t.dev.FlushRxQueue(t.rxQueue)
	}
	t.mu.Unlock()
	for _, ep := range eps {
		n += ep.kill(errCrashed)
	}
	for _, d := range dropped {
		n += d.Settle()
	}
	return n
}

// Crashed reports whether the transport is currently down.
func (t *Transport) Crashed() bool { return t.crashed.Load() }

// Restart brings a crashed transport back on the same device, MAC, and
// IP: the dead incarnation's counters are folded into the cumulative
// base, a fresh netstack is swapped in, listener endpoints are re-armed
// on it (the application's existing listening QDs keep working — the
// LibrettOS dynamic re-binding recovery), bound UDP sockets are
// rebound, and a gratuitous ARP announces the reborn node. Established
// data endpoints stay dead with their typed error, exactly like stale
// file descriptors after exec: the peer must redial.
func (t *Transport) Restart() error {
	if !t.crashed.Load() {
		return ErrNotCrashed
	}
	dead := t.Stack().Stats()
	t.mu.Lock()
	fresh := t.buildStack()
	t.prevStats = t.prevStats.Add(dead)
	t.restarts++
	t.stackp.Store(fresh)
	eps := append([]*endpoint(nil), t.eps...)
	for _, ep := range t.udps {
		ep.reviveLocked()
	}
	t.mu.Unlock()
	for _, ep := range eps {
		ep.rearm()
	}
	// Un-gate the poll path only once the fresh stack is fully armed.
	t.crashed.Store(false)
	telemetry.TraceInstant("lifecycle", "restart", int32(t.rxQueue), 0)
	fresh.AnnounceARP()
	return nil
}

// Crashes and Restarts report the cumulative lifecycle counts (for
// telemetry assertions in tests).
func (t *Transport) Lifetimes() (crashes, restarts int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crashes, t.restarts
}

// Crash tears down every shard of the set the way a whole-process crash
// does (Transport.Crash, shard by shard). Returns the number of qtokens
// aborted plus frames flushed.
func (s *ShardSet) Crash() int {
	n := 0
	for _, t := range s.shards {
		n += t.Crash()
	}
	if s.qg != nil {
		// Tenant crash on a shared NIC: the shards flushed the tenant's own
		// queues, and its pending TX goes too — neighbours keep their frames
		// and their link.
		n += s.qg.FlushTx()
	}
	return n
}

// Crashed reports whether the set is down (true iff shard 0 is down;
// shards crash and restart together).
func (s *ShardSet) Crashed() bool { return s.shards[0].Crashed() }

// Restart reconstitutes every shard on the same device, MAC, and IP.
// The shared neighbor table is generation-invalidated first, so no
// resolution learned by the dead incarnation can shadow the reborn one
// (the stale-ARP black hole the NeighborTable generations exist for);
// then each shard gets a fresh stack, re-armed listeners, and announces
// itself with a gratuitous ARP.
func (s *ShardSet) Restart() error {
	s.neigh.InvalidateAll()
	for _, t := range s.shards {
		if err := t.Restart(); err != nil {
			return err
		}
	}
	return nil
}

// kill stamps the endpoint with the crash error: every pending qtoken
// (parked pops and queued pushes) completes with err, queued pushes let go
// of their registered memory, and un-popped pooled pop payloads are
// released, with the frame the framer was in the middle of — the frame-
// conservation half of dying cleanly. Data endpoints become terminal
// (e.dead); listener endpoints stay revivable for rearm. Returns the
// number of qtokens aborted.
func (e *endpoint) kill(err error) int {
	e.t.mu.Lock()
	dropped := e.rx.Crash(err)
	txq := e.txq.Take()
	e.framer.Reset() // a frame half decoded: its buffer goes home too
	e.conn = nil
	if e.listener.Load() == nil {
		e.dead = err
	}
	e.t.mu.Unlock()
	n := dropped.Settle()
	for i := range txq {
		txq[i].release()
		txq[i].done(queue.Completion{Kind: queue.OpPush, Err: err})
	}
	return n + len(txq)
}

// rearm re-binds a listener endpoint onto the (fresh) current stack so
// the application's listening QD survives the crash.
func (e *endpoint) rearm() {
	e.t.mu.Lock()
	relisten, port := e.listener.Load() != nil && !e.rx.Closed(), e.bound.Port
	e.t.mu.Unlock()
	if !relisten {
		return
	}
	if l, err := e.t.Stack().ListenTCP(port); err == nil {
		e.listener.Store(l)
	}
}

// reviveLocked rebinds the datagram socket on the fresh stack at its
// original port (explicitly bound sockets keep their port; connected-UDP
// sockets get a fresh ephemeral one) and clears the crash error.
func (e *udpEndpoint) reviveLocked() {
	if e.rx.Closed() {
		return
	}
	e.rx.Revive()
	if err := e.openLocked(e.bound.Port); err != nil {
		e.rx.Fail(err)
	}
}
