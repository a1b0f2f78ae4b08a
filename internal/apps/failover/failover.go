// Package failover is the client-side half of surviving a server death
// in a kernel-bypass world. The paper's §3 observation cuts both ways:
// when a bypass server crashes, the kernel sends no FIN and no RST on
// its behalf — the peer's first signal is its own retransmission budget
// expiring with a typed error. A client that wants availability must
// therefore supply what the OS used to: detect the death (typed errors,
// never hangs), back off with jitter so a thousand rebuffed clients do
// not stampede the reborn server, redial, and replay the idempotent
// operation that was in flight.
//
// The package is deliberately tiny and application-agnostic: a Policy
// (how many attempts, how the backoff grows, how much jitter), a
// Backoff iterator seeded for reproducible chaos runs, Retriable — the
// single predicate deciding whether an error means "the peer died, try
// again" versus "the request itself is wrong, give up" — and Do, the
// one attempt → backoff → redial → replay loop every client runs. Conn
// is the one connection those clients run it on: the echo and HTTP
// clients are one each, and a KV client is one per server shard. Its
// redial swaps descriptors dial-first, and it counts the answers a
// timed-out push may still owe, so no request takes another's answer.
package failover

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// Policy configures redial-and-replay behavior.
type Policy struct {
	// MaxAttempts bounds redial attempts per operation; 0 disables
	// failover entirely (errors surface to the caller unchanged).
	MaxAttempts int
	// Base is the first backoff delay; it doubles per attempt.
	Base time.Duration
	// Max caps the grown backoff.
	Max time.Duration
	// Jitter in [0,1] randomizes each delay within ±Jitter/2 of itself,
	// decorrelating reconnect storms (a cluster of clients rebuffed by
	// the same crash must not retry in lockstep).
	Jitter float64
	// Seed drives the jitter; chaos tests pin it for reproducibility.
	Seed int64
}

// DefaultPolicy is tuned for the simulator's compressed timescales:
// enough attempts to ride out a multi-RTO outage, millisecond backoffs.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 25, Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.5, Seed: 1}
}

// Backoff iterates a policy's jittered exponential delays. Safe for use
// by one operation at a time; create one per retry loop (Reset reuses).
type Backoff struct {
	pol     Policy
	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

// NewBackoff returns a fresh iterator over pol's delays.
func NewBackoff(pol Policy) *Backoff {
	return &Backoff{pol: pol, rng: rand.New(rand.NewSource(pol.Seed))}
}

// Next returns the next delay and true, or 0 and false once the
// policy's attempts are exhausted.
func (b *Backoff) Next() (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.attempt >= b.pol.MaxAttempts {
		return 0, false
	}
	// Clamp the shift so a long retry campaign cannot overflow the
	// doubling into a negative (and therefore cap-evading) duration.
	shift := uint(b.attempt)
	if shift > 30 {
		shift = 30
	}
	d := b.pol.Base << shift
	if b.pol.Max > 0 && (d > b.pol.Max || d <= 0) {
		d = b.pol.Max
	}
	if b.pol.Jitter > 0 {
		// Scale into [1-J/2, 1+J/2): full decorrelation without ever
		// collapsing the delay to zero.
		f := 1 + b.pol.Jitter*(b.rng.Float64()-0.5)
		d = time.Duration(float64(d) * f)
	}
	b.attempt++
	return d, true
}

// Reset rewinds the iterator (a successful operation forgives history).
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// Retriable reports whether err signals a dead, reset, or silent peer —
// the class of failures a redial-and-replay can cure. ErrWaitTimeout is
// included deliberately: when a bypass server dies after ACKing the
// request but before responding, the client's TCP layer has nothing in
// flight to retransmit and so never detects the death — the wait
// deadline expiring is the only liveness signal left, and replaying an
// idempotent operation against a merely-slow server is harmless.
// Application-level errors (malformed request, server ER status) and
// programming errors (bad QD) are not retriable: replaying them
// reproduces them.
func Retriable(err error) bool {
	return err != nil && (errors.Is(err, core.ErrPeerDead) ||
		errors.Is(err, core.ErrLocalReset) ||
		errors.Is(err, core.ErrWaitTimeout) ||
		errors.Is(err, queue.ErrClosed))
}

// Do runs attempt, and while it fails with a Retriable error under an
// armed policy: backs off, calls redial, and replays attempt on the
// fresh connection. A nil pol disables failover (attempt runs once). It
// returns how many redials succeeded — each is followed by one replay —
// and attempt's last result: nil, a non-retriable error, or, once the
// policy's attempts are exhausted, the last typed error seen. A redial
// that fails retriably (server still down) keeps backing off; any other
// redial error ends the loop at once. The backoff is lib.PollFor: a wait
// on the client node's clock that keeps polling the client's libOS, as
// every wait of a libOS does. Nothing sleeps, and a test that steps the
// clock ends it.
func Do(lib *core.LibOS, pol *Policy, attempt, redial func() error) (redials int, err error) {
	err = attempt()
	if err == nil || pol == nil || !Retriable(err) {
		return 0, err
	}
	bo := NewBackoff(*pol)
	for {
		d, ok := bo.Next()
		if !ok {
			return redials, err
		}
		lib.PollFor(d)
		if rerr := redial(); rerr != nil {
			if Retriable(rerr) {
				err = rerr
				continue
			}
			return redials, rerr
		}
		redials++
		if err = attempt(); err == nil || !Retriable(err) {
			return redials, err
		}
	}
}

// Dial opens a socket on lib and connects it to addr; a socket whose
// connect fails is closed rather than leaked.
func Dial(lib *core.LibOS, addr core.Addr) (core.QD, error) {
	qd, err := lib.Socket()
	if err != nil {
		return core.InvalidQD, err
	}
	if err := lib.Connect(qd, addr); err != nil {
		lib.Close(qd) //nolint:errcheck // never connected
		return core.InvalidQD, err
	}
	return qd, nil
}

// Send pushes s on qd, charged cost, and waits for the push to complete:
// a failed push surfaces its typed error at once, not as a response that
// never comes.
func Send(lib *core.LibOS, qd core.QD, s sga.SGA, cost simclock.Lat) error {
	qt, err := lib.PushCost(qd, s, cost)
	if err != nil {
		return err
	}
	comp, err := lib.Wait(qt)
	if err != nil {
		return err
	}
	return comp.Err
}

// Recv pops the next element on qd, which the caller frees, and the
// virtual cost it accumulated.
func Recv(lib *core.LibOS, qd core.QD) (sga.SGA, simclock.Lat, error) {
	comp, err := lib.BlockingPop(qd)
	if err == nil {
		err = comp.Err
	}
	if err != nil {
		return sga.SGA{}, 0, err
	}
	return comp.SGA, comp.Cost, nil
}

// Replayer is the failover state a client carries: the policy
// EnableFailover arms, and the count of the redials Replay made.
type Replayer struct {
	pol     *Policy
	redials atomic.Int64
}

// EnableFailover arms redial-and-replay with pol.
func (r *Replayer) EnableFailover(pol Policy) { r.pol = &pol }

// FailoverStats reports redials and replays performed so far (every
// successful redial replays the one operation that was in flight).
func (r *Replayer) FailoverStats() (reconnects, replays int64) {
	n := r.redials.Load()
	return n, n
}

// Replay is Do on lib under the armed policy, counted; a nil redial runs
// attempt once.
func (r *Replayer) Replay(lib *core.LibOS, attempt, redial func() error) error {
	pol := r.pol
	if redial == nil {
		pol = nil
	}
	n, err := Do(lib, pol, attempt, redial)
	r.redials.Add(int64(n))
	return err
}

// Conn is a client's one connection that survives its server's death.
// It redials through its dialer, dial-first (Redial), and it keeps the
// rule a connection whose answers carry no request id needs: a push
// whose wait timed out may still be answered, so Conn counts the answers
// it owes with no pop posted, and Exchange pops those ahead of its own.
// Under a policy armed with EnableFailover, Replay(attempt, c.Redial)
// redials it and replays the operation in flight. The echo and HTTP
// clients embed one; a kv.ShardedClient holds one per shard.
type Conn struct {
	Replayer
	lib *core.LibOS

	// mu guards the fields below: Redial swaps the descriptor while
	// another goroutine may Close the Conn (a kv Resize retiring it).
	mu      sync.Mutex
	qd      core.QD
	dial    func(attempt int) (core.QD, error)
	attempt int
	owed    int
	closed  bool
}

// NewConn returns a Conn on lib holding qd (core.InvalidQD for none
// yet), which redials through dial, called with the redial's number
// (1, 2, …). A nil dial is installed by Connect or Adopt.
func NewConn(lib *core.LibOS, qd core.QD, dial func(attempt int) (core.QD, error)) *Conn {
	return &Conn{lib: lib, qd: qd, dial: dial}
}

// Connect dials addr, replacing (dial-first) the connection the Conn
// had, and keeps that dialer for redials.
func (c *Conn) Connect(addr core.Addr) error {
	c.mu.Lock()
	c.dial, c.closed = dialer(c.lib, addr), false
	c.mu.Unlock()
	return c.Redial()
}

// Adopt takes over qd, already connected to addr, and redials addr.
func (c *Conn) Adopt(qd core.QD, addr core.Addr) {
	c.mu.Lock()
	c.qd, c.dial, c.owed, c.closed = qd, dialer(c.lib, addr), 0, false
	c.mu.Unlock()
}

// dialer is the dialer of a connection to addr: every attempt dials it.
func dialer(lib *core.LibOS, addr core.Addr) func(int) (core.QD, error) {
	return func(int) (core.QD, error) { return Dial(lib, addr) }
}

// Stage stages a client on lib: a background poller for lib, under which
// connect runs. stop runs disconnect and then stops the poller; a connect
// that fails stops at once.
func Stage(lib *core.LibOS, connect, disconnect func() error) (stop func(), err error) {
	stopPoll := lib.Background()
	stop = func() {
		disconnect() //nolint:errcheck // the peer may have closed first
		stopPoll()
	}
	if err := connect(); err != nil {
		stop()
		return nil, err
	}
	return stop, nil
}

// Lib returns the libOS the connection lives on.
func (c *Conn) Lib() *core.LibOS { return c.lib }

// QD returns the connection's descriptor.
func (c *Conn) QD() core.QD {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.qd
}

// Close shuts the connection; a Redial in flight leaves it shut.
func (c *Conn) Close() error {
	c.mu.Lock()
	qd := c.qd
	c.qd, c.owed, c.closed = core.InvalidQD, 0, true
	c.mu.Unlock()
	return c.lib.Close(qd)
}

// Redial replaces the connection with a fresh one from the dialer. The
// swap is dial-first: the old QD is closed only once a replacement
// exists, so a failed redial (server still down) leaves the client
// holding a QD whose errors stay typed and retriable — never a stale
// closed descriptor that would surface non-retriable ErrBadQD — and
// whose owed answers the next Exchange still pops. A Conn closed before
// or during the dial stays closed: the fresh QD is dropped, and Redial
// fails with queue.ErrClosed, which is retriable, so a client that holds
// several (kv) resolves its connection again and redials that.
func (c *Conn) Redial() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return queue.ErrClosed
	}
	c.attempt++
	attempt, dial := c.attempt, c.dial
	c.mu.Unlock()
	fresh, err := dial(attempt)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.lib.Close(fresh) //nolint:errcheck // surplus dial
		return queue.ErrClosed
	}
	old := c.qd
	c.qd, c.owed = fresh, 0
	c.mu.Unlock()
	if old != core.InvalidQD {
		c.lib.Close(old) //nolint:errcheck // the old QD is already dead
	}
	return nil
}

// Exchange sends req, charged cost, and returns its answer, which the
// caller frees, with the answer's cost. It pops, and frees, every answer
// owed ahead of its own. A push counts one answer even when its wait
// timed out, and every pop posted takes one even when its own wait
// times out, because the pop stays parked. Draining after the push, not
// before it, matters: a lost push is only exposed by the next one.
func (c *Conn) Exchange(req sga.SGA, cost simclock.Lat) (resp sga.SGA, respCost simclock.Lat, err error) {
	qd := c.QD()
	err = Send(c.lib, qd, req, cost)
	if err == nil || errors.Is(err, core.ErrWaitTimeout) {
		c.owe(qd, 1)
	}
	for err == nil {
		resp, respCost, err = Recv(c.lib, qd)
		if c.owe(qd, -1) == 0 {
			return resp, respCost, err
		}
		resp.Free()
	}
	return sga.SGA{}, 0, err
}

// owe adds d to the answers qd owes, and returns how many it still owes:
// none once qd is no longer the Conn's descriptor.
func (c *Conn) owe(qd core.QD, d int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.qd != qd {
		return 0
	}
	c.owed += d
	return c.owed
}
