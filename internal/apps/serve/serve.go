// Package serve is the completion-ring protocol of the apps, written once
// below them (PAPER.md §4.4): the libOS completes, the app only pushes,
// pops and reacts. A server is a Loop — one application thread over one
// libOS serving every connection from one ring — and an App, the protocol
// it serves; a client pipelines requests over its ring with a Batch.
package serve

import (
	"iter"
	"runtime"
	"sync/atomic"

	"demikernel/internal/core"
	"demikernel/internal/fifo"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

const (
	// ringStart is where a loop's ring starts: two connections' windows of
	// eight pops. It grows with the connections the loop accepts.
	ringStart = 16
	// harvest is how many completions one step takes off the ring.
	harvest = 64
)

// tag is an operation's cookie: id names what it belongs to (a
// connection, or a request of a batch) and the low bit says push, so one
// harvest dispatches every connection with no map on the tag itself.
func tag(id uint64, push bool) uint64 {
	if push {
		return id<<1 | 1
	}
	return id << 1
}

// untag is tag's inverse.
func untag(t uint64) (id uint64, push bool) { return t >> 1, t&1 == 1 }

// Conn is one accepted connection: the App's state for it and the holds
// of its pushes in flight, oldest first.
type Conn[S, H any] struct {
	QD    core.QD
	State S
	holds fifo.Queue[H]
}

// Held returns how many of the connection's pushes are in flight.
func (c *Conn[S, H]) Held() int { return c.holds.Len() }

// App is the protocol a Loop serves, over connection state S and push
// holds H. Popped and Release are required; a nil hook does nothing,
// except Failed, whose default drops the connection.
type App[S, H any] struct {
	// Accepted sees each new connection, to arm its pops.
	Accepted func(c *Conn[S, H])
	// Popped takes one request that arrived on c, which it owns from then
	// on, and returns how many requests it served.
	Popped func(c *Conn[S, H], req sga.SGA, cost simclock.Lat) int
	// Pushed sees a push of c complete, its hold already released.
	Pushed func(c *Conn[S, H])
	// Failed sees an operation of c fail.
	Failed func(c *Conn[S, H], push bool, err error)
	// Release gives back what a push held, once the transport no longer
	// reads it.
	Release func(h H)
	// Work is the App's own part of a step, run after the accepts and
	// before the harvest; it returns the progress it made.
	Work func() int
	// Settle runs at the end of a step, once its batch is submitted.
	Settle func()
}

// Loop serves one listener's connections from one ring. One goroutine
// steps it (Step, or Run wrapping Step); only Conns and Accepts may be
// called from another.
type Loop[S, H any] struct {
	lib   *core.LibOS
	app   App[S, H]
	ring  *uring.Pair
	lqd   core.QD
	conns map[core.QD]*Conn[S, H]
	// accepts counts the connections accepted, live those not yet dropped.
	accepts, live atomic.Int64
	sqes          []uring.SQE
	cqes          []uring.CQE
}

// New creates a loop on lib serving app, with its ring attached.
func New[S, H any](lib *core.LibOS, app App[S, H]) *Loop[S, H] {
	return &Loop[S, H]{
		lib:   lib,
		app:   app,
		ring:  lib.AttachRing(ringStart),
		lqd:   core.InvalidQD,
		conns: make(map[core.QD]*Conn[S, H]),
		cqes:  make([]uring.CQE, harvest),
	}
}

// EnableRing pre-sizes the ring for capacity operations in flight, and the
// harvest for as many completions at once. The ring grows to that by
// itself; a rig that measures steady state from the first request calls
// this instead of warming up.
func (l *Loop[S, H]) EnableRing(capacity int) {
	l.ring.Reserve(capacity)
	if capacity > len(l.cqes) {
		l.cqes = make([]uring.CQE, capacity)
	}
}

// Ring returns the loop's ring (telemetry).
func (l *Loop[S, H]) Ring() *uring.Pair { return l.ring }

// Listen binds the loop to port.
func (l *Loop[S, H]) Listen(port uint16) error {
	qd, err := l.lib.Socket()
	if err != nil {
		return err
	}
	if err := l.lib.Bind(qd, core.Addr{Port: port}); err != nil {
		return err
	}
	if err := l.lib.Listen(qd); err != nil {
		return err
	}
	l.lqd = qd
	return nil
}

// Conns returns the live connection count.
func (l *Loop[S, H]) Conns() int { return int(l.live.Load()) }

// Accepts returns how many connections the loop has accepted.
func (l *Loop[S, H]) Accepts() int64 { return l.accepts.Load() }

// Conn returns the live connection on qd, or nil.
func (l *Loop[S, H]) Conn(qd core.QD) *Conn[S, H] { return l.conns[qd] }

// All yields every live connection; the loop may drop the one yielded.
func (l *Loop[S, H]) All() iter.Seq[*Conn[S, H]] {
	return func(yield func(*Conn[S, H]) bool) {
		for _, c := range l.conns {
			if !yield(c) {
				return
			}
		}
	}
}

// Pop stages a pop on c.
func (l *Loop[S, H]) Pop(c *Conn[S, H]) {
	l.sqes = append(l.sqes, uring.SQE{Op: queue.OpPop, QD: int32(c.QD), Tag: tag(uint64(c.QD), false)})
}

// Push stages a push of s on c, charged cost; hold stays with c until the
// push completes.
func (l *Loop[S, H]) Push(c *Conn[S, H], s sga.SGA, cost simclock.Lat, hold H) {
	c.holds.Push(hold)
	l.sqes = append(l.sqes, uring.SQE{Op: queue.OpPush, QD: int32(c.QD), Tag: tag(uint64(c.QD), true), SGA: s, Cost: cost})
}

// Drop closes c and releases the holds of its pushes: a closed connection
// reads none of them again. Dropping a connection twice does nothing.
func (l *Loop[S, H]) Drop(c *Conn[S, H]) {
	if l.conns[c.QD] != c {
		return
	}
	delete(l.conns, c.QD)
	l.live.Add(-1)
	l.lib.Close(c.QD) //nolint:errcheck // may already be gone
	for c.holds.Len() > 0 {
		l.app.Release(c.holds.Pop())
	}
}

// Step runs one non-blocking iteration: it accepts what the listener has
// (the App arms pops), runs the App's Work, harvests up to 64 completions
// and hands each to the App by connection and kind, and submits what the
// step staged as one batch. A push CQE releases the oldest hold of its
// connection (pushes complete in order); a completion for a connection
// already dropped has its buffer freed. It returns the progress made:
// requests served plus the App's Work.
func (l *Loop[S, H]) Step() int {
	for {
		qd, ok, err := l.lib.TryAccept(l.lqd)
		if err != nil || !ok {
			break
		}
		c := &Conn[S, H]{QD: qd}
		l.conns[qd] = c
		l.accepts.Add(1)
		l.live.Add(1)
		if l.app.Accepted != nil {
			l.app.Accepted(c)
		}
	}
	n := 0
	if l.app.Work != nil {
		n = l.app.Work()
	}
	k := l.lib.HarvestCQ(l.ring, l.cqes)
	for i := range l.cqes[:k] {
		cq := &l.cqes[i]
		id, push := untag(cq.Tag)
		c := l.conns[core.QD(id)]
		switch {
		case c == nil:
			cq.SGA.Free() // dropped at an earlier completion
		case cq.Err != nil && l.app.Failed != nil:
			l.app.Failed(c, push, cq.Err)
		case cq.Err != nil:
			l.Drop(c)
		case push:
			if c.holds.Len() > 0 {
				l.app.Release(c.holds.Pop())
			}
			if l.app.Pushed != nil {
				l.app.Pushed(c)
			}
		default:
			n += l.app.Popped(c, cq.SGA, cq.Cost)
		}
		*cq = uring.CQE{}
	}
	if len(l.sqes) > 0 {
		l.lib.SubmitBatch(l.ring, l.sqes) //nolint:errcheck // a failed op is a CQE
		clear(l.sqes)
		l.sqes = l.sqes[:0]
	}
	if l.app.Settle != nil {
		l.app.Settle()
	}
	return n
}

// Run steps the loop until stop closes, polling the libOS when a step
// finds nothing to do: the loop is its libOS's poller.
func (l *Loop[S, H]) Run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if l.Step() == 0 {
			l.lib.Poll()
		}
		runtime.Gosched()
	}
}

// Start runs the loop in a goroutine of its own and returns the stop that
// ends it and then closes the loop, so the port can be served again.
func (l *Loop[S, H]) Start() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		l.Run(quit)
	}()
	return func() {
		close(quit)
		<-done
		l.Close()
	}
}

// Close releases what a loop that steps no more still holds: each
// connection with its holds, each completion still on the ring (a request
// popped after the last step gives its buffer back), and the listener.
func (l *Loop[S, H]) Close() {
	for c := range l.All() {
		l.Drop(c)
	}
	for n := l.lib.HarvestCQ(l.ring, l.cqes); n > 0; n = l.lib.HarvestCQ(l.ring, l.cqes) {
		for i := range l.cqes[:n] {
			l.cqes[i].SGA.Free()
			l.cqes[i] = uring.CQE{}
		}
	}
	l.lib.Close(l.lqd) //nolint:errcheck // nothing to do about it at shutdown
}
