package queue

import "demikernel/internal/fifo"

// PopSide is the pop half of a FIFO queue, written once: completions nobody
// has popped yet (held), pops nobody has answered yet (parked), a sticky
// terminal error and a closed flag. A pop is answered in one order: closed →
// ErrClosed, else the oldest held completion, else the terminal error, else
// it parks; so a pop parks only while nothing is held.
//
// Every socket queue, MemQueue, MergeQueue, FileQueue and catfish's lookup
// queue pop through one. A FileQueue holds nothing here: its elements stay
// in its log, and it reads the record a parked pop takes, and delivers it,
// under its lock. SortQueue keeps only its parked pops and closed flag
// here: its elements are a heap in priority order.
//
// A PopSide takes no lock: its owner's lock guards it. No method runs a
// DoneFunc or frees a buffer; each returns what the owner is to do once it
// has let its lock go. The zero value is an open, empty side.
type PopSide struct {
	held   fifo.Queue[Completion]
	parked fifo.Queue[DoneFunc]
	err    error
	closed bool
}

// Dropped is what Fail, Crash or Close took off a PopSide: parked pops, to
// fail with Err, and held completions nobody will pop, to free.
type Dropped struct {
	Pops []DoneFunc
	Held []Completion
	Err  error
}

// Settle frees d's completions and fails its pops, with no lock held, and
// returns how many pops it failed.
func (d Dropped) Settle() int {
	for i := range d.Held {
		d.Held[i].SGA.Free()
	}
	for _, w := range d.Pops {
		w(Completion{Kind: OpPop, Err: d.Err})
	}
	return len(d.Pops)
}

// Pop answers done at once (ok, with c) or parks it.
func (p *PopSide) Pop(done DoneFunc) (c Completion, ok bool) {
	switch {
	case p.closed:
		return Completion{Kind: OpPop, Err: ErrClosed}, true
	case p.held.Len() > 0:
		return p.held.Pop(), true
	case p.err != nil:
		return Completion{Kind: OpPop, Err: p.err}, true
	}
	p.parked.Push(done)
	return Completion{}, false
}

// Deliver gives c to the oldest parked pop (ok, with the pop's DoneFunc) or
// holds it. A closed side has no next pop: ok, with a DoneFunc that frees c.
func (p *PopSide) Deliver(c Completion) (w DoneFunc, ok bool) {
	switch {
	case p.closed:
		return func(c Completion) { c.SGA.Free() }, true
	case p.parked.Len() > 0:
		return p.parked.Pop(), true
	}
	p.held.Push(c)
	return nil, false
}

// Fail sets the terminal error unless one is set (the first wins) and takes
// the parked pops. What is held stays, to be popped before the error.
func (p *PopSide) Fail(err error) Dropped {
	if p.err == nil {
		p.err = err
	}
	if p.parked.Len() == 0 {
		return Dropped{}
	}
	return Dropped{Pops: p.parked.Take(), Err: p.err}
}

// Crash is Fail for an owner whose buffers died with it: it takes what is
// held too.
func (p *PopSide) Crash(err error) Dropped {
	d := p.Fail(err)
	d.Held, d.Err = p.held.Take(), p.err
	return d
}

// Close closes the side and takes what it holds and its parked pops, which
// fail with ErrClosed.
func (p *PopSide) Close() Dropped {
	p.closed = true
	return Dropped{Pops: p.parked.Take(), Held: p.held.Take(), Err: ErrClosed}
}

// Revive clears the terminal error: the owner has a working socket again.
func (p *PopSide) Revive() { p.err = nil }

// Held returns the number of held completions.
func (p *PopSide) Held() int { return p.held.Len() }

// HeldAt returns the held completion i places behind the oldest, valid
// until the side next changes.
func (p *PopSide) HeldAt(i int) *Completion { return p.held.At(i) }

// Parked returns the number of parked pops.
func (p *PopSide) Parked() int { return p.parked.Len() }

// Err returns the terminal error.
func (p *PopSide) Err() error { return p.err }

// Closed reports whether Close has been called.
func (p *PopSide) Closed() bool { return p.closed }
