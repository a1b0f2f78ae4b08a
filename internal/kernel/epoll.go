package kernel

import (
	"sync"

	"demikernel/internal/simclock"
)

// Epoll models the POSIX readiness API with its classic multi-waiter
// behaviour: when an event arrives, every thread blocked in Wait is woken
// (the kernel cannot know which waiter will end up consuming the data),
// one of them wins the ready set, and the rest go back to sleep having
// burnt a wakeup. Section 4.4 contrasts this with Demikernel qtokens,
// where "wait wakes exactly one thread on each pop completion, so there
// are never wasted wake ups".
type Epoll struct {
	k *Kernel

	mu      sync.Mutex
	cond    *sync.Cond
	watched map[FD]bool
	ready   map[FD]bool
	closed  bool
}

// EpollCreate creates an epoll instance.
func (k *Kernel) EpollCreate() *Epoll {
	k.Syscall(0)
	ep := &Epoll{
		k:       k,
		watched: make(map[FD]bool),
		ready:   make(map[FD]bool),
	}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

// Add registers a descriptor for readiness notification.
func (ep *Epoll) Add(fd FD) {
	ep.k.Syscall(0)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.watched[fd] = true
}

// Wait blocks until at least one watched descriptor is ready and returns
// the ready set (clearing it — the winning thread takes everything).
// The returned cost charges the syscall plus one scheduler wakeup. ok is
// false when the instance was closed.
//
// Note the deliberate herd: every waiter is woken per event delivery; the
// losers record wasted wakeups in the kernel counters.
func (ep *Epoll) Wait() (fds []FD, cost simclock.Lat, ok bool) {
	cost = ep.k.Syscall(0)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		if ep.closed {
			return nil, cost, false
		}
		if len(ep.ready) > 0 {
			for fd := range ep.ready {
				fds = append(fds, fd)
			}
			ep.ready = make(map[FD]bool)
			return fds, cost, true
		}
		ep.cond.Wait()
		// Woken. Was it for nothing?
		ep.k.mu.Lock()
		ep.k.ctr.Wakeups++
		if len(ep.ready) == 0 && !ep.closed {
			ep.k.ctr.WastedWakeups++
		}
		ep.k.mu.Unlock()
		cost += ep.k.model.WakeupNS
	}
}

// TryWait polls readiness without blocking (the shape a busy-polling
// server uses).
func (ep *Epoll) TryWait() ([]FD, simclock.Lat) {
	cost := ep.k.Syscall(0)
	ep.k.refreshReadiness(ep)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.ready) == 0 {
		return nil, cost
	}
	fds := make([]FD, 0, len(ep.ready))
	for fd := range ep.ready {
		fds = append(fds, fd)
	}
	ep.ready = make(map[FD]bool)
	return fds, cost
}

// Close wakes all waiters with ok=false.
func (ep *Epoll) Close() {
	ep.mu.Lock()
	ep.closed = true
	ep.mu.Unlock()
	ep.cond.Broadcast()
}

// MarkReady injects readiness for a descriptor directly. Experiments use
// it to model completion arrival without a full network round trip.
func (ep *Epoll) MarkReady(fd FD) {
	ep.mu.Lock()
	ep.ready[fd] = true
	ep.mu.Unlock()
	ep.cond.Broadcast() // wake-all: the herd
}

// refreshReadiness recomputes readiness for every watched descriptor of
// one epoll instance.
func (k *Kernel) refreshReadiness(ep *Epoll) {
	ep.mu.Lock()
	watched := make([]FD, 0, len(ep.watched))
	for fd := range ep.watched {
		watched = append(watched, fd)
	}
	ep.mu.Unlock()

	var newlyReady []FD
	for _, fd := range watched {
		if k.fdReadable(fd) {
			newlyReady = append(newlyReady, fd)
		}
	}
	if len(newlyReady) == 0 {
		return
	}
	ep.mu.Lock()
	for _, fd := range newlyReady {
		ep.ready[fd] = true
	}
	ep.mu.Unlock()
	ep.cond.Broadcast()
}

// fdReadable computes level-triggered readiness: a pipe's read end with
// bytes in it, or whose writer closed.
func (k *Kernel) fdReadable(fd FD) bool {
	e, err := k.lookup(fd)
	if err != nil || e.kind != fdPipeRead {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(e.pipe.buf) > 0 || e.pipe.wrClosed
}
