// Package chaos is a deterministic, seeded fault-schedule engine for the
// simulated kernel-bypass fabric and devices.
//
// The paper's thesis is that kernel-bypass devices ship with none of the
// operating system's safety net; the libOSes in this repository supply
// that net (retransmission budgets, dead-peer detectors, device-reset retries,
// memory backpressure). This package exists to *attack* the net on a
// schedule and observe that applications see typed errors and recover —
// never hangs, never silent corruption.
//
// An Engine holds a list of time-targeted events (offsets relative to
// Start). Each event fires exactly once, in offset order, when Step or
// Run observes that its offset has elapsed. Faults are plain closures, so
// any knob is schedulable; typed helpers cover the common ones:
//
//   - link down / up / flap on one switch port (partitions),
//   - per-port or global frame impairments (loss, duplication,
//     reordering, corruption),
//   - NVMe controller resets and injected media error rates,
//   - node crash/restart (modeled as the node's links going down and the
//     application ceasing to poll — see the root chaos tests).
//
// Everything random (which byte a corruption flips, which command an
// error rate fails) is driven by seeded generators, so a chaos run is
// reproducible from its seed and schedule alone.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/sga"
	"demikernel/internal/spdk"
)

// Event is one scheduled fault injection.
type Event struct {
	At     time.Duration // offset from Start at which to fire
	Name   string        // human-readable label, recorded in Fired
	Inject func()        // the fault; runs exactly once
}

// FiredEvent records one event that has fired: its name, the offset it
// was scheduled for, and the offset at which the engine actually
// observed it due (>= At; the gap is polling-loop slack). demi-stat
// prints these for every rig that has an engine.
type FiredEvent struct {
	Name    string
	At      time.Duration // scheduled offset
	FiredAt time.Duration // observed offset when Step fired it
}

// Lifecycle is the crash/restart surface of a node, as seen by the
// engine. demikernel.Node satisfies it for every kind and shard shape;
// the indirection keeps this package free of a dependency on the root
// package. Crash returns how many pending operations it aborted.
type Lifecycle interface {
	Crash() (int, error)
	Restart() error
}

// Engine schedules and fires fault events. It is safe for concurrent
// use; Step may be called from a polling loop while another goroutine
// inspects Fired.
type Engine struct {
	seed int64

	mu      sync.Mutex
	rng     *rand.Rand
	events  []Event
	started bool
	start   time.Time
	next    int
	fired   []string
	firedEv []FiredEvent
}

// New returns an engine whose random choices derive from seed.
func New(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the engine's seed (for logging a reproducible run).
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's seeded random source. Schedules use it to
// derive fault parameters (which port, how long an outage) so the whole
// scenario replays from one seed.
func (e *Engine) Rand() *rand.Rand {
	return e.rng
}

// At schedules inject to fire once the given offset from Start has
// elapsed. It returns the engine for chaining. Scheduling after Start is
// allowed as long as the offset is still in the future of the already
// fired prefix.
func (e *Engine) At(at time.Duration, name string, inject func()) *Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, Event{At: at, Name: name, Inject: inject})
	// Keep events sorted by offset; stable so equal offsets fire in
	// scheduling order.
	sort.SliceStable(e.events[e.next:], func(i, j int) bool {
		return e.events[e.next+i].At < e.events[e.next+j].At
	})
	return e
}

// Start records the schedule's time zero. Run calls it implicitly.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.started {
		e.started = true
		e.start = time.Now()
	}
}

// Step fires every event whose offset has elapsed and returns how many
// fired. It is cheap enough to call from a tight polling loop.
func (e *Engine) Step() int {
	e.mu.Lock()
	if !e.started {
		e.started = true
		e.start = time.Now()
	}
	elapsed := time.Since(e.start)
	var due []Event
	for e.next < len(e.events) && e.events[e.next].At <= elapsed {
		due = append(due, e.events[e.next])
		e.fired = append(e.fired, e.events[e.next].Name)
		e.firedEv = append(e.firedEv, FiredEvent{
			Name:    e.events[e.next].Name,
			At:      e.events[e.next].At,
			FiredAt: elapsed,
		})
		e.next++
	}
	e.mu.Unlock()
	for _, ev := range due {
		ev.Inject()
	}
	return len(due)
}

// Done reports whether every scheduled event has fired.
func (e *Engine) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.next >= len(e.events)
}

// Fired returns the names of fired events in firing order.
func (e *Engine) Fired() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.fired...)
}

// FiredEvents returns the fired events with their scheduled and observed
// offsets, in firing order — the raw material for a chaos timeline.
func (e *Engine) FiredEvents() []FiredEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]FiredEvent(nil), e.firedEv...)
}

// Run starts the schedule and steps it every tick until total has
// elapsed and all events fired. It blocks the calling goroutine; tests
// usually run it alongside Background pollers.
func (e *Engine) Run(total, tick time.Duration) {
	if tick <= 0 {
		tick = time.Millisecond
	}
	e.Start()
	deadline := time.Now().Add(total)
	for {
		e.Step()
		if time.Now().After(deadline) && e.Done() {
			return
		}
		time.Sleep(tick)
	}
}

// --- typed helpers: fabric faults ---

// LinkDown schedules taking one switch port's link down: frames to and
// from the port drop (counted in LinkDownDrops) — a partition of that
// node from the fabric.
func (e *Engine) LinkDown(at time.Duration, sw *fabric.Switch, port int) *Engine {
	return e.At(at, fmt.Sprintf("link-down(port=%d)", port), func() {
		sw.SetLinkState(port, false)
	})
}

// LinkUp schedules healing one switch port's link.
func (e *Engine) LinkUp(at time.Duration, sw *fabric.Switch, port int) *Engine {
	return e.At(at, fmt.Sprintf("link-up(port=%d)", port), func() {
		sw.SetLinkState(port, true)
	})
}

// LinkFlap schedules a down-then-up pulse on one port.
func (e *Engine) LinkFlap(at, downFor time.Duration, sw *fabric.Switch, port int) *Engine {
	e.LinkDown(at, sw, port)
	return e.LinkUp(at+downFor, sw, port)
}

// ImpairAll schedules replacing the switch-wide impairments applied to
// every frame regardless of port. Zero Impairments heals the fabric.
func (e *Engine) ImpairAll(at time.Duration, sw *fabric.Switch, imp fabric.Impairments) *Engine {
	return e.At(at, fmt.Sprintf("impair-all(%+v)", imp), func() {
		sw.SetImpairments(imp)
	})
}

// --- typed helpers: storage faults ---

// ControllerReset schedules a spontaneous NVMe controller reset:
// in-flight commands abort with spdk.ErrDeviceReset and the next downFor
// commands fail while the controller re-initialises. Media survives.
func (e *Engine) ControllerReset(at time.Duration, dev *spdk.Device, downFor int) *Engine {
	return e.At(at, fmt.Sprintf("nvme-reset(downFor=%d)", downFor), func() {
		dev.ControllerReset(downFor)
	})
}

// IOErrorRate schedules arming (or with rate 0, disarming) seeded random
// command failures on the NVMe device. The generator seed derives from
// the engine seed, keeping the run reproducible.
func (e *Engine) IOErrorRate(at time.Duration, dev *spdk.Device, rate float64) *Engine {
	seed := e.seed ^ 0x10E44A7E // decorrelate from other engine draws
	return e.At(at, fmt.Sprintf("nvme-errors(rate=%g)", rate), func() {
		dev.SetErrorRate(rate, seed)
	})
}

// --- typed helpers: node lifecycle faults ---

// NodeCrashRestart schedules a whole-node death and rebirth: at `at` the
// node crashes (its links drop, its stack dies in place, every pending
// qtoken completes with the typed crash error — no FIN, no RST, nothing
// on the wire), and at `at+downFor` it restarts on the same device, MAC,
// and IP with listeners re-armed. This is the paper's §3 scenario made
// schedulable: with kernel bypass all protocol state lives in the dying
// process, so the blast radius is exactly what Crash aborts plus what
// peers discover through their own retransmission budgets.
func (e *Engine) NodeCrashRestart(at, downFor time.Duration, name string, n Lifecycle) *Engine {
	e.At(at, fmt.Sprintf("node-crash(%s)", name), func() {
		n.Crash() //nolint:errcheck // abort count is observable via telemetry
	})
	return e.At(at+downFor, fmt.Sprintf("node-restart(%s)", name), func() {
		n.Restart() //nolint:errcheck // Restart on a live node is a no-op error
	})
}

// HostileTenant is one tenant of a shared NIC gone hostile — the paper's
// protection scenario turned adversarial. Its rampage floods its own TX
// path with datagrams for a bystander (the WDRR scheduler and the
// tenant's rate limit must contain it), acquires pooled frames and never
// releases them (the tenant's quota ledger must absorb it), and ends with
// the node crashed mid-burst, so device-side reclamation is exercised with
// the most state outstanding.
type HostileTenant struct {
	Lib  *core.LibOS       // the tenant's libOS, source of the flood
	Pool *fabric.FramePool // its quota-charged frame pool, target of the leak
	Node Lifecycle         // the tenant's node, crashed last
	Sink core.Addr         // the bystander the flood is addressed to

	stop   chan struct{}
	wg     sync.WaitGroup
	leaked int
}

// Rampage schedules h's whole repertoire: flood at `at`, leak at
// `at+stagger`, crash at `at+2*stagger`. Victim tenants on the same NIC
// must ride it out behind their queue groups, TX weights and quotas. Once
// the schedule is Done, h.Stop ends the flood.
func (e *Engine) Rampage(at, stagger time.Duration, name string, h *HostileTenant) *Engine {
	h.stop = make(chan struct{})
	e.At(at, fmt.Sprintf("hostile-flood(%s)", name), h.flood)
	e.At(at+stagger, fmt.Sprintf("hostile-leak(%s)", name), func() {
		for i := 0; i < 400; i++ {
			if h.Pool.Get(1500) != nil { // acquired, never released
				h.leaked++
			}
		}
	})
	return e.At(at+2*stagger, fmt.Sprintf("hostile-crash(%s)", name), func() {
		h.Node.Crash() //nolint:errcheck // reclamation is observable via the ledger
	})
}

// flood starts a goroutine pushing 1 KiB datagrams at the sink as fast as
// the tenant can. Bursts of 32 back to back overrun the tenant's staging
// ring and rate cap at once; the sleep between bursts keeps the host CPU
// out of the victims' measured latency. A push that fails (the transport
// crashed underneath) backs off instead of hammering a corpse.
func (h *HostileTenant) flood() {
	qd, err := h.Lib.SocketUDP()
	if err != nil {
		return
	}
	if h.Lib.Bind(qd, core.Addr{Port: 7777}) != nil || h.Lib.Connect(qd, h.Sink) != nil {
		return
	}
	payload := sga.New(bytes.Repeat([]byte{0xAB}, 1024))
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			select {
			case <-h.stop:
				return
			default:
			}
			pause := 200 * time.Microsecond
			for j := 0; j < 32; j++ {
				if _, err := h.Lib.BlockingPush(qd, payload); err != nil {
					pause = 100 * time.Microsecond
					break
				}
			}
			time.Sleep(pause)
		}
	}()
}

// Stop ends the flood and reports how many frames the leak acquired.
func (h *HostileTenant) Stop() (leaked int) {
	close(h.stop)
	h.wg.Wait()
	return h.leaked
}

// AsymmetricPartition schedules a one-way fabric break: frames from port
// `from` to port `to` are silently dropped (counted in AsymDrops) while
// the reverse direction keeps flowing — the gray failure that defeats
// naive liveness checks, because `to` still hears `from` and believes
// the path healthy. If healAfter > 0 the partition heals at
// at+healAfter; otherwise it persists until healed by another event.
func (e *Engine) AsymmetricPartition(at, healAfter time.Duration, sw *fabric.Switch, from, to int) *Engine {
	e.At(at, fmt.Sprintf("asym-partition(%d->%d)", from, to), func() {
		sw.SetOneWayBlock(from, to, true)
	})
	if healAfter > 0 {
		e.At(at+healAfter, fmt.Sprintf("asym-heal(%d->%d)", from, to), func() {
			sw.SetOneWayBlock(from, to, false)
		})
	}
	return e
}
