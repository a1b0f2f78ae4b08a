package main

// The measurement harness: a pass drives one rig's closed loop from
// this goroutine for a fixed duration (or a fixed op count), recording
// one wall-clock latency sample per op, batch or group. End-to-end
// metrics come from a pass with tracing off; the per-layer pass runs
// the same loop with the tracer attached.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"demikernel/internal/telemetry"
)

// opTimeout bounds one op: a closed-loop slot that waits longer counts
// as failed and ends the run.
const opTimeout = 2 * time.Second

// rtoFloor is the netstack's initial retransmission timeout, which runs
// on the wall clock. On the loss-free fabric a retransmit is a product
// defect unless the host took this process off the CPU for that long
// between two polls, so the validity check tolerates retransmits only
// when the pass saw such a stall (see pass.clock).
const rtoFloor = 20 * time.Millisecond

// stallPolls is the most polls a gap between two clock reads may hold
// and still count as a host stall. A defect the RTO recovers keeps the
// driver spinning through thousands of polls while it waits; 64 polls
// are at most 2 ms of work even beside 1024 idle connections, so a gap
// of rtoFloor with so few polls in it is time the driver did not run.
const stallPolls = 64

// stepper is anything a pass can drive: a workload rig or one rung of
// the layer ladder.
type stepper interface {
	// step advances the closed loop by one iteration and records zero
	// or more finished samples on p.
	step(p *pass)
	// failure reports the first op error, timeout or verification
	// mismatch; a non-nil failure ends the run.
	failure() error
	// quiesce drains in-flight work so pools and queues are at rest.
	quiesce() error
}

// rig is one workload's system under test plus its closed-loop driver.
type rig interface {
	stepper
	registry() *telemetry.Registry
	// layerCounters adds the rig-specific counter metrics taken over a
	// pass whose registry diff is d.
	layerCounters(m map[string]float64, d telemetry.Snapshot, p *pass)
	// idlePoll is one round of LibOS.Poll calls with nothing to do and
	// the number of polls in it (0 when the rig has no network libOS).
	idlePoll() int
	// atRest returns rig-held resources that must read the same before
	// and after a pass (pool outstanding counts).
	atRest() int64
}

// pumpLimit bounds every untimed spin (set-up, drain, settle).
const pumpLimit = 1_000_000

// settle calls poll (one round over everything that can hold work) until
// it reports no work three rounds running, so trailing ACKs are consumed
// and every buffer is back in its pool.
func settle(poll func() int) error {
	for quiet, i := 0, 0; quiet < 3; i++ {
		if poll() == 0 {
			quiet++
		} else {
			quiet = 0
		}
		if i > pumpLimit {
			return errors.New("rig never went idle")
		}
	}
	return nil
}

// inflight is the bookkeeping of a one-way window of streamWindow
// messages: a slot frees when its message was delivered.
type inflight struct {
	sent, delivered uint64
	pushTS          [streamWindow]int64
	spins           int // of the overdue check
}

func (w *inflight) open() bool { return w.sent-w.delivered < streamWindow }

func (w *inflight) push(now int64) {
	w.pushTS[w.sent%streamWindow] = now
	w.sent++
}

// deliver records the oldest message as one finished sample.
func (w *inflight) deliver(p *pass, bytes, virt int64) {
	now := p.clock()
	p.record(now, now-w.pushTS[w.delivered%streamWindow], 1, bytes, virt)
	w.delivered++
}

// overdue reports whether the oldest message in flight is past opTimeout.
func (w *inflight) overdue(p *pass) bool {
	return w.delivered < w.sent && p.expired(w.pushTS[w.delivered%streamWindow], &w.spins)
}

// failer holds a stepper's first failure.
type failer struct{ err error }

func (f *failer) failure() error { return f.err }
func (f *failer) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

// rigBase carries what every rig shares.
type rigBase struct {
	failer
	reg *telemetry.Registry
}

func (b *rigBase) registry() *telemetry.Registry { return b.reg }

// sliceNS is the grain a timed pass is recorded at. Slices are short so
// that the ladder can pick the quietest stretch of a sub-second pass and
// a run can say how much of it the host's fast state covered; the gated
// rates are taken over windows of windowSlices slices (see summarize).
const sliceNS = int64(50 * time.Millisecond)

// timeSlice is what one slice of a pass saw.
type timeSlice struct {
	ops, bytes int64
	first      int // index of its first latency sample
	samples    []uint32
}

// pass is the state of one measured (or warm-up) run of a rig's loop.
type pass struct {
	t0       time.Time
	last     int64 // latest clock reading, ns since t0
	deadline int64 // stop once last passes it (0: no time limit)
	maxOps   int64 // stop once ops reaches it (0: no op limit)

	ops, bytes, virt int64
	samples          []uint32 // latency per sample, ns, in completion order
	dropped          int64    // samples beyond cap(samples)
	sl               []timeSlice
	slNS             int64 // length of one slice (0: the pass is not time-bounded)
	cur              int   // slice the latest sample fell into
	maxLat           int64

	winNS int64 // length of one window when the pass hops CPUs (0: it does not)
	win   int64 // window the latest clock reading fell into

	polls, emptyPolls int64 // driver polls, and those that returned no work
	pollsAtLast       int64 // polls at the latest clock reading
	stall             int64 // longest gap between two clock readings with <= stallPolls polls in it
	submits, harvests int64 // driver-side ring calls

	tr *tracer
}

// clock reads the wall clock. It also keeps the longest gap between two
// consecutive readings in which the driver made next to no polls: the
// measure of a host stall that does not depend on what an op's latency
// was, since a stall inside the program shows as many polls, not few.
func (p *pass) clock() int64 {
	now := int64(time.Since(p.t0))
	if gap := now - p.last; gap > p.stall && p.polls-p.pollsAtLast <= stallPolls {
		p.stall = gap
	}
	p.last, p.pollsAtLast = now, p.polls
	return now
}

func (p *pass) done() bool {
	return (p.deadline > 0 && p.last >= p.deadline) || (p.maxOps > 0 && p.ops >= p.maxOps)
}

// record books one finished sample that ended at end and took lat ns,
// covering ops verified operations, bytes of verified payload and virt
// ns of summed Completion.Cost.
func (p *pass) record(end, lat int64, ops int, bytes, virt int64) {
	p.ops += int64(ops)
	p.bytes += bytes
	p.virt += virt
	if lat > p.maxLat {
		p.maxLat = lat
	}
	if p.slNS > 0 {
		i := int(end / p.slNS)
		if i >= len(p.sl) {
			return // past the last whole slice
		}
		for p.cur < i {
			p.cur++
			p.sl[p.cur].first = len(p.samples)
		}
		p.sl[i].ops += int64(ops)
		p.sl[i].bytes += bytes
	}
	if len(p.samples) < cap(p.samples) {
		p.samples = append(p.samples, uint32(min(lat, 1<<32-1)))
	} else {
		p.dropped++
	}
}

// expired is the spin-loop guard: every 4096th call it reads the clock
// and reports whether the op that began at start is past opTimeout.
func (p *pass) expired(start int64, spins *int) bool {
	*spins++
	if *spins&4095 != 0 {
		return false
	}
	return p.clock()-start > int64(opTimeout)
}

// begin/end bracket one driver-side span; both are no-ops with tracing
// off, so the untraced pass pays one predictable branch per call site.
func (p *pass) begin() int64 {
	if p.tr == nil {
		return 0
	}
	return p.clock()
}

func (p *pass) end(id spanID, start int64) {
	if p.tr != nil {
		p.tr.add(id, start, p.clock())
	}
}

// opBegin and opEnd stamp the two ends of a sample that is one op, one
// batch or one group, and bracket its root span when tracing.
func (p *pass) opBegin() int64 {
	t := p.clock()
	if p.tr != nil {
		p.tr.open(t)
	}
	return t
}

func (p *pass) opEnd() int64 {
	t := p.clock()
	if p.tr != nil {
		p.tr.close(t)
	}
	return t
}

// poller is a LibOS, a node or a transport.
type poller interface{ Poll() int }

// poll wraps one poll: it counts it, and whether it returned no work,
// and the traced pass times it.
func (p *pass) poll(id spanID, l poller) int {
	var s int64
	if p.tr != nil {
		s = p.clock()
	}
	n := l.Poll()
	p.polls++
	if n == 0 {
		p.emptyPolls++
	}
	if p.tr != nil {
		p.tr.add(id, s, p.clock())
	}
	return n
}

// passResult is what one pass measured.
type passResult struct {
	ops       int64 // verified
	failed    int64 // 1 when an op's failure ended the pass, with the error
	virtPerOp float64
	dropped   int64
	maxLat    time.Duration
	slices    []timeSlice // whole slices, with their samples
	sliceNS   int64
}

// newPass prepares a pass. seconds > 0 makes it time-bounded and split
// into slices; maxOps > 0 makes it count-bounded (one slice, the whole
// pass). sampleCap sizes the pre-allocated latency buffer.
func newPass(seconds float64, maxOps int64, sampleCap int, tr *tracer) *pass {
	p := &pass{maxOps: maxOps, tr: tr}
	if seconds > 0 {
		p.deadline = int64(seconds * 1e9)
		p.slNS = min(sliceNS, p.deadline/2)
		p.sl = make([]timeSlice, p.deadline/p.slNS)
		if hopper != nil {
			p.winNS = p.slNS * windowSlices
		}
	}
	p.samples = make([]uint32, sampleCap)
	// Touch every page now: a fresh large slice is demand-zero memory,
	// and the first-touch faults would otherwise land in the pass.
	for i := 0; i < len(p.samples); i += 1024 {
		p.samples[i] = 1
	}
	p.samples = p.samples[:0]
	return p
}

// hopper, when main set it, moves a time-bounded pass to the next CPU at
// every window boundary, so that each window is measured on one CPU and
// a run samples all of them (affinity_linux.go says why).
var hopper *cpuHopper

// run drives r until the pass is done, then quiesces it.
func (p *pass) run(r stepper) (passResult, error) {
	if p.winNS > 0 {
		hopper.hop(0)
		defer hopper.release()
	}
	p.t0 = time.Now()
	for !p.done() {
		r.step(p)
		if err := r.failure(); err != nil {
			return passResult{ops: p.ops, failed: 1}, err
		}
		if p.winNS > 0 && p.last/p.winNS != p.win {
			p.win = p.last / p.winNS
			hopper.hop(int(p.win))
		}
	}
	elapsed := p.clock()
	if err := r.quiesce(); err != nil {
		return passResult{}, err
	}
	if p.ops == 0 {
		return passResult{}, errors.New("pass completed no operations")
	}
	res := passResult{
		ops:       p.ops,
		virtPerOp: float64(p.virt) / float64(p.ops),
		dropped:   p.dropped,
		maxLat:    time.Duration(p.maxLat),
		slices:    p.sl,
		sliceNS:   p.slNS,
	}
	if p.slNS == 0 {
		res.slices = []timeSlice{{ops: p.ops, bytes: p.bytes, samples: p.samples}}
		res.sliceNS = elapsed
		return res, nil
	}
	for p.cur < len(p.sl)-1 {
		p.cur++
		p.sl[p.cur].first = len(p.samples)
	}
	for i := range p.sl {
		end := len(p.samples)
		if i+1 < len(p.sl) {
			end = p.sl[i+1].first
		}
		p.sl[i].samples = p.samples[p.sl[i].first:end]
	}
	return res, nil
}

// windowSlices slices make one window of the gated numbers: 250 ms. A
// window is long enough that whatever the program does periodically (a
// GC cycle under steady allocation, a timer scan, a batch boundary)
// falls inside every window, and short enough that on most runs a good
// share of them lie wholly in the host's fast state.
const windowSlices = 5

// fastBand selects the windows the gated numbers are taken over: those
// whose op count is within this share of the best window's.
const fastBand = 0.05

// summary is the wall-clock view of the timed passes of one run.
type summary struct {
	// Gated: over the fast windows.
	opsPerS float64 // their ops / their duration
	goodput float64 // MB/s, likewise
	p50us   float64 // over the samples that ended in them
	samples int
	// How much of the run that was.
	fast, windows int
	// Not gated, over every slice and sample of every pass: what the run
	// did as a whole, host and all.
	allOpsPerS float64
	allP50us   float64
	allP99us   float64
	allSamples int
}

// summarize reduces one or more passes (all of one slice length) to the
// end-to-end numbers.
//
// The host this was built on moves between a fast state and slower ones
// (echo RTT 5.5 us against 7 to 8, every workload scaling alike, storage
// included) and stays in one for a quarter of a second to tens of
// seconds, with nothing else running in the VM. How much of a run it
// spends where differs from run to run, so anything taken over the whole
// pass spreads by 8 to 18 % across ten runs of the same code (median
// window of any length, or plain totals; README has the table): more
// than any bound worth gating on. The gated numbers are therefore taken
// over the fast windows, which two runs of the same code agree on to 1
// to 3 %. The states are each vCPU's own, so a pass takes its windows on
// the CPUs in turn (see hopper) and a run finds its fast windows on
// whichever CPU is fast. What that leaves out is a slowdown that strikes less than once
// per window and costs more than fastBand of it; the whole-pass numbers
// are reported beside the gated ones so that it shows, and a stall the
// length of an RTO is caught by the retransmit check.
func summarize(results ...passResult) summary {
	type win struct {
		ops, bytes int64
		slices     []timeSlice
	}
	var (
		s            summary
		wins         []win
		all          []uint32
		ops, totalNS int64
		best, winNS  int64
	)
	for _, r := range results {
		k := min(windowSlices, len(r.slices)) // a pass shorter than a window is one
		winNS = r.sliceNS * int64(k)
		for _, sl := range r.slices {
			ops += sl.ops
			totalNS += r.sliceNS
			all = append(all, sl.samples...)
		}
		// Slices past the last whole window are in the totals only.
		for i := 0; i+k <= len(r.slices); i += k {
			w := win{slices: r.slices[i : i+k]}
			for _, sl := range w.slices {
				w.ops += sl.ops
				w.bytes += sl.bytes
			}
			best = max(best, w.ops)
			wins = append(wins, w)
		}
	}
	var (
		fast       []uint32
		fOps, fByt int64
	)
	for _, w := range wins {
		if float64(w.ops) < float64(best)*(1-fastBand) {
			continue
		}
		s.fast++
		fOps += w.ops
		fByt += w.bytes
		for _, sl := range w.slices {
			fast = append(fast, sl.samples...)
		}
	}
	slices.Sort(fast)
	slices.Sort(all)
	secs := float64(winNS) / 1e9 * float64(s.fast)
	s.windows, s.samples, s.allSamples = len(wins), len(fast), len(all)
	s.opsPerS = float64(fOps) / secs
	s.goodput = float64(fByt) / 1e6 / secs
	s.p50us = float64(quantile(fast, 0.50)) / 1e3
	s.allOpsPerS = float64(ops) / (float64(totalNS) / 1e9)
	s.allP50us = float64(quantile(all, 0.50)) / 1e3
	s.allP99us = float64(quantile(all, 0.99)) / 1e3
	return s
}

// minSliceSamples is the fewest samples a slice's median is taken from.
const minSliceSamples = 32

// bestSlice returns the two most repeatable statistics short passes
// yield, used where passes of a second or less are compared (the
// ladder): the lowest median latency of any one slice, in ns, and the
// best slice's rate, in ops/s.
func bestSlice(results ...passResult) (minP50ns, maxRate float64) {
	for _, r := range results {
		for _, w := range r.slices {
			maxRate = max(maxRate, float64(w.ops)/(float64(r.sliceNS)/1e9))
			if len(w.samples) < minSliceSamples {
				continue
			}
			slices.Sort(w.samples)
			if m := float64(quantile(w.samples, 0.50)); minP50ns == 0 || m < minP50ns {
				minP50ns = m
			}
		}
	}
	return minP50ns, maxRate
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sum adds every sample of d whose name starts with prefix and ends
// with suffix (either may be empty). Nodes register under host<N>, and
// sharded nodes one level deeper, so layer counters are summed by
// suffix instead of by exact name.
func sum(d telemetry.Snapshot, prefix, suffix string) float64 {
	var t int64
	for _, s := range d.Samples {
		if strings.HasPrefix(s.Name, prefix) && strings.HasSuffix(s.Name, suffix) {
			t += s.Value
		}
	}
	return float64(t)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// observed is everything read around a pass, outside its timed region.
type observed struct {
	snap telemetry.Snapshot
	mem  runtime.MemStats
	rest int64
}

func observe(r rig) observed {
	var o observed
	o.snap = r.registry().Snapshot()
	o.rest = r.atRest()
	runtime.ReadMemStats(&o.mem)
	return o
}

// poolOutstanding is frames handed out and not yet recycled, summed
// over every registered frame pool.
func poolOutstanding(s telemetry.Snapshot) float64 {
	return sum(s, "framepool.", ".pooled") + sum(s, "framepool.", ".misses") - sum(s, "framepool.", ".recycled")
}

func fabricDrops(d telemetry.Snapshot) float64 {
	return sum(d, "fabric.", ".dropped_rx_full") + sum(d, "fabric.", ".injected_loss") +
		sum(d, "fabric.", ".link_down_drops") + sum(d, "fabric.", ".asym_drops")
}

// checkPass applies the run-validity checks to one finished pass.
func checkPass(probes bool, before, after observed, p *pass) error {
	d := after.snap.Diff(before.snap)
	var bad []string
	if n := fabricDrops(d); n != 0 {
		bad = append(bad, fmt.Sprintf("fabric dropped %.0f frames", n))
	}
	if n := sum(d, "", ".nic.rx_dropped"); n != 0 {
		bad = append(bad, fmt.Sprintf("nic rings dropped %.0f frames", n))
	}
	// A retransmit that is neither a legitimate window probe nor
	// explained by a host stall of RTO length is a defect.
	if n := sum(d, "", ".netstack.retransmits"); n != 0 && !probes && p.stall < int64(rtoFloor) {
		bad = append(bad, fmt.Sprintf("%.0f retransmits and no host stall of %v (longest %v; longest sample %v)",
			n, rtoFloor, time.Duration(p.stall), time.Duration(p.maxLat)))
	}
	if a, b := poolOutstanding(before.snap), poolOutstanding(after.snap); a != b {
		bad = append(bad, fmt.Sprintf("frame-pool outstanding %.0f -> %.0f", a, b))
	}
	if before.rest != after.rest {
		bad = append(bad, fmt.Sprintf("rig pool outstanding %d -> %d", before.rest, after.rest))
	}
	if len(bad) > 0 {
		return fmt.Errorf("run invalid: %s", strings.Join(bad, "; "))
	}
	return nil
}

// clockCost measures one p.clock() read, the cost every span carries
// between its two stamps.
func clockCost() float64 {
	p := &pass{t0: time.Now()}
	const n = 200000
	best := int64(1 << 62)
	for r := 0; r < 5; r++ {
		s := p.clock()
		for i := 0; i < n; i++ {
			p.clock()
		}
		if d := p.clock() - s; d < best {
			best = d
		}
	}
	return float64(best) / n
}
