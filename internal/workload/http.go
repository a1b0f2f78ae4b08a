package workload

// HTTP workload shapes. The paper's argument is about real datacenter
// services, not echo microbenchmarks; the HTTP generator reproduces the
// load shape of a production web tier: a Zipf-popular object set, an
// open-loop arrival process (requests arrive on a schedule, they do not
// wait for earlier responses — so a stalled server grows a queue instead
// of quietly throttling the load), keep-alive connections that churn,
// and a fraction of deliberately slow readers. Everything is seeded and
// deterministic.

import (
	"fmt"
	"math"
	"math/rand"
)

// HTTPObject is one entry of the synthetic cached-object tree httpd
// serves: a path and a deterministic body.
type HTTPObject struct {
	Path string
	Body []byte
}

// HTTPObjectPath returns the canonical path of synthetic object i, the
// same naming PathSet draws from.
func HTTPObjectPath(i int) string { return fmt.Sprintf("/obj/%05d", i) }

// HTTPObjects builds n synthetic objects with sizes drawn from sizes
// and deterministic pseudo-random bodies. The rigs load these into an
// httpd.Tree and point a PathSet over the same index space at it.
func HTTPObjects(n int, sizes SizeDist, seed int64) []HTTPObject {
	r := rand.New(rand.NewSource(seed))
	objs := make([]HTTPObject, n)
	for i := range objs {
		body := make([]byte, sizes.NextSize())
		r.Read(body)
		objs[i] = HTTPObject{Path: HTTPObjectPath(i), Body: body}
	}
	return objs
}

// PathSet draws request paths over a synthetic object set with a
// pluggable popularity distribution (NewZipfKeys gives the hot-object
// skew of production CDN/web traces). Paths are materialized once, so
// drawing allocates nothing.
type PathSet struct {
	paths []string
	dist  KeyDist
}

// NewPathSet materializes the paths of an n-object tree and draws from
// them with dist (which must have Keys() == n).
func NewPathSet(n int, dist KeyDist) *PathSet {
	p := &PathSet{paths: make([]string, n), dist: dist}
	for i := range p.paths {
		p.paths[i] = HTTPObjectPath(i)
	}
	return p
}

// Next returns the next request path.
func (p *PathSet) Next() string { return p.paths[p.dist.NextKey()] }

// Paths exposes the full materialized path list (tree loading, sanity
// checks).
func (p *PathSet) Paths() []string { return p.paths }

// OpenLoop is a Poisson arrival schedule: exponential inter-arrival
// gaps around a target rate, expressed in virtual nanoseconds so the
// simulation's cost model — not wall-clock jitter — defines time. The
// caller compares Next() stamps against its virtual clock and injects
// every request whose arrival time has passed, regardless of how many
// responses are still outstanding (that is what makes the loop open).
type OpenLoop struct {
	meanGapNS float64
	nowNS     float64
	lastNS    int64
	r         *rand.Rand
}

// NewOpenLoop builds an open-loop schedule targeting ratePerSec
// arrivals per virtual second.
func NewOpenLoop(ratePerSec float64, seed int64) *OpenLoop {
	return &OpenLoop{meanGapNS: 1e9 / ratePerSec, r: rand.New(rand.NewSource(seed))}
}

// Next returns the next arrival's virtual-time stamp in nanoseconds,
// strictly increasing.
func (o *OpenLoop) Next() int64 {
	// Inverse-CDF exponential draw; clamp the log away from 0 so the
	// gap is finite.
	u := o.r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	o.nowNS += o.meanGapNS * -math.Log(u)
	ts := int64(o.nowNS)
	if ts <= o.lastNS {
		// Sub-nanosecond gap rounded away: nudge forward so stamps
		// stay strictly increasing (schedules key off ordering).
		ts = o.lastNS + 1
	}
	o.lastNS = ts
	return ts
}

// Churn decides, per completed request, whether the connection should
// be torn down and redialed — the connection-lifetime shape of
// production keep-alive traffic, where most connections are long-lived
// but a steady fraction recycles.
type Churn struct {
	p float64
	r *rand.Rand
}

// NewChurn builds a churn schedule closing a connection after any given
// request with probability p.
func NewChurn(p float64, seed int64) *Churn {
	return &Churn{p: p, r: rand.New(rand.NewSource(seed))}
}

// ShouldClose reports whether the connection retires now.
func (c *Churn) ShouldClose() bool { return c.r.Float64() < c.p }

// StallSchedule marks a fraction of readers slow: a stalled reader keeps
// issuing requests but stops harvesting responses for stallLen requests,
// which is exactly the client behavior that backs up the server's TCP
// send path (the forcing function for the zero-window fixes).
type StallSchedule struct {
	frac     float64
	stallLen int
	r        *rand.Rand
}

// NewStallSchedule builds a schedule stalling a reader with probability
// frac at each decision point, each stall lasting stallLen requests.
func NewStallSchedule(frac float64, stallLen int, seed int64) *StallSchedule {
	return &StallSchedule{frac: frac, stallLen: stallLen, r: rand.New(rand.NewSource(seed))}
}

// NextStall returns how many requests the reader should now refuse to
// harvest for (0 = not stalled).
func (s *StallSchedule) NextStall() int {
	if s.r.Float64() < s.frac {
		return s.stallLen
	}
	return 0
}

// HTTPProduction bundles the production-shaped HTTP workload the E17
// experiment, the HTTP soak and `demi-stat -rig http` drive: Zipf-popular
// paths over a bimodal object tree, Poisson open-loop arrivals, connection
// churn, and a slow reader fraction.
type HTTPProduction struct {
	Objects []HTTPObject
	Paths   *PathSet
	Arrives *OpenLoop
	Churn   *Churn
	Stalls  *StallSchedule
}

// NewHTTPProduction builds the standard production shape over n objects
// at ratePerSec virtual arrivals per second.
func NewHTTPProduction(n int, ratePerSec float64, seed int64) *HTTPProduction {
	return &HTTPProduction{
		Objects: HTTPObjects(n, NewBimodalSize(256, 8192, 0.9, seed+1), seed),
		Paths:   NewPathSet(n, NewZipfKeys(n, 1.2, seed+2)),
		Arrives: NewOpenLoop(ratePerSec, seed+3),
		Churn:   NewChurn(0.02, seed+4),
		Stalls:  NewStallSchedule(0.05, 32, seed+5),
	}
}
