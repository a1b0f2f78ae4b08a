package workload

import (
	"bytes"
	"fmt"

	"demikernel/internal/apps/httpd"
)

// Tree returns an httpd object tree serving the production's objects.
func (p *HTTPProduction) Tree() *httpd.Tree {
	tree := httpd.NewTree()
	for _, o := range p.Objects {
		tree.Add(o.Path, o.Body)
	}
	return tree
}

// lanes is how many keep-alive clients an HTTPDriver runs, dialled round
// robin over the server's shards.
const lanes = 4

// HTTPDriver drives the production shape (HTTPProduction) against an
// httpd server: keep-alive lanes, Zipf paths, a stall schedule that turns
// a lane into a slow reader whose responses pile up unread before a burst
// drain (at 16 pending at most), and connection churn. Every response
// must be a 200 carrying its object's body.
type HTTPDriver struct {
	prod   *HTTPProduction
	bodies map[string][]byte
	dial   func(shard int) (*httpd.Client, error)
	lanes  [lanes]lane
	issued int
}

// lane is one keep-alive client with the paths it awaits responses for,
// in request order.
type lane struct {
	cl        *httpd.Client
	shard     int
	pending   []string
	stallLeft int // requests left in the current stall episode
}

// NewHTTPDriver dials the lanes of prod over shards shards with dial,
// which must land a connection on the shard it is given.
func NewHTTPDriver(prod *HTTPProduction, shards int, dial func(shard int) (*httpd.Client, error)) (*HTTPDriver, error) {
	d := &HTTPDriver{prod: prod, bodies: make(map[string][]byte, len(prod.Objects)), dial: dial}
	for _, o := range prod.Objects {
		d.bodies[o.Path] = o.Body
	}
	for i := range d.lanes {
		l := &d.lanes[i]
		l.shard = i % shards
		var err error
		if l.cl, err = dial(l.shard); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Issued returns the requests sent so far.
func (d *HTTPDriver) Issued() int { return d.issued }

// Run sends n requests round robin over the lanes, then drains them all.
func (d *HTTPDriver) Run(n int) error {
	for i := 0; i < n; i++ {
		l := &d.lanes[i%lanes]
		path := d.prod.Paths.Next()
		if err := l.cl.SendRequest(path, false); err != nil {
			return fmt.Errorf("send (shard %d): %w", l.shard, err)
		}
		l.pending = append(l.pending, path)
		d.issued++
		// The stall schedule makes this lane a slow reader for a stretch of
		// requests. Every other lane reads at once, so the run cannot
		// deadlock on its own pauses.
		if l.stallLeft == 0 {
			l.stallLeft = d.prod.Stalls.NextStall()
		} else {
			l.stallLeft--
		}
		if l.stallLeft == 0 || len(l.pending) >= 16 {
			if err := d.drain(l); err != nil {
				return err
			}
			// Churn: retire a quiesced connection and redial.
			if d.prod.Churn.ShouldClose() {
				if err := d.redial(l); err != nil {
					return err
				}
			}
		}
	}
	for i := range d.lanes {
		if err := d.drain(&d.lanes[i]); err != nil {
			return err
		}
	}
	return nil
}

// Redial replaces every lane's connection, forgetting what it awaited: a
// client's move after its server's node died.
func (d *HTTPDriver) Redial() error {
	for i := range d.lanes {
		l := &d.lanes[i]
		l.pending = l.pending[:0]
		if err := d.redial(l); err != nil {
			return err
		}
	}
	return nil
}

func (d *HTTPDriver) redial(l *lane) error {
	l.cl.Close() //nolint:errcheck // the connection may be dead already
	var err error
	l.cl, err = d.dial(l.shard)
	return err
}

// drain reads every response l awaits and checks each against its path.
func (d *HTTPDriver) drain(l *lane) error {
	for ; len(l.pending) > 0; l.pending = l.pending[1:] {
		resp, err := l.cl.ReadResponse()
		if err != nil {
			return fmt.Errorf("read (shard %d): %w", l.shard, err)
		}
		if want := d.bodies[l.pending[0]]; resp.Status != 200 || !bytes.Equal(resp.Body, want) {
			return fmt.Errorf("response (shard %d): status %d, %d body bytes, want 200 and %d",
				l.shard, resp.Status, len(resp.Body), len(want))
		}
	}
	return nil
}
