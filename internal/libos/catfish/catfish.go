// Package catfish is the storage library OS: it implements Demikernel
// file queues over the simulated SPDK NVMe device, using the
// accelerator-specific log-structured layout of §5.3 (package spdk's
// blob store) instead of a general-purpose UNIX file system.
//
// A file queue is an append-only record stream: push durably appends one
// scatter-gather array; pop returns the next unread one. Records keep
// their segmentation via the standard SGA framing, so "a scatter-gather
// array pushed into a Demikernel queue always pops out as a single
// element" holds across the storage path and across restarts. The queue
// is queue.FileQueue, which catnap's file queues are too; catfish gives
// it only the layout: each path is one blob file, every device call
// inside the transient-failure retry loop. That loop retries at once: the
// device recovers by commands, not by time, so nothing in a push or pop
// sleeps. Every operation it retries is idempotent: a blob append, a
// record read, the recovery scan and BuildIndex.
package catfish

import (
	"errors"
	"sync/atomic"

	"demikernel/internal/core"
	"demikernel/internal/fabric"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
	"demikernel/internal/telemetry"
)

// DefaultMaxRetries bounds the retries of one operation. Injected media
// errors (spdk.ErrIO) and controller resets (spdk.ErrDeviceReset) are
// absorbed by the libOS: the application's qtoken only fails once the
// budget is spent.
const DefaultMaxRetries = 8

// Transport is the catfish libOS transport.
type Transport struct {
	model *simclock.CostModel
	dev   *spdk.Device
	store *spdk.Store
	// pool backs AllocSGA and lookup values: the transport's own, so that
	// its Outstanding is this transport's buffers alone.
	pool *fabric.FramePool

	// files is the file queues' paths, one blob file each.
	files queue.Files

	retries atomic.Int64 // transient failures absorbed by the retry loop
}

// New opens (recovering if necessary) a catfish instance on dev. The
// recovery scan itself runs under the transient-failure retry loop: a
// controller reset mid-scan is a retried open, never a silently
// truncated log.
func New(model *simclock.CostModel, dev *spdk.Device) (*Transport, error) {
	t := &Transport{model: model, dev: dev, pool: fabric.NewFramePool()}
	_, err := t.retry(func() (simclock.Lat, error) {
		var c simclock.Lat
		var e error
		t.store, c, e = spdk.NewStore(dev)
		return c, e
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Retries reports how many transient device failures the retry loop has
// absorbed.
func (t *Transport) Retries() int64 { return t.retries.Load() }

// transient reports whether err is worth retrying: controller resets
// clear after the controller re-initialises, injected media errors are
// probabilistic.
func transient(err error) bool {
	return errors.Is(err, spdk.ErrDeviceReset) || errors.Is(err, spdk.ErrIO)
}

// retry runs op, and runs it again at once while it fails transiently, up
// to DefaultMaxRetries times. Waiting would buy nothing: the simulated
// controller recovers by commands (each one it fails while re-initialising
// counts down its reset), not by time. Every op is idempotent on failure:
// the blob layer's tail only advances after a fully successful append, a
// read moves nothing, and BuildIndex reuses the regions its first attempt
// allocated. The accumulated virtual cost of every attempt is returned —
// failed device commands still spent device time.
func (t *Transport) retry(op func() (simclock.Lat, error)) (simclock.Lat, error) {
	var total simclock.Lat
	for attempt := 0; ; attempt++ {
		cost, err := op()
		total += cost
		if err == nil || !transient(err) || attempt >= DefaultMaxRetries {
			return total, err
		}
		t.retries.Add(1)
	}
}

// Name implements core.Transport.
func (t *Transport) Name() string { return "catfish" }

// Features implements core.Transport.
func (t *Transport) Features() core.Features {
	return core.Features{
		KernelBypass: true,
		SoftwareSupplied: []string{
			"log-structured record layout", "naming", "sga framing",
		},
	}
}

// Device exposes the NVMe device (for stats).
func (t *Transport) Device() *spdk.Device { return t.dev }

// RegisterTelemetry lifts the transport's counters — the retry-loop
// absorption count, the SGA buffer pool's, and the NVMe device's
// (including its pushdown engine) — into a telemetry registry under
// prefix.
func (t *Transport) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	t.dev.RegisterTelemetry(r, prefix+".nvme")
	t.pool.RegisterTelemetry(r, prefix+".pool")
	r.RegisterFunc(prefix+".retries", t.Retries)
}

// Store exposes the blob store (for recovery tests).
func (t *Transport) Store() *spdk.Store { return t.store }

// Pool exposes the SGA buffer pool (for leak asserts).
func (t *Transport) Pool() *fabric.FramePool { return t.pool }

// AllocSGA implements core.Transport: buffers come from the transport's
// frame pool and return to it through the SGA's free hook. The libOS frees a
// pushed SGA once its record is durably appended (the marshalled copy is
// on media); applications free popped SGAs when done with them.
func (t *Transport) AllocSGA(n int) sga.SGA { return t.pool.SGA(n) }

// Socket implements core.Transport; catfish has no network path.
func (t *Transport) Socket() (core.Endpoint, error) {
	return nil, core.ErrNotSupported
}

// SocketUDP implements core.Transport; this libOS has no datagram path.
func (t *Transport) SocketUDP() (core.Endpoint, error) {
	return nil, core.ErrNotSupported
}

// Open implements core.Transport: it returns a file queue over the named
// record stream. Reads resume from the first record (a fresh cursor per
// open).
func (t *Transport) Open(path string) (queue.IoQueue, error) {
	return t.files.Open(path, func() (queue.Log, error) {
		var f *spdk.File
		_, err := t.retry(func() (c simclock.Lat, err error) { f, c, err = t.store.Open(path); return c, err })
		return blobLog{t: t, f: f}, err
	})
}

// Poll implements core.Transport: pump the device, driving in-flight
// pushdown traversals one hop per tick, each finished lookup answering
// its Pop. No poll visits a file queue: a push
// pumps every queue open on its path.
func (t *Transport) Poll() int { return t.dev.Pump() }

// blobLog is one blob file as a queue.Log, each device call inside the
// transient-failure retry loop.
type blobLog struct {
	t *Transport
	f *spdk.File
}

// Append implements queue.Log: a durable append, retried while the device
// fails transiently; the cost covers every attempt.
func (l blobLog) Append(rec []byte) (simclock.Lat, error) {
	return l.t.retry(func() (simclock.Lat, error) { return l.f.Append(rec) })
}

// Len implements queue.Log.
func (l blobLog) Len() int { return l.f.NumRecords() }

// Read implements queue.Log, retried as Append is.
func (l blobLog) Read(i int) ([]byte, simclock.Lat, error) {
	var rec []byte
	cost, err := l.t.retry(func() (c simclock.Lat, err error) { rec, c, err = l.f.Read(i); return c, err })
	return rec, cost, err
}
