package main

// Driver-side spans: one record around each call the driver makes into
// a layer (name, start, end, parent, request id), kept in a
// pre-allocated buffer so the traced pass allocates nothing, aggregated
// per name as they are recorded, and written as chrome-trace JSON only
// when -trace-out asks for it. Spans inside the program are a later
// change; these see each layer from outside, so a span around a server
// Step includes the libOS calls nested in it.

import (
	"bufio"
	"fmt"
	"os"
)

type spanID uint8

const (
	spOp spanID = iota // root: one timed sample
	spClient
	spPush
	spPop
	spTryWait
	spPollCli
	spPollSrv
	spStep
	spSubmit
	spHarvest
	spCatfishPush
	spCatfishPop
	spCatfishPoll
	numSpans
)

var spanNames = [numSpans]string{
	"op", "app.client", "core.push", "core.pop", "core.trywait",
	"core.poll_cli", "core.poll_srv", "app.step", "uring.submit",
	"uring.harvest", "catfish.push", "catfish.pop", "catfish.poll",
}

type span struct {
	id         spanID
	parent     int32 // index of the root span in the buffer, -1 for roots
	req        uint32
	start, end int64 // ns since the pass started
}

// spanBufCap bounds the spans kept for the chrome trace; the per-name
// aggregates cover every span regardless.
const spanBufCap = 1 << 18

type tracer struct {
	buf       []span
	root      int32 // index of the open root span in buf, -1 if not kept
	rootStart int64
	req       uint32
	total     [numSpans]int64
	count     [numSpans]int64

	polls, emptyPolls int64
}

func newTracer() *tracer {
	return &tracer{buf: make([]span, 0, spanBufCap), root: -1}
}

func (t *tracer) add(id spanID, start, end int64) {
	t.total[id] += end - start
	t.count[id]++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, span{id: id, parent: t.root, req: t.req, start: start, end: end})
	}
}

// open starts the root span of one sample; close ends it.
func (t *tracer) open(start int64) {
	t.req++
	t.root, t.rootStart = -1, start
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, span{id: spOp, parent: -1, req: t.req, start: start})
		t.root = int32(len(t.buf) - 1)
	}
}

func (t *tracer) close(end int64) {
	t.count[spOp]++
	t.total[spOp] += end - t.rootStart
	if t.root >= 0 {
		t.buf[t.root].end = end
	}
	t.root = -1
}

// mean is the mean duration of one span of the given name, less the
// clock-read cost every span includes (one nanotime between its two
// stamps), floored at zero.
func (t *tracer) mean(id spanID, clockNS float64) float64 {
	if t.count[id] == 0 {
		return 0
	}
	m := float64(t.total[id])/float64(t.count[id]) - clockNS
	if m < 0 {
		return 0
	}
	return m
}

// writeChrome writes the buffered spans as a chrome://tracing JSON
// array ("X" events, microsecond timestamps); the request id and the
// parent index ride in args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[\n")
	for i, s := range t.buf {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"req":%d,"parent":%d}}`,
			spanNames[s.id], float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.req, s.parent)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
