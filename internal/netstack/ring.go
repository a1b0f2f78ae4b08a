package netstack

// byteRing is a byte FIFO over a circular backing array: the TCP send
// queue (bytes in [sndUna, sndUna+Len)) and the in-order receive queue.
// Dequeueing advances an index instead of moving the bytes that stay, so
// an ACK or a partial read costs the same whether 1 KiB or 256 KiB is
// queued behind it. Because the queued bytes may wrap the end of the
// array, readers get them as up to two spans.
//
// The zero value is an empty ring that owns no storage: a connection
// that never carried data never allocates any.
type byteRing struct {
	buf  []byte
	head int // index of the first queued byte
	n    int // bytes queued
}

// Len returns the number of queued bytes.
func (r *byteRing) Len() int { return r.n }

// spans returns the n queued bytes starting off bytes past the head, as
// one span or — when they wrap — two. The caller keeps off+n <= Len.
func (r *byteRing) spans(off, n int) (first, second []byte) {
	i := r.head + off
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	if end := i + n; end > len(r.buf) {
		return r.buf[i:], r.buf[:end-len(r.buf)]
	}
	return r.buf[i : i+n], nil
}

// write enqueues p. Storage grows on demand by a quarter at a time — the
// rate append grew the slices this ring replaces — and never past limit,
// the cap on Len the caller enforces anyway (sndBufMax, RxWindow).
func (r *byteRing) write(p []byte, limit int) {
	if need := r.n + len(p); need > len(r.buf) {
		buf := make([]byte, min(max(need, len(r.buf)+len(r.buf)/4), limit))
		first, second := r.spans(0, r.n)
		copy(buf[copy(buf, first):], second)
		r.buf, r.head = buf, 0
	}
	first, second := r.spans(r.n, len(p))
	copy(second, p[copy(first, p):])
	r.n += len(p)
}

// discard drops the first n queued bytes.
func (r *byteRing) discard(n int) {
	r.n -= n
	if r.n == 0 {
		r.head = 0 // start over unwrapped: the common case stays one span
		return
	}
	r.head += n
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
}
