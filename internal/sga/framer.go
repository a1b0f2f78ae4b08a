package sga

// Framer incrementally reassembles framed SGAs from a byte stream that may
// be delivered in arbitrary fragments (as TCP does). It is the receiving
// half of the §5.2 framing: "the libOS could insert the needed framing
// itself (e.g., atop a TCP stream); however, the other end must be able to
// correctly parse the framing and recreate the scatter-gather array."
//
// A Framer is not safe for concurrent use; each connection owns one.
type Framer struct {
	// buf[head:] is the stream not yet decoded. Next only advances head;
	// the undecoded remainder moves to the front once per feed, in Buffer,
	// so decoding k frames out of one feed moves no bytes at all rather
	// than the whole remainder k times.
	buf  []byte
	head int
	// segScratch is reused segment-header storage for decoding: the
	// decoded SGA only lives until clone copies it out, so one scratch
	// slice serves every frame and the steady-state pop path stops
	// allocating a []Segment per message.
	segScratch []Segment
	// decoded counts complete SGAs produced, for stats and tests.
	decoded int64
	// clone, when set, copies a decoded SGA out of the reassembly
	// buffer in place of the default SGA.Clone. LibOSes use it to copy
	// into pooled storage so the pop path recycles instead of
	// allocating. The input SGA aliases the framer's internal buffer;
	// the returned SGA must not.
	clone func(SGA) SGA
}

// SetClone overrides how decoded SGAs are copied out of the reassembly
// buffer (default: SGA.Clone). The function receives an SGA aliasing the
// framer's internal buffer and must return a deep copy.
func (f *Framer) SetClone(fn func(SGA) SGA) { f.clone = fn }

// Feed appends stream bytes to the framer's reassembly buffer.
func (f *Framer) Feed(b []byte) {
	f.Commit(append(f.Buffer(), b...))
}

// Buffer returns the reassembly buffer for a producer that can append
// stream bytes to it directly — one copy fewer than staging them in a
// buffer of its own and calling Feed. The result of the append must be
// handed back with Commit before any other call on the framer.
func (f *Framer) Buffer() []byte {
	if f.head > 0 {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	return f.buf
}

// Commit adopts b, the slice Buffer returned with stream bytes appended,
// as the reassembly buffer.
func (f *Framer) Commit(b []byte) { f.buf = b }

// Next returns the next complete SGA from the reassembly buffer, or
// ok=false if no complete frame has arrived yet. The returned SGA owns
// fresh copies of its segments, so the caller may retain them while the
// framer keeps reusing its internal buffer. A corrupt frame returns a
// non-nil error; the framer is then poisoned and every later call returns
// the same error (a stream with corrupt framing cannot be re-synchronised,
// matching TCP stream semantics).
func (f *Framer) Next() (SGA, bool, error) {
	s, n, err := UnmarshalInto(f.buf[f.head:], f.segScratch)
	if err == ErrShortBuffer {
		return SGA{}, false, nil
	}
	if err != nil {
		return SGA{}, false, err
	}
	f.segScratch = s.Segments[:0]
	// Copy out so the internal buffer can be reused safely.
	var out SGA
	if f.clone != nil {
		out = f.clone(s)
	} else {
		out = s.Clone()
	}
	f.head += n
	f.decoded++
	return out, true, nil
}

// Pending returns the number of buffered, not-yet-decoded bytes.
func (f *Framer) Pending() int { return len(f.buf) - f.head }

// Decoded returns the number of complete SGAs produced so far.
func (f *Framer) Decoded() int64 { return f.decoded }

// HasCompleteFrame reports whether a full frame is buffered, without
// consuming it. This models the §3.2 observation: with an atomic-unit
// abstraction, the application asks "is a whole request ready?" instead of
// re-parsing a stream prefix.
func (f *Framer) HasCompleteFrame() bool {
	_, _, err := Unmarshal(f.buf[f.head:])
	return err == nil
}
