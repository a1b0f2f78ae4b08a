package sga

import (
	"encoding/binary"
	"fmt"
)

// Framer decodes framed SGAs from a byte stream delivered in arbitrary
// fragments (as TCP does). It is the receiving half of the §5.2 framing:
// "the libOS could insert the needed framing itself (e.g., atop a TCP
// stream); however, the other end must be able to correctly parse the
// framing and recreate the scatter-gather array."
//
// It is a streaming decoder: Write reads the 8-byte frame header, takes one
// buffer for that frame's payload, and copies segment bytes from the stream
// straight to their final place in it, dropping the length prefixes on the
// way. Nothing is staged: a payload byte is copied once, from wherever the
// caller's stream bytes lie into the buffer the application gets.
//
// Its states, for a frame of numSegs segments: header (gathering 8 bytes)
// → for each segment, prefix (gathering 4 bytes) → body (copying segLeft
// bytes) → complete, the moment no prefix and no byte is outstanding —
// which for a frame without segments is the header's last byte, and for an
// empty segment its prefix's. What UnmarshalInto rejects, Write rejects at
// the byte that shows it, and a rejected stream stays rejected.
//
// What a peer can make the decoder hold is proportional to what it sent:
// the buffer is taken for min(payloadLen, 2 × bytes at hand) — the whole
// payload once half of it has arrived, and at once when it is no more than
// eagerLen — and regrown, by at least doubling, only for a larger frame that
// arrives in smaller pieces. A header claiming MaxTotalLen pins eagerLen.
//
// A Framer is not safe for concurrent use; each connection owns one.
type Framer struct {
	alloc FrameAlloc

	// scratch gathers the header or length prefix being read, have bytes so
	// far; both are read from it even when they arrive whole.
	scratch [headerLen]byte
	have    int

	inFrame    bool
	payloadLen int // the header's claim
	remaining  int // payload bytes no prefix has claimed yet
	segsLeft   int // prefixes still to read
	segLeft    int // bytes of the current segment still to copy

	// buf[:len(buf)] is the payload so far, segs sub-slices of it (the last
	// one still growing while segLeft > 0); free releases both, and reg is
	// the allocator's token for them (SGA.Reg).
	buf  []byte
	segs []Segment
	free func()
	reg  any

	err     error
	decoded int64
}

// eagerLen is the payload size up to which a frame gets its whole buffer on
// its header alone: small against what a connection holds anyway (its TCP
// rings), and it spares the common messages a regrow when their first bytes
// arrive a few at a time.
const eagerLen = 16 << 10

// FrameAlloc supplies the storage of one frame: a payload buffer of at
// least n bytes (n may be 0; capacity past n is the decoder's to use too),
// empty segment storage to append to (nil is fine), the hook that releases
// both, which becomes the decoded SGA's Free (nil: garbage collected), and
// the token that becomes its Reg (nil: none) — what a transport the SGA is
// pushed into holds the storage by while the push is queued. The decoder
// calls it once per frame, and again — releasing the earlier storage once
// the bytes have moved — when a frame outgrows what it was given.
type FrameAlloc func(n int) (buf []byte, segs []Segment, free func(), reg any)

// SetAlloc makes fn the source of frame storage (default: the heap). It
// takes effect from the next frame or regrow.
func (f *Framer) SetAlloc(fn FrameAlloc) { f.alloc = fn }

// Write decodes from p, the next bytes of the stream, up to the end of one
// frame: it returns how many bytes of p it consumed and, with ok, the SGA
// they completed. Without ok it consumed all of p. avail is how many stream
// bytes the caller has at hand, p's included (more when p is the first of
// two spans); it only sizes the frame's buffer. The SGA
// owns its storage — Free returns it to the allocator. A corrupt frame
// returns an error wrapping ErrCorruptFrame; the framer is then poisoned
// and every later call returns the same error (a stream with corrupt
// framing cannot be re-synchronised, matching TCP stream semantics).
func (f *Framer) Write(p []byte, avail int) (n int, s SGA, ok bool, err error) {
	if f.err != nil {
		return 0, SGA{}, false, f.err
	}
	for {
		switch {
		case !f.inFrame:
			k, whole := f.gather(p[n:], headerLen)
			if n += k; !whole {
				return n, SGA{}, false, nil
			}
			payloadLen := binary.BigEndian.Uint32(f.scratch[0:4])
			numSegs := binary.BigEndian.Uint32(f.scratch[4:8])
			if payloadLen > MaxTotalLen {
				return n, SGA{}, false, f.poison("payload %d", payloadLen)
			}
			if numSegs > MaxSegments {
				return n, SGA{}, false, f.poison("%d segments", numSegs)
			}
			f.inFrame = true
			f.payloadLen, f.remaining, f.segsLeft = int(payloadLen), int(payloadLen), int(numSegs)
			f.grow(avail - n)
		case f.segLeft > 0:
			k := min(f.segLeft, len(p)-n)
			if k == 0 {
				return n, SGA{}, false, nil
			}
			if len(f.buf)+k > cap(f.buf) {
				f.grow(avail - n)
			}
			last := &f.segs[len(f.segs)-1]
			start := len(f.buf) - len(last.Buf)
			f.buf = append(f.buf, p[n:n+k]...)
			last.Buf = f.buf[start:len(f.buf):len(f.buf)]
			n += k
			f.segLeft -= k
		case f.segsLeft > 0:
			k, whole := f.gather(p[n:], 4)
			if n += k; !whole {
				return n, SGA{}, false, nil
			}
			segLen := int(binary.BigEndian.Uint32(f.scratch[0:4]))
			if segLen > f.remaining || segLen > MaxSegmentLen {
				return n, SGA{}, false, f.poison("segment %d length %d", len(f.segs), segLen)
			}
			f.segsLeft--
			f.remaining -= segLen
			f.segLeft = segLen
			end := len(f.buf)
			f.segs = append(f.segs, Segment{Buf: f.buf[end:end:end]})
		default:
			if f.remaining != 0 {
				return n, SGA{}, false, f.poison("%d unaccounted payload bytes", f.remaining)
			}
			s = SGA{Segments: f.segs, Reg: f.reg, free: f.free}
			f.inFrame, f.buf, f.segs, f.free, f.reg = false, nil, nil, nil, nil
			f.decoded++
			return n, s, true, nil
		}
	}
}

// gather moves bytes of p into scratch until it holds want of them, and
// reports how many it took and whether that completed the field.
func (f *Framer) gather(p []byte, want int) (int, bool) {
	k := copy(f.scratch[f.have:want], p)
	if f.have += k; f.have < want {
		return k, false
	}
	f.have = 0
	return k, true
}

// grow gives the frame in progress a buffer for its payload so far plus
// the ahead stream bytes at hand, doubled — eagerLen at least, the whole
// payload at most — moving what was decoded already and releasing the
// storage it was in.
func (f *Framer) grow(ahead int) {
	n := min(f.payloadLen, max(2*(len(f.buf)+ahead), eagerLen))
	var (
		buf  []byte
		segs []Segment
		free func()
		reg  any
	)
	if f.alloc != nil {
		buf, segs, free, reg = f.alloc(n)
	} else {
		buf = make([]byte, n)
	}
	buf = append(buf[:0], f.buf...)
	off := 0
	for _, seg := range f.segs {
		end := off + len(seg.Buf)
		segs = append(segs, Segment{Buf: buf[off:end:end]})
		off = end
	}
	if f.free != nil {
		f.free()
	}
	f.buf, f.segs, f.free, f.reg = buf, segs, free, reg
}

// poison rejects the stream from here on and gives back the partial
// frame's storage.
func (f *Framer) poison(format string, args ...any) error {
	f.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptFrame}, args...)...)
	if f.free != nil {
		f.free()
	}
	f.buf, f.segs, f.free, f.reg = nil, nil, nil, nil
	return f.err
}

// Err returns the error that poisoned the stream, if one did.
func (f *Framer) Err() error { return f.err }

// Reset drops the frame in progress, giving its storage back, and leaves f
// empty: what the owner of a connection that will be read no more calls.
func (f *Framer) Reset() {
	if f.free != nil {
		f.free()
	}
	*f = Framer{}
}
