// Package sga implements scatter-gather arrays, the atomic unit of I/O in
// the Demikernel queue abstraction (§4.2, §4.3 of the paper).
//
// A scatter-gather array (SGA) is an ordered list of byte segments that is
// pushed into and popped out of Demikernel I/O queues as a single unit: "a
// scatter-gather array pushed into a Demikernel queue always pops out as a
// single element". The package also provides the wire framing a libOS
// inserts when carrying SGAs over a byte-stream transport such as TCP
// (§5.2), including an incremental decoder that tolerates arbitrary
// fragmentation of the underlying stream.
package sga

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Limits on a well-formed SGA. These mirror the fixed bounds a hardware
// descriptor format would impose while staying far above what the
// experiments need.
const (
	// MaxSegments is the maximum number of segments in one SGA.
	MaxSegments = 256
	// MaxSegmentLen is the maximum length of one segment in bytes.
	MaxSegmentLen = 1 << 24
	// MaxTotalLen is the maximum total payload of one SGA in bytes.
	MaxTotalLen = 1 << 26
)

// Errors returned by unmarshalling.
var (
	ErrShortBuffer  = errors.New("sga: short buffer")
	ErrCorruptFrame = errors.New("sga: corrupt frame")
)

// Segment is one contiguous run of bytes in a scatter-gather array.
type Segment struct {
	Buf []byte
}

// SGA is a scatter-gather array: the atomic queue element of the
// Demikernel I/O abstraction. The zero value is an empty, valid SGA.
//
// An SGA popped from a libOS queue may own device buffers; Free returns
// them to the owning pool. Freeing is idempotent and freeing an
// SGA the application built itself is a no-op.
type SGA struct {
	Segments []Segment
	// Reg is an opaque token the libOS attaches when the SGA's memory is
	// its own, already registered with a kernel-bypass device (§4.5): a
	// transport holds the memory by it while a push of the SGA is queued.
	// Application code never inspects it.
	Reg  any
	free func()
}

// New builds an SGA over the given segments without copying them.
func New(segs ...[]byte) SGA {
	s := SGA{Segments: make([]Segment, len(segs))}
	for i, b := range segs {
		s.Segments[i] = Segment{Buf: b}
	}
	return s
}

// WithFree returns a copy of s that invokes fn exactly once when freed.
// Libraries allocating device memory for an SGA use this to attach the
// release of that memory (free-protection is the pool's job; see
// fabric.FrameBuf).
func (s SGA) WithFree(fn func()) SGA {
	s.free = fn
	return s
}

// Free releases any libOS-owned buffers behind the SGA. It is safe to call
// on the zero value and safe to call more than once, on this variable or
// on another copy of the SGA: a pool-backed SGA counts a second Free and
// ignores it. What cannot be told apart is a stale copy freed after its
// buffer was handed out again; that Free releases the new owner's buffer.
func (s *SGA) Free() {
	if s.free != nil {
		fn := s.free
		s.free = nil
		fn()
	}
}

// Len returns the total payload length in bytes.
func (s SGA) Len() int {
	n := 0
	for _, seg := range s.Segments {
		n += len(seg.Buf)
	}
	return n
}

// NumSegments returns the number of segments.
func (s SGA) NumSegments() int { return len(s.Segments) }

// Bytes flattens the SGA into one newly allocated contiguous buffer.
// It is intended for tests and small control-path uses; data-path code
// should iterate segments to stay zero-copy.
func (s SGA) Bytes() []byte {
	out := make([]byte, 0, s.Len())
	for _, seg := range s.Segments {
		out = append(out, seg.Buf...)
	}
	return out
}

// Clone returns a deep copy of the SGA with freshly allocated segments and
// no free hook.
func (s SGA) Clone() SGA {
	c := SGA{Segments: make([]Segment, len(s.Segments))}
	for i, seg := range s.Segments {
		b := make([]byte, len(seg.Buf))
		copy(b, seg.Buf)
		c.Segments[i] = Segment{Buf: b}
	}
	return c
}

// Equal reports whether two SGAs carry the same payload bytes with the
// same segmentation.
func (s SGA) Equal(o SGA) bool {
	if len(s.Segments) != len(o.Segments) {
		return false
	}
	for i := range s.Segments {
		if !bytes.Equal(s.Segments[i].Buf, o.Segments[i].Buf) {
			return false
		}
	}
	return true
}

// String summarises the SGA for debugging.
func (s SGA) String() string {
	return fmt.Sprintf("sga{%d segs, %d bytes}", len(s.Segments), s.Len())
}

// Wire framing (§5.2): when a libOS carries SGAs over a byte stream it
// must insert framing so the receiver can reconstruct the scatter-gather
// boundaries. The frame layout is:
//
//	u32  payloadLen  total bytes of all segments
//	u32  numSegments
//	then per segment: u32 segLen, segLen bytes
//
// All integers are big-endian.

// headerLen is the fixed frame header size.
const headerLen = 8

// MarshalledSize returns the number of bytes Marshal will produce.
func (s SGA) MarshalledSize() int {
	return headerLen + 4*len(s.Segments) + s.Len()
}

// AppendMarshal appends the wire encoding of s to dst and returns the
// extended slice.
func (s SGA) AppendMarshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.Len()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Segments)))
	for _, seg := range s.Segments {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(seg.Buf)))
		dst = append(dst, seg.Buf...)
	}
	return dst
}

// Marshal returns the wire encoding of s.
func (s SGA) Marshal() []byte {
	return s.AppendMarshal(make([]byte, 0, s.MarshalledSize()))
}

// WirePiece returns the longest contiguous run of s's wire encoding that
// starts at byte off of it — the rest of the frame header joined to the
// first length prefix, the rest of a later prefix, or the rest of a
// segment, which is returned where it lies — and nil once off is the
// encoding's end. Header and prefixes are written into scratch. A sender
// that copies piece after piece into a bounded buffer, resuming at the byte
// count it got to, transmits Marshal's bytes without staging them.
func (s SGA) WirePiece(off int, scratch *[headerLen + 4]byte) []byte {
	pre := scratch[:0]
	if off < headerLen {
		pre = binary.BigEndian.AppendUint32(pre, uint32(s.Len()))
		pre = binary.BigEndian.AppendUint32(pre, uint32(len(s.Segments)))
	} else {
		off -= headerLen
	}
	for _, seg := range s.Segments {
		pre = binary.BigEndian.AppendUint32(pre, uint32(len(seg.Buf)))
		if off < len(pre) {
			return pre[off:]
		}
		off -= len(pre)
		if off < len(seg.Buf) {
			return seg.Buf[off:]
		}
		off -= len(seg.Buf)
		pre = scratch[:0]
	}
	if off < len(pre) {
		return pre[off:] // no segments: the header is all there is
	}
	return nil
}

// Unmarshal decodes one framed SGA from the front of b. It returns the
// decoded SGA and the number of bytes consumed. The returned SGA's
// segments alias b. If b does not yet hold a complete frame, Unmarshal
// returns ErrShortBuffer (stream reassembly is Framer's job: it decodes as
// the bytes arrive instead of waiting for a whole frame).
func Unmarshal(b []byte) (SGA, int, error) {
	return UnmarshalInto(b, nil)
}

// UnmarshalInto is Unmarshal with caller-provided segment storage: the
// decoded segment headers are appended to segs[:0], so a caller that
// decodes in a loop reuses one scratch slice instead of allocating per
// frame. The returned SGA's Segments alias segs's
// backing array (grown if needed) and its Bufs alias b.
func UnmarshalInto(b []byte, segs []Segment) (SGA, int, error) {
	if len(b) < headerLen {
		return SGA{}, 0, ErrShortBuffer
	}
	payloadLen := binary.BigEndian.Uint32(b[0:4])
	numSegs := binary.BigEndian.Uint32(b[4:8])
	if payloadLen > MaxTotalLen {
		return SGA{}, 0, fmt.Errorf("%w: payload %d", ErrCorruptFrame, payloadLen)
	}
	if numSegs > MaxSegments {
		return SGA{}, 0, fmt.Errorf("%w: %d segments", ErrCorruptFrame, numSegs)
	}
	need := headerLen + int(numSegs)*4 + int(payloadLen)
	if len(b) < need {
		return SGA{}, 0, ErrShortBuffer
	}
	segs = segs[:0]
	off := headerLen
	remaining := int(payloadLen)
	for i := 0; i < int(numSegs); i++ {
		segLen := int(binary.BigEndian.Uint32(b[off : off+4]))
		off += 4
		if segLen > remaining || segLen > MaxSegmentLen {
			return SGA{}, 0, fmt.Errorf("%w: segment %d length %d", ErrCorruptFrame, i, segLen)
		}
		segs = append(segs, Segment{Buf: b[off : off+segLen : off+segLen]})
		off += segLen
		remaining -= segLen
	}
	if remaining != 0 {
		return SGA{}, 0, fmt.Errorf("%w: %d unaccounted payload bytes", ErrCorruptFrame, remaining)
	}
	return SGA{Segments: segs}, off, nil
}
