package sga

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// feed writes p to fr in one piece, calling Write again after every frame,
// and returns the SGAs decoded and the bytes consumed (all of p, short of
// an error).
func feed(fr *Framer, p []byte) (got []SGA, n int, err error) {
	for n < len(p) {
		k, s, ok, err := fr.Write(p[n:], len(p)-n)
		n += k
		if err != nil {
			return got, n, err
		}
		if ok {
			got = append(got, s)
		}
	}
	return got, n, nil
}

// oracle decodes a stream with Unmarshal, the whole-buffer decoder Write is
// held to: the frames it holds, and what Unmarshal says of the rest (nil
// at a clean end, ErrShortBuffer for a partial frame, or the corruption).
func oracle(stream []byte) (frames []SGA, rest []byte, err error) {
	for len(stream) > 0 {
		s, n, err := Unmarshal(stream)
		if err != nil {
			return frames, stream, err
		}
		frames = append(frames, s)
		stream = stream[n:]
	}
	return frames, nil, nil
}

func marshalAll(frames ...SGA) []byte {
	var stream []byte
	for _, f := range frames {
		stream = f.AppendMarshal(stream)
	}
	return stream
}

func sameFrames(t *testing.T, what string, got, want []SGA) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: frame %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestFramerReassembly(t *testing.T) {
	// Three frames delivered in pathological fragmentation.
	frames := []SGA{
		New([]byte("first")),
		New([]byte("second"), []byte("frame")),
		New(nil, []byte("third")),
	}
	stream := marshalAll(frames...)
	var fr Framer
	var got []SGA
	for i := range stream { // byte-at-a-time delivery
		s, n, err := feed(&fr, stream[i:i+1])
		if err != nil || n != 1 {
			t.Fatalf("byte %d: consumed %d, %v", i, n, err)
		}
		got = append(got, s...)
	}
	sameFrames(t, "byte at a time", got, frames)
	if fr.inFrame || fr.have != 0 {
		t.Fatal("stray bytes pending after the last frame")
	}
	if fr.decoded != int64(len(frames)) {
		t.Fatalf("decoded = %d, want %d", fr.decoded, len(frames))
	}
}

func TestFramerPoisonedByCorruption(t *testing.T) {
	b := New([]byte("abcd")).Marshal()
	b[0] = 0xFF // absurd length
	var fr Framer
	if _, _, err := feed(&fr, b); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want ErrCorruptFrame, got %v", err)
	}
	if n, _, ok, err := fr.Write(New([]byte("fine")).Marshal(), 16); n != 0 || ok || !errors.Is(err, ErrCorruptFrame) || err != fr.Err() {
		t.Fatalf("framer should stay poisoned: consumed %d, ok %v, %v", n, ok, err)
	}
}

// TestFramerHasCompleteFrame: the atomic-unit question of §3.2, "is a whole
// request ready?", is Write's ok — false for every prefix of a frame, true
// with its last byte and not before. (Restated: the framer used to buffer
// the stream and answer this by re-parsing it without consuming; it holds no
// stream bytes now, so there is nothing to detect ahead of decoding.)
func TestFramerHasCompleteFrame(t *testing.T) {
	s := New([]byte("payload"))
	b := s.Marshal()
	var fr Framer
	if n, _, ok, err := fr.Write(b[:len(b)-1], len(b)-1); ok || err != nil || n != len(b)-1 {
		t.Fatalf("incomplete frame: consumed %d, complete %v, %v", n, ok, err)
	}
	got, n, err := feed(&fr, b[len(b)-1:])
	if err != nil || n != 1 || len(got) != 1 || !got[0].Equal(s) {
		t.Fatalf("last byte: consumed %d, %d frames, %v", n, len(got), err)
	}
}

// TestFramerDirectAppend: a producer shows Write its own buffer (as catnip's
// receive drain does with the receive ring's spans). Write stops at each
// frame's end, so pipelined frames come out one per call with n marking the
// boundary, a frame split across two buffers carries over, and the decoded
// SGAs own their bytes. (Restated: the reassembly buffer the producer used
// to append onto, and the cursor that walked it, are gone.)
func TestFramerDirectAppend(t *testing.T) {
	frames := []SGA{New([]byte("first")), New([]byte("second"), []byte("seg")), New(bytes.Repeat([]byte{7}, 300))}
	stream := marshalAll(frames...)
	cut := len(stream) - 100 // the third frame arrives in two pieces

	var fr Framer
	first := append([]byte(nil), stream[:cut]...)
	off := 0
	var got []SGA
	for i, want := range frames[:2] {
		n, s, ok, err := fr.Write(first[off:], len(first)-off)
		if err != nil || !ok || n != want.MarshalledSize() {
			t.Fatalf("frame %d: consumed %d of its %d bytes, ok=%v err=%v", i, n, want.MarshalledSize(), ok, err)
		}
		off += n
		got = append(got, s)
	}
	if n, _, ok, err := fr.Write(first[off:], len(first)-off); ok || err != nil || off+n != cut {
		t.Fatalf("partial third frame: consumed %d, ok=%v err=%v", n, ok, err)
	}
	clear(first) // the producer reuses its buffer: nothing decoded may alias it
	rest, n, err := feed(&fr, stream[cut:])
	if err != nil || n != 100 {
		t.Fatalf("split frame: consumed %d, %v", n, err)
	}
	sameFrames(t, "pipelined", append(got, rest...), frames)
	if fr.decoded != 3 {
		t.Fatalf("decoded=%d after the stream ended", fr.decoded)
	}
}

func TestPropFramerArbitraryFragmentation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		frames := make([]SGA, n)
		for i := range frames {
			frames[i] = randomSGA(r)
		}
		stream := marshalAll(frames...)
		var fr Framer
		var got []SGA
		for len(stream) > 0 {
			k := 1 + r.Intn(len(stream))
			s, _, err := feed(&fr, stream[:k])
			if err != nil {
				return false
			}
			got = append(got, s...)
			stream = stream[k:]
		}
		if len(got) != n {
			return false
		}
		for i := range frames {
			if !got[i].Equal(frames[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFramerMatchesUnmarshal holds Write to Unmarshal on well-formed
// streams: random SGAs — none, one, a few and MaxSegments segments, empty
// segments, the empty SGA — concatenated and fed split in two at every
// byte, and one byte at a time, decode to what the oracle decodes, with the
// consumed counts summing to the stream's length.
func TestFramerMatchesUnmarshal(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	wide := make([][]byte, MaxSegments)
	for i := range wide {
		wide[i] = make([]byte, r.Intn(4))
		r.Read(wide[i])
	}
	frames := []SGA{{}, New(nil), New(nil, nil, []byte("x"), nil), New(wide...), {}, New([]byte{})}
	for i := 0; i < 6; i++ {
		frames = append(frames, randomSGA(r))
	}
	r.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	stream := marshalAll(frames...)
	want, rest, err := oracle(stream)
	if err != nil || len(rest) != 0 || len(want) != len(frames) {
		t.Fatalf("oracle: %d frames, %d bytes left, %v", len(want), len(rest), err)
	}
	for cut := 0; cut <= len(stream); cut++ {
		var fr Framer
		a, na, err := feed(&fr, stream[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		b, nb, err := feed(&fr, stream[cut:])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if na+nb != len(stream) {
			t.Fatalf("cut %d: consumed %d+%d of %d bytes", cut, na, nb, len(stream))
		}
		sameFrames(t, fmt.Sprint("cut ", cut), append(a, b...), want)
	}
	var fr Framer
	var got []SGA
	for i := range stream {
		s, n, err := feed(&fr, stream[i:i+1])
		if err != nil || n != 1 {
			t.Fatalf("byte %d: consumed %d, %v", i, n, err)
		}
		got = append(got, s...)
	}
	sameFrames(t, "byte at a time", got, want)
}

func header(payloadLen, numSegs uint32) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, payloadLen), numSegs)
}

func prefix(b []byte, segLen uint32) []byte { return binary.BigEndian.AppendUint32(b, segLen) }

// TestFramerRejectsWhatUnmarshalRejects: each class of frame UnmarshalInto
// calls corrupt poisons the stream with ErrCorruptFrame, at the byte that
// completes the field at fault — not before, fed whole or a byte at a time —
// and the error sticks. Where the whole frame is small enough to build,
// Unmarshal is asked too.
func TestFramerRejectsWhatUnmarshalRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
		at     int  // bytes consumed when the error shows
		whole  bool // stream holds the whole frame: Unmarshal must reject it too
	}{
		{"payload past MaxTotalLen", append(header(MaxTotalLen+1, 1), 0, 0, 0, 0), 8, true},
		{"segments past MaxSegments", append(header(0, MaxSegments+1), 0, 0, 0, 0), 8, true},
		{"segment longer than the payload left", append(prefix(prefix(append(prefix(header(5, 3), 3), "abc"...), 3), 0), "xyz"...), 19, true},
		{"segment past MaxSegmentLen", prefix(header(2*MaxSegmentLen, 2), MaxSegmentLen+1), 12, false},
		{"payload no segment accounts for", append(prefix(header(5, 1), 3), "abcde"...), 15, true},
		{"payload without segments", append(header(1, 0), 'a'), 8, true},
		{"empty segments short of the payload", append(prefix(prefix(header(1, 2), 0), 0), 'a'), 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.whole {
				if _, _, err := Unmarshal(tc.stream); !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("Unmarshal: %v, want ErrCorruptFrame", err)
				}
			}
			var fr Framer
			good := New([]byte("before")).Marshal()
			if got, _, err := feed(&fr, good); err != nil || len(got) != 1 {
				t.Fatalf("the frame before: %v", err)
			}
			_, n, err := feed(&fr, tc.stream)
			if !errors.Is(err, ErrCorruptFrame) || n != tc.at {
				t.Fatalf("fed whole: consumed %d, %v; want ErrCorruptFrame at %d", n, err, tc.at)
			}
			if n, _, ok, again := fr.Write(good, len(good)); n != 0 || ok || again != err {
				t.Fatalf("after the error: consumed %d, ok %v, %v", n, ok, again)
			}
			fr = Framer{}
			for i := range tc.stream {
				_, _, err := feed(&fr, tc.stream[i:i+1])
				if (err != nil) != (i+1 >= tc.at) {
					t.Fatalf("byte at a time: after %d bytes err = %v, want the error from byte %d on", i+1, err, tc.at)
				}
			}
		})
	}
}

// classAlloc is a FrameAlloc shaped like catnip's: buffers come in size
// classes (exact past the largest), and it tracks what is out.
type classAlloc struct {
	live, liveBytes, allocs int
}

var testClasses = []int{128, 512, 2048, 16384}

func (a *classAlloc) alloc(n int) ([]byte, []Segment, func(), any) {
	size := n
	for _, c := range testClasses {
		if n <= c {
			size = c
			break
		}
	}
	a.live++
	a.allocs++
	a.liveBytes += size
	freed := false
	return make([]byte, n, size), make([]Segment, 0, 2), func() {
		if freed {
			panic("frame storage freed twice")
		}
		freed = true
		a.live--
		a.liveBytes -= size
	}, a
}

// TestFramerAllocationBound: what a peer makes the decoder hold is
// proportional to what it sent. A header claiming MaxTotalLen followed by
// k bytes holds at most 2k plus one buffer class, whatever the pieces they
// arrive in, and the default heap buffer at most twice what was sent; a
// frame at hand whole
// takes its buffer once; and an abandoned frame gives its buffer back.
func TestFramerAllocationBound(t *testing.T) {
	claim := prefix(header(MaxTotalLen, MaxTotalLen/MaxSegmentLen), MaxSegmentLen)
	body := make([]byte, 200_000)
	for _, piece := range []int{1, 7, 1000, 1460, 65536, len(body)} {
		var a classAlloc
		var pooled, heap Framer
		pooled.SetAlloc(a.alloc)
		for _, fr := range []*Framer{&pooled, &heap} {
			if _, n, err := feed(fr, claim); err != nil || n != len(claim) {
				t.Fatal(err)
			}
		}
		if a.liveBytes > eagerLen || cap(heap.buf) > eagerLen {
			t.Fatalf("a 12-byte claim of %d bytes pins %d pooled and %d heap bytes", MaxTotalLen, a.liveBytes, cap(heap.buf))
		}
		for k := 0; k < len(body); {
			p := body[k:min(k+piece, len(body))]
			k += len(p)
			for _, fr := range []*Framer{&pooled, &heap} {
				if got, _, err := feed(fr, p); err != nil || len(got) != 0 {
					t.Fatalf("piece %d, %d bytes in: %d frames, %v", piece, k, len(got), err)
				}
			}
			if bound := 2*k + eagerLen; a.liveBytes > bound || a.live != 1 {
				t.Fatalf("piece %d: after %d payload bytes the decoder holds %d bytes in %d buffers, want <= %d in 1", piece, k, a.liveBytes, a.live, bound)
			}
			if cap(heap.buf) > 2*k+eagerLen {
				t.Fatalf("piece %d: after %d payload bytes the heap buffer is %d bytes", piece, k, cap(heap.buf))
			}
		}
		if piece == len(body) && a.allocs != 2 {
			t.Fatalf("%d bytes at hand at once took %d buffers, want the claim's and one regrow", len(body), a.allocs)
		}
		pooled.Reset()
		if a.live != 0 || a.liveBytes != 0 || pooled.inFrame {
			t.Fatalf("a reset framer left %d buffers out", a.live)
		}
	}

	// A frame at hand whole — header, prefixes and payload in one Write, or
	// in two spans announced together — is one buffer of the payload's size,
	// and so is one of eagerLen or less however it arrives: a 16 KiB message
	// fits the 16 KiB class, its prefixes stripped, and never regrows.
	for _, size := range []int{eagerLen, 100_000} {
		msg := New(make([]byte, size)).Marshal()
		for _, cut := range []int{len(msg), 4000, 8, 3} {
			for _, announce := range []bool{true, false} {
				if size > eagerLen && !announce && cut < size/2 {
					continue // a large frame in small pieces: regrown, above
				}
				var a classAlloc
				var fr Framer
				fr.SetAlloc(a.alloc)
				avail := cut
				if announce {
					avail = len(msg)
				}
				n, _, ok, err := fr.Write(msg[:cut], avail)
				if cut < len(msg) && !ok && err == nil {
					var m int
					m, _, ok, err = fr.Write(msg[cut:], len(msg)-cut)
					n += m
				}
				if err != nil || !ok || n != len(msg) || a.allocs != 1 || a.liveBytes != size {
					t.Fatalf("%d B cut at %d: consumed %d, ok %v, %v; %d buffers taken holding %d bytes, want 1 of %d", size, cut, n, ok, err, a.allocs, a.liveBytes, size)
				}
			}
		}
	}
}

// TestWirePieceMatchesMarshal: the pieces WirePiece yields from any offset
// are Marshal's bytes from that offset, header and first prefix come as one
// 12-byte piece, and a segment's piece is the segment's own memory.
func TestWirePieceMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sgas := []SGA{{}, New(nil), New([]byte("abc")), New(nil, []byte("abc"), nil, []byte("defg"))}
	for i := 0; i < 20; i++ {
		sgas = append(sgas, randomSGA(r))
	}
	for _, s := range sgas {
		want := s.Marshal()
		var scratch [12]byte
		for off := 0; off <= len(want); off++ {
			var got []byte
			for at := off; ; {
				p := s.WirePiece(at, &scratch)
				if p == nil {
					break
				}
				if len(p) == 0 {
					t.Fatalf("%v: empty piece at %d", s, at)
				}
				got = append(got, p...)
				at += len(p)
			}
			if !bytes.Equal(got, want[off:]) {
				t.Fatalf("%v: pieces from offset %d differ from Marshal", s, off)
			}
		}
		if len(s.Segments) > 0 {
			if p := s.WirePiece(0, &scratch); len(p) != 12 {
				t.Fatalf("%v: first piece is %d bytes, want header and prefix together", s, len(p))
			}
			if seg := s.Segments[0].Buf; len(seg) > 1 {
				if p := s.WirePiece(13, &scratch); &p[0] != &seg[1] {
					t.Fatalf("%v: a segment's piece is a copy", s)
				}
			}
		}
	}
}

// FuzzFramer is differential against Unmarshal: a stream fed to Write in
// pieces cut where the fuzzer says decodes to the frames Unmarshal finds in
// it; where Unmarshal finds corruption Write has poisoned the stream, and
// where it finds a partial frame Write either waits for more or — the
// streaming decoder sees a bad length before the frame is whole — has
// rejected it. Whatever the stream claims, Write holds no more than twice
// its length beyond eagerLen.
func FuzzFramer(f *testing.F) {
	two := marshalAll(New([]byte("GET"), []byte("key")), New(nil, []byte("v")))
	f.Add(two, uint8(3))
	f.Add(marshalAll(SGA{}, New(nil), SGA{}), uint8(1))
	f.Add(two[:len(two)-2], uint8(5))
	f.Add(append(prefix(header(5, 1), 3), "abcde"...), uint8(4))
	f.Add(header(MaxTotalLen, 1), uint8(8))
	f.Fuzz(func(t *testing.T, stream []byte, step uint8) {
		want, rest, werr := oracle(stream)
		var fr Framer
		var got []SGA
		var err error
		for off := 0; off < len(stream) && err == nil; {
			end := min(off+1+int(step), len(stream))
			var s []SGA
			s, _, err = feed(&fr, stream[off:end])
			got = append(got, s...)
			off = end
			if cap(fr.buf) > 2*len(stream)+eagerLen {
				t.Fatalf("%d stream bytes made the decoder hold %d", len(stream), cap(fr.buf))
			}
		}
		switch {
		case werr == nil || werr == ErrShortBuffer:
			if err != nil && !(werr == ErrShortBuffer && errors.Is(err, ErrCorruptFrame)) {
				t.Fatalf("Write: %v; Unmarshal: %v with %d bytes left", err, werr, len(rest))
			}
		case !errors.Is(err, ErrCorruptFrame):
			t.Fatalf("Unmarshal: %v; Write: %v", werr, err)
		}
		sameFrames(t, "fuzz", got, want)
	})
}

// onePool is the steady state of a FrameAlloc for a consumer that frees each
// SGA before the next arrives: one buffer, recycled.
type onePool struct {
	buf  []byte
	segs [8]Segment
}

func (p *onePool) alloc(n int) ([]byte, []Segment, func(), any) {
	if cap(p.buf) < n {
		p.buf = make([]byte, n)
	}
	return p.buf[:n], p.segs[:0], nil, nil
}

// BenchmarkSGA_FramerWrite is the decoder alone: a stream of 64 B and of
// 16 KiB single-segment frames, shown to Write whole (64 KiB at a time, a
// receive ring's worth) and in MSS-sized pieces (a frame per ~11 pieces).
func BenchmarkSGA_FramerWrite(b *testing.B) {
	const mss = 1460
	for _, size := range []int{64, 16384} {
		frame := New(make([]byte, size)).Marshal()
		stream := bytes.Repeat(frame, max(1, 65536/len(frame)))
		for _, piece := range []int{len(stream), mss} {
			name := fmt.Sprintf("%dB/whole", size)
			if piece == mss {
				name = fmt.Sprintf("%dB/mss", size)
			}
			b.Run(name, func(b *testing.B) {
				var pool onePool
				var fr Framer
				fr.SetAlloc(pool.alloc)
				b.SetBytes(int64(len(stream)))
				b.ReportAllocs()
				b.ResetTimer()
				frames := 0
				for i := 0; i < b.N; i++ {
					for off := 0; off < len(stream); {
						p := stream[off:min(off+piece, len(stream))]
						for len(p) > 0 {
							n, _, ok, err := fr.Write(p, len(p))
							if err != nil {
								b.Fatal(err)
							}
							if ok {
								frames++
							}
							p = p[n:]
							off += n
						}
					}
				}
				if want := b.N * len(stream) / len(frame); frames != want {
					b.Fatalf("decoded %d frames, want %d", frames, want)
				}
			})
		}
	}
}
