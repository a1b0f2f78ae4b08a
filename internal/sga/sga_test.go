package sga

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	s := New([]byte("hello"), []byte(" "), []byte("world"))
	if s.Len() != 11 {
		t.Fatalf("Len = %d, want 11", s.Len())
	}
	if s.NumSegments() != 3 {
		t.Fatalf("NumSegments = %d, want 3", s.NumSegments())
	}
	if string(s.Bytes()) != "hello world" {
		t.Fatalf("Bytes = %q", s.Bytes())
	}
}

func TestZeroValue(t *testing.T) {
	var s SGA
	if s.Len() != 0 || s.NumSegments() != 0 {
		t.Fatal("zero SGA should be empty")
	}
	s.Free() // must not panic
	if len(s.Bytes()) != 0 {
		t.Fatal("zero SGA should flatten to empty")
	}
}

func TestFreeIdempotent(t *testing.T) {
	n := 0
	s := New([]byte("x")).WithFree(func() { n++ })
	s.Free()
	s.Free()
	s.Free()
	if n != 1 {
		t.Fatalf("free hook ran %d times, want exactly 1", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := New([]byte("abc"))
	c := orig.Clone()
	orig.Segments[0].Buf[0] = 'X'
	if c.Bytes()[0] != 'a' {
		t.Fatal("Clone shares memory with original")
	}
	if !bytes.Equal(c.Bytes(), []byte("abc")) {
		t.Fatal("Clone payload mismatch")
	}
}

func TestEqual(t *testing.T) {
	a := New([]byte("ab"), []byte("cd"))
	b := New([]byte("ab"), []byte("cd"))
	c := New([]byte("abcd"))
	if !a.Equal(b) {
		t.Fatal("identical SGAs not Equal")
	}
	if a.Equal(c) {
		t.Fatal("differently segmented SGAs should not be Equal")
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("same payload should flatten to the same bytes regardless of segmentation")
	}
}

func TestValidateLimits(t *testing.T) {
	segs := make([][]byte, MaxSegments+1)
	for i := range segs {
		segs[i] = []byte{0}
	}
	if _, _, err := Unmarshal(New(segs...).Marshal()); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("%d segments: want ErrCorruptFrame, got %v", len(segs), err)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	s := New([]byte("GET"), []byte("key-123"), nil, []byte("tail"))
	b := s.Marshal()
	if len(b) != s.MarshalledSize() {
		t.Fatalf("MarshalledSize = %d, actual %d", s.MarshalledSize(), len(b))
	}
	got, n, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d, want %d", n, len(b))
	}
	if !got.Equal(s) {
		t.Fatalf("roundtrip mismatch: %v vs %v", got, s)
	}
}

func TestUnmarshalShort(t *testing.T) {
	s := New([]byte("hello world, this is a frame"))
	b := s.Marshal()
	for cut := 0; cut < len(b); cut++ {
		_, _, err := Unmarshal(b[:cut])
		if err != ErrShortBuffer {
			t.Fatalf("cut=%d: want ErrShortBuffer, got %v", cut, err)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := New([]byte("abcd"))
	b := s.Marshal()
	// Claim a segment longer than the declared payload.
	b[11] = 5
	if _, _, err := Unmarshal(b); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want corruption error, got %v", err)
	}
	// Absurd payload length.
	b2 := s.Marshal()
	b2[0] = 0xFF
	if _, _, err := Unmarshal(b2); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want ErrCorruptFrame, got %v", err)
	}
}

func TestUnmarshalTrailingBytes(t *testing.T) {
	s := New([]byte("one"))
	b := append(s.Marshal(), []byte("extra")...)
	got, n, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatal("payload mismatch with trailing bytes present")
	}
	if string(b[n:]) != "extra" {
		t.Fatalf("consumed wrong prefix: remainder %q", b[n:])
	}
}

// randomSGA builds a pseudo-random SGA from quick-check source data.
func randomSGA(r *rand.Rand) SGA {
	nseg := r.Intn(8)
	segs := make([][]byte, nseg)
	for i := range segs {
		seg := make([]byte, r.Intn(512))
		r.Read(seg)
		segs[i] = seg
	}
	return New(segs...)
}

func TestPropMarshalRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSGA(r)
		got, n, err := Unmarshal(s.Marshal())
		return err == nil && n == s.MarshalledSize() && got.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSGA(r)
		return s.Clone().Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesMatchesSegments(t *testing.T) {
	s := New([]byte{1, 2}, []byte{}, []byte{3})
	if !bytes.Equal(s.Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", s.Bytes())
	}
}
