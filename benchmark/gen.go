package main

// Seeded load generators. Every workload draws its operations from one
// generator built from -seed; the program under test sees only the
// generated ops. What the seed drives: echo/stream payload salts, the
// HTTP object popularity draws and body bytes, the KV key, op kind,
// value size and misdirection draws, and the storage key draws. What it
// deliberately does NOT drive: which HTTP objects are large (a fixed
// function of the object index) — with 64 objects under Zipf(1.1) a
// seed that put an 8 KiB body on the hottest rank would be a different
// workload, and the benchmark's run-to-run spread is taken across seeds.

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"demikernel/internal/workload"
)

// Workload parameters (fixed by the issue that defined the benchmark;
// later issues refer to the workloads by name).
const (
	echoPayload = 64

	ringBatch = 32
	ringCap   = 256

	streamMsg    = 16 << 10
	streamWindow = 8

	httpObjects   = 64
	httpSmallBody = 256
	httpLargeBody = 8 << 10
	httpZipfS     = 1.1

	kvKeys         = 10000
	kvConns        = 4
	kvShards       = 2
	kvGetShare     = 0.70
	kvSmallVal     = 64
	kvLargeVal     = 2 << 10
	kvSmallShare   = 0.90
	kvMisdirectOne = 8 // 1 op in 8 goes to the other shard's connection

	storageKeys   = 4096
	storageFanout = 6 // 4096 keys at fanout 6 build Index.Depth == 4
	storageDepth  = 4
	storageGroup  = 16
	storageValLen = 64

	idleConns = 1024
)

// opKind discriminates generated operations.
type opKind uint8

const (
	opEcho opKind = iota + 1
	opStream
	opHTTPGet
	opKVGet
	opKVSet
	opLookup
)

// op is one generated operation. Fields a kind does not use stay zero.
type op struct {
	kind      opKind
	misdirect bool   // kv: send on the other shard's connection
	key       int32  // object / key index
	size      int32  // payload or value size in bytes
	salt      uint64 // echo/stream payload stamp
}

// appendTo appends the op's canonical 18-byte encoding; the seed tests
// compare op streams through it.
func (o op) appendTo(b []byte) []byte {
	flags := byte(0)
	if o.misdirect {
		flags = 1
	}
	b = append(b, byte(o.kind), flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(o.key))
	b = binary.LittleEndian.AppendUint32(b, uint32(o.size))
	return binary.LittleEndian.AppendUint64(b, o.salt)
}

// generator yields the op stream of one workload for one seed. The
// distributions are the repo's own (internal/workload); sub-seeds keep
// the key, size and mix draws independent, as workload.YCSBStyleB does.
type generator struct {
	next func() op
}

func newGenerator(name string, seed int64) (*generator, error) {
	switch name {
	case "echo64", "echo64_idle1k", "ring_echo64_b32":
		r := rand.New(rand.NewSource(seed))
		return &generator{next: func() op {
			return op{kind: opEcho, size: echoPayload, salt: r.Uint64()}
		}}, nil
	case "stream16k":
		r := rand.New(rand.NewSource(seed))
		return &generator{next: func() op {
			return op{kind: opStream, size: streamMsg, salt: r.Uint64()}
		}}, nil
	case "http_get_b32":
		keys := workload.NewZipfKeys(httpObjects, httpZipfS, seed)
		return &generator{next: func() op {
			k := keys.NextKey()
			return op{kind: opHTTPGet, key: int32(k), size: int32(httpBodySize(k))}
		}}, nil
	case "kv_mix":
		keys := workload.NewZipfKeys(kvKeys, httpZipfS, seed)
		sizes := workload.NewBimodalSize(kvSmallVal, kvLargeVal, kvSmallShare, seed+1)
		r := rand.New(rand.NewSource(seed + 2))
		return &generator{next: func() op {
			o := op{kind: opKVGet, key: int32(keys.NextKey())}
			if r.Float64() >= kvGetShare {
				o.kind = opKVSet
				o.size = int32(sizes.NextSize())
			}
			o.misdirect = r.Intn(kvMisdirectOne) == 0
			return o
		}}, nil
	case "storage_get_d4":
		keys := workload.NewUniformKeys(storageKeys, seed)
		return &generator{next: func() op {
			return op{kind: opLookup, key: int32(keys.NextKey())}
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// encodeOps returns the canonical encoding of the first n ops of a
// workload's stream.
func encodeOps(name string, seed int64, n int) ([]byte, error) {
	g, err := newGenerator(name, seed)
	if err != nil {
		return nil, err
	}
	var b []byte
	for i := 0; i < n; i++ {
		b = g.next().appendTo(b)
	}
	return b, nil
}

// httpBodySize is the body size of object i: one object in ten carries
// the large body, at a fixed index, so the byte mix is the same for
// every seed (see the package comment).
func httpBodySize(i int) int {
	if i%10 == 5 {
		return httpLargeBody
	}
	return httpSmallBody
}

// httpSizes feeds httpBodySize to workload.HTTPObjects, which asks for
// sizes in index order.
type httpSizes struct{ i int }

func (s *httpSizes) NextSize() int {
	n := httpBodySize(s.i)
	s.i++
	return n
}

// randomBytes returns n seed-derived bytes (payload bases, object
// bodies, stored values).
func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// stamp writes an op's 16-byte header over the front of a payload whose
// remaining bytes are a seed-derived base: every message is distinct,
// so a stale, duplicated or reordered response fails verification.
func stamp(buf []byte, a, b uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], a)
	binary.LittleEndian.PutUint64(buf[8:16], b)
}

// weightedSum is the stream workload's checksum: sum of word_i*(i+1)
// over the 8-byte words of b (len(b) is a multiple of 8). Position
// weights make it sensitive to reordered as well as flipped bytes.
func weightedSum(b []byte) uint64 {
	var s uint64
	for i := 0; i+8 <= len(b); i += 8 {
		s += binary.LittleEndian.Uint64(b[i:]) * uint64(i/8+1)
	}
	return s
}
