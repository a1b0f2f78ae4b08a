// Package workload generates the synthetic request streams the
// experiments and tools drive applications with. The paper motivates the
// Demikernel with datacenter applications (Redis, memcached) whose
// production traces are skewed: a small set of hot keys dominates, most
// values are small with a heavy tail, and reads outnumber writes. Since
// real traces are unavailable, this package provides deterministic
// generators with those shape properties (uniform and Zipf key
// popularity, fixed and bimodal value sizes).
package workload

import "math/rand"

// KeyDist selects keys.
type KeyDist interface {
	// NextKey returns the next key index in [0, Keys).
	NextKey() int
	// Keys returns the keyspace size.
	Keys() int
}

// UniformKeys picks keys uniformly.
type UniformKeys struct {
	n int
	r *rand.Rand
}

// NewUniformKeys builds a uniform distribution over n keys.
func NewUniformKeys(n int, seed int64) *UniformKeys {
	return &UniformKeys{n: n, r: rand.New(rand.NewSource(seed))}
}

// NextKey implements KeyDist.
func (u *UniformKeys) NextKey() int { return u.r.Intn(u.n) }

// Keys implements KeyDist.
func (u *UniformKeys) Keys() int { return u.n }

// ZipfKeys picks keys with Zipfian popularity (hot-key skew).
type ZipfKeys struct {
	n int
	z *rand.Zipf
}

// NewZipfKeys builds a Zipf distribution over n keys with skew s > 1
// (1.1 is a mild production-like skew; larger is hotter).
func NewZipfKeys(n int, s float64, seed int64) *ZipfKeys {
	r := rand.New(rand.NewSource(seed))
	return &ZipfKeys{n: n, z: rand.NewZipf(r, s, 1, uint64(n-1))}
}

// NextKey implements KeyDist.
func (z *ZipfKeys) NextKey() int { return int(z.z.Uint64()) }

// Keys implements KeyDist.
func (z *ZipfKeys) Keys() int { return z.n }

// SizeDist selects value sizes.
type SizeDist interface {
	NextSize() int
}

// FixedSize always returns one size.
type FixedSize int

// NextSize implements SizeDist.
func (f FixedSize) NextSize() int { return int(f) }

// BimodalSize models the small-values-heavy-tail shape of production KV
// traces: smallFrac of values are Small bytes, the rest Large.
type BimodalSize struct {
	Small, Large int
	SmallFrac    float64
	r            *rand.Rand
}

// NewBimodalSize builds a bimodal size distribution.
func NewBimodalSize(small, large int, smallFrac float64, seed int64) *BimodalSize {
	return &BimodalSize{Small: small, Large: large, SmallFrac: smallFrac,
		r: rand.New(rand.NewSource(seed))}
}

// NextSize implements SizeDist.
func (b *BimodalSize) NextSize() int {
	if b.r.Float64() < b.SmallFrac {
		return b.Small
	}
	return b.Large
}
