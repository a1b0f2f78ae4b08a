package workload

import (
	"testing"
	"testing/quick"
)

func TestUniformCoversKeyspace(t *testing.T) {
	u := NewUniformKeys(16, 1)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		k := u.NextKey()
		if k < 0 || k >= 16 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform covered %d of 16 keys", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipfKeys(1000, 1.2, 2)
	counts := make([]int, 1000)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.NextKey()]++
	}
	// Hot-key property: the single most popular key takes a clearly
	// disproportionate share versus uniform (which would be 0.1%).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 0.05 {
		t.Fatalf("zipf top key share %.4f, want >= 0.05", float64(max)/n)
	}
}

func TestBimodalShares(t *testing.T) {
	b := NewBimodalSize(64, 8192, 0.9, 3)
	small := 0
	const n = 10000
	for i := 0; i < n; i++ {
		switch b.NextSize() {
		case 64:
			small++
		case 8192:
		default:
			t.Fatal("unexpected size")
		}
	}
	frac := float64(small) / n
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("small fraction %.3f, want ~0.9", frac)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		z1, z2 := NewZipfKeys(100, 1.1, seed), NewZipfKeys(100, 1.1, seed)
		b1, b2 := NewBimodalSize(128, 4096, 0.9, seed), NewBimodalSize(128, 4096, 0.9, seed)
		for i := 0; i < 50; i++ {
			if z1.NextKey() != z2.NextKey() || b1.NextSize() != b2.NextSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
