package abtest

import (
	"math"
	"math/rand"
	"testing"
)

// TestSeedSourceMatchesMathRand checks that a rand.Rand over one reused
// seedSource, re-seeded the way a session worker re-seeds, draws exactly
// what rand.New(rand.NewSource(seed)) draws — Uint64, Float64, NormFloat64
// and Intn, 10 000 of each — for seeds that reduce to zero (0, multiples
// of 2³¹−1), seeds that reduce to the same register as zero (89482311),
// negatives and both int64 extremes. Each seed is drawn once after a
// different seed (cache miss) and once straight after itself (cache hit).
func TestSeedSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 42, -42, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		int32max, -int32max, 2 * int32max, 3 * int32max, -5 * int32max,
		int32max - 1, int32max + 1, 1 << 31, 0x5eed, 0x5eed ^ 77,
	}
	var src seedSource
	got := rand.New(&src)
	var hits, misses int
	for _, seed := range seeds {
		for pass := 0; pass < 2; pass++ {
			wasCached := src.cacheSeed != 0 && src.cacheSeed == reduceSeed(seed)
			if wasCached {
				hits++
			} else {
				misses++
			}
			got.Seed(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 10_000; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d pass %d: Uint64 #%d = %d, want %d", seed, pass, i, g, w)
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d pass %d: Float64 #%d = %v, want %v", seed, pass, i, g, w)
				}
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d pass %d: NormFloat64 #%d = %v, want %v", seed, pass, i, g, w)
				}
				n := 1 + i%1000
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d pass %d: Intn(%d) #%d = %d, want %d", seed, pass, n, i, g, w)
				}
			}
		}
	}
	if hits < len(seeds) || misses == 0 {
		t.Errorf("%d cache hits and %d misses; both paths must run", hits, misses)
	}
}

// reduceSeed is the register seed math/rand derives from seed.
func reduceSeed(seed int64) int64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return seed
}

// TestSeedSourceSeedAllocFree pins that re-seeding, hit or miss, allocates
// nothing: the register and its cache live in the worker.
func TestSeedSourceSeedAllocFree(t *testing.T) {
	var src seedSource
	r := rand.New(&src)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		r.Seed(seed)
		r.Float64()
	}); n != 0 {
		t.Errorf("Seed allocates %.1f times per call pair", n)
	}
}

// BenchmarkSeed compares re-seeding math/rand's default source with
// seedSource on a cache miss and on a hit.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("miss", func(b *testing.B) {
		var src seedSource
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("hit", func(b *testing.B) {
		var src seedSource
		for i := 0; i < b.N; i++ {
			src.Seed(1)
		}
	})
}
