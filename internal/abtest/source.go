package abtest

import "math/rand"

// seedSource is a rand.Source64 that yields, for every seed, exactly the
// stream of math/rand's default source (rand.NewSource): the same 607-word
// additive lagged-Fibonacci register, stepped the same way, seeded with the
// same words. Only seeding is cheaper; a population worker re-seeds three
// times per user.
//
// math/rand seeds word i of the register from x(21+3i), x(22+3i) and
// x(23+3i) of the Lehmer sequence x(k+1) = 48271·x(k) mod (2³¹−1), x(0) =
// seed: 1841 serially dependent steps. Since x(k) = seed·48271ᵏ mod
// (2³¹−1), seedSource multiplies the seed by precomputed powers instead,
// independent products the CPU overlaps. It also keeps the register it
// last seeded: a user's arms all re-seed with the user's seed, and a
// repeat costs one copy.
type seedSource struct {
	tap, feed int
	vec       [rngLen]int64

	// cacheSeed is the reduced seed cacheVec was seeded with; 0 (never a
	// reduced seed) when the cache is empty.
	cacheSeed int64
	cacheVec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSkip is how many Lehmer steps math/rand discards before the
	// first register word.
	seedSkip = 20
)

var (
	// seedPowers[j] is 48271^(seedSkip+1+j) mod (2³¹−1), the multiplier
	// of the j-th Lehmer value Seed consumes.
	seedPowers [3 * rngLen]uint64
	// rngCooked is math/rand's table of the same name: the words the
	// Lehmer values are XORed with. It is recovered from the standard
	// source's output when the package loads (see recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for k := 1; k <= seedSkip+len(seedPowers); k++ {
		x = x * 48271 % int32max
		if k > seedSkip {
			seedPowers[k-seedSkip-1] = x
		}
	}
	rngCooked = recoverCooked()
}

// recoverCooked reconstructs math/rand's seeding table from its default
// source. Over 607 draws the feed index visits every register word exactly
// once, writing the draw there, so the draws are the register after them;
// undoing the steps in reverse order (word[feed] -= word[tap]) yields the
// freshly seeded register, and XORing out the Lehmer words leaves the
// table.
func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var reg [rngLen]uint64
	for n := 0; n < rngLen; n++ {
		reg[feedAt(n)] = src.Uint64()
	}
	for n := rngLen - 1; n >= 0; n-- {
		reg[feedAt(n)] -= reg[tapAt(n)]
	}
	var cooked [rngLen]int64
	for i := range cooked {
		cooked[i] = int64(reg[i]) ^ lehmerWord(seed, i)
	}
	return cooked
}

// tapAt and feedAt are the register indices the n-th draw (n < rngLen)
// after seeding reads and writes.
func tapAt(n int) int  { return rngLen - 1 - n }
func feedAt(n int) int { return (2*rngLen - rngTap - 1 - n) % rngLen }

// lehmerWord is the i-th register word's seed contribution before the
// XOR with rngCooked[i], for a reduced seed.
func lehmerWord(seed int64, i int) int64 {
	s := uint64(seed)
	p := seedPowers[3*i : 3*i+3 : 3*i+3]
	return int64(s*p[0]%int32max<<40 ^ s*p[1]%int32max<<20 ^ s*p[2]%int32max)
}

// Seed implements rand.Source: the state rand.NewSource(seed) starts in.
func (s *seedSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	if seed == s.cacheSeed {
		s.vec = s.cacheVec
		return
	}
	for i := range s.vec {
		s.vec[i] = lehmerWord(seed, i) ^ rngCooked[i]
	}
	s.cacheSeed, s.cacheVec = seed, s.vec
}

// Uint64 implements rand.Source64.
func (s *seedSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *seedSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
