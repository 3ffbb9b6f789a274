package netmodel

import (
	"math"
	"math/rand"
	"testing"
)

// binomialPMF is the exact Binomial(n, p) probability of k successes.
func binomialPMF(n, k int64, p float64) float64 {
	lg := func(x int64) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
	return math.Exp(lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// chiSquareBinomial draws binomialLosses(n, p) draws times and returns the
// chi-square statistic against the exact pmf and its degrees of freedom.
// Outcomes are pooled from the top down until every bin expects at least
// 5 draws.
func chiSquareBinomial(c *Conn, n int64, p float64, draws int) (stat float64, df int) {
	counts := make(map[int64]int)
	for i := 0; i < draws; i++ {
		counts[c.binomialLosses(n, p)]++
	}
	var stats []float64
	var obs, exp float64
	for k := n; k >= 0; k-- {
		obs += float64(counts[k])
		exp += float64(draws) * binomialPMF(n, k, p)
		if exp >= 5 || k == 0 {
			stats = append(stats, (obs-exp)*(obs-exp)/exp)
			obs, exp = 0, 0
		}
	}
	for _, s := range stats {
		stat += s
	}
	return stat, len(stats) - 1
}

// TestBinomialLossesExact checks the loss sampler against the exact
// Binomial(n, p) distribution in the regimes it serves: population chunks
// (a few hundred to a few thousand segments at the 2e-4 base loss rate), a
// mean just under the switch to the normal approximation, and heavy loss
// on short transfers.
func TestBinomialLossesExact(t *testing.T) {
	c := &Conn{rng: rand.New(rand.NewSource(7))}
	const draws = 200_000
	for _, tc := range []struct {
		n int64
		p float64
	}{
		{700, 2e-4},
		{3000, 2e-4},
		{24_990, 2e-4}, // mean 4.998
		{10, 0.3},
		{16, 0.3}, // mean 4.8
	} {
		stat, df := chiSquareBinomial(c, tc.n, tc.p, draws)
		// Wilson–Hilferty approximation of the chi-square 0.999 quantile.
		a := 2 / (9 * float64(df))
		crit := float64(df) * math.Pow(1-a+3.09*math.Sqrt(a), 3)
		if stat > crit {
			t.Errorf("Binomial(%d, %g): chi-square %.1f on %d df, above the 0.999 quantile %.1f",
				tc.n, tc.p, stat, df, crit)
		}
	}
}

func TestBinomialLossesEdges(t *testing.T) {
	c := &Conn{rng: rand.New(rand.NewSource(1))}
	for _, tc := range []struct {
		n    int64
		p    float64
		want int64
	}{
		{0, 0.5, 0},
		{-3, 0.5, 0},
		{100, 0, 0},
		{100, -0.1, 0},
		{3, 1, 3},
		{100, 1, 100},
		{100, 1.5, 100},
		{math.MaxInt64, 1e-300, 0}, // the gap dwarfs any int64
	} {
		if got := c.binomialLosses(tc.n, tc.p); got != tc.want {
			t.Errorf("binomialLosses(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// BenchmarkBinomialLosses is the loss sampler's cost for a typical
// population chunk (2000 segments at the 2e-4 base loss rate).
func BenchmarkBinomialLosses(b *testing.B) {
	c := &Conn{rng: rand.New(rand.NewSource(1))}
	if allocs := testing.AllocsPerRun(100, func() { c.binomialLosses(2000, 2e-4) }); allocs != 0 {
		b.Fatalf("binomialLosses allocates %v times per call, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.binomialLosses(2000, 2e-4)
	}
}
