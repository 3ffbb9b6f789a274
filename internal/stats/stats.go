// Package stats provides the descriptive statistics used by the Sammy
// evaluation harness: quantiles, medians, means, bootstrap confidence
// intervals and percent-change summaries of treatment-vs-control metric
// samples, in the style of the paper's A/B test tables.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or NaN when fewer
// than two samples are available.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input
// and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile on an already-sorted slice, without the copy.
func QuantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Point float64 // point estimate
	Lo    float64 // lower bound
	Hi    float64 // upper bound
}

// Significant reports whether the interval excludes zero, i.e. whether the
// estimated change is statistically distinguishable from no change.
func (c CI) Significant() bool { return c.Lo > 0 || c.Hi < 0 }

// String formats the interval like the paper's tables: "-61.0 [-61.8, -60.2]".
func (c CI) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f]", c.Point, c.Lo, c.Hi)
}

// statFunc computes a scalar summary of a sample.
type statFunc func([]float64) float64

// BootstrapPercentChange estimates the percent change of a summary statistic
// (e.g. the median) between a treatment and a control sample, with a
// bootstrap percentile 95% confidence interval. This mirrors how the paper
// reports "% Chg." with a 95% CI for each A/B metric.
//
// iters bootstrap resamples are drawn using rng; 1000 is plenty for table
// reproduction. The point estimate uses the full samples.
func BootstrapPercentChange(treatment, control []float64, stat statFunc, iters int, rng *rand.Rand) CI {
	if len(treatment) == 0 || len(control) == 0 {
		return CI{Point: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	}
	base := stat(control)
	point := percentChange(stat(treatment), base)

	deltas := make([]float64, 0, iters)
	tRes := make([]float64, len(treatment))
	cRes := make([]float64, len(control))
	for i := 0; i < iters; i++ {
		resample(treatment, tRes, rng)
		resample(control, cRes, rng)
		b := stat(cRes)
		deltas = append(deltas, percentChange(stat(tRes), b))
	}
	sort.Float64s(deltas)
	return CI{
		Point: point,
		Lo:    QuantileSorted(deltas, 0.025),
		Hi:    QuantileSorted(deltas, 0.975),
	}
}

// MedianPercentChange is BootstrapPercentChange with the median statistic,
// the paper's summary for throughput, retransmits, RTT and VMAF.
func MedianPercentChange(treatment, control []float64, iters int, rng *rand.Rand) CI {
	return BootstrapPercentChange(treatment, control, Median, iters, rng)
}

// MeanPercentChange is BootstrapPercentChange with the mean statistic, used
// for sparse-event metrics like rebuffer rates where the median is zero.
func MeanPercentChange(treatment, control []float64, iters int, rng *rand.Rand) CI {
	return BootstrapPercentChange(treatment, control, Mean, iters, rng)
}

// percentChange returns 100·(x−base)/base, or NaN when base is zero.
func percentChange(x, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (x - base) / base
}

// resample fills dst with len(dst) draws (with replacement) from src.
func resample(src, dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = src[rng.Intn(len(src))]
	}
}

// Histogram counts xs into nbins equal-width bins across [min, max]. Values
// outside the range are clamped into the first/last bin. It reports the bin
// edges (nbins+1 values) and counts (nbins values).
func Histogram(xs []float64, min, max float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 || max <= min {
		return nil, nil
	}
	edges = make([]float64, nbins+1)
	width := (max - min) / float64(nbins)
	for i := range edges {
		edges[i] = min + float64(i)*width
	}
	counts = make([]int, nbins)
	for _, x := range xs {
		b := int((x - min) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return edges, counts
}
