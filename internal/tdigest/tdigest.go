// Package tdigest implements the merging t-digest of Dunning, the streaming
// quantile sketch the paper uses to summarize per-connection RTT samples
// before merging them into a per-session estimate ([21] in the paper).
//
// The implementation follows the "merging digest" design: incoming samples
// accumulate in a buffer; when the buffer fills, buffered points and existing
// centroids are merged in sorted order subject to the k1 scale-function size
// bound, which keeps centroids small near the tails and large in the middle.
package tdigest

import (
	"fmt"
	"math"
	"slices"
)

// centroid is a weighted point in the sketch.
type centroid struct {
	mean   float64
	weight float64
}

// TDigest is a streaming quantile sketch. The zero value is not ready for
// use; construct with New. TDigest is not safe for concurrent use.
type TDigest struct {
	compression float64
	centroids   []centroid
	// buffer holds samples not yet compressed. It grows on demand (most
	// digests see far fewer samples than a full buffer) and compression
	// triggers when it reaches bufferLimit samples.
	buffer      []centroid
	bufferLimit int
	// spare is the previous centroid array, reused by the next compress
	// as its merge workspace.
	spare []centroid
	// stepSin and stepCos are sin and cos of 2π/compression, the k1
	// scale's unit step as an angle (see kBound).
	stepSin, stepCos float64
	count            float64
	min, max         float64
}

// New returns a t-digest with the given compression parameter. Larger
// compression means more centroids and better accuracy; 100 is the
// conventional default.
func New(compression float64) *TDigest {
	if compression < 10 {
		compression = 10
	}
	t := &TDigest{
		compression: compression,
		bufferLimit: int(8 * compression),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
	t.stepSin, t.stepCos = math.Sincos(2 * math.Pi / compression)
	return t
}

// Reset empties the digest for reuse, keeping its compression and the
// memory of its buffers. A reset digest behaves bit-identically to a fresh
// New digest of the same compression.
func (t *TDigest) Reset() {
	t.centroids = t.centroids[:0]
	t.buffer = t.buffer[:0]
	t.count = 0
	t.min, t.max = math.Inf(1), math.Inf(-1)
}

// Add inserts a sample with weight 1.
func (t *TDigest) Add(x float64) { t.AddWeighted(x, 1) }

// AddWeighted inserts a sample with the given positive weight. NaN samples
// and non-positive weights are ignored.
func (t *TDigest) AddWeighted(x, w float64) {
	if math.IsNaN(x) || w <= 0 {
		return
	}
	if len(t.buffer) == cap(t.buffer) {
		t.growBuffer()
	}
	t.buffer = append(t.buffer, centroid{mean: x, weight: w})
	t.count += w
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if len(t.buffer) == t.bufferLimit {
		t.compress()
	}
}

// initialBuffer is the buffer capacity a digest starts with on its first
// sample.
const initialBuffer = 64

// growBuffer enlarges a full buffer: to initialBuffer first, then straight
// to bufferLimit, so a digest that fills up allocates barely more than one
// eager full-size buffer while a digest of a few dozen samples stays small.
func (t *TDigest) growBuffer() {
	n := min(initialBuffer, t.bufferLimit)
	if cap(t.buffer) >= n {
		n = t.bufferLimit
	}
	t.buffer = append(make([]centroid, 0, n), t.buffer...)
}

// Merge folds the contents of other into t, leaving other unchanged. This is
// how per-connection digests combine into a per-session digest.
func (t *TDigest) Merge(other *TDigest) {
	if other == nil {
		return
	}
	other.compress()
	for _, c := range other.centroids {
		t.AddWeighted(c.mean, c.weight)
	}
}

// Count reports the total weight added.
func (t *TDigest) Count() float64 { return t.count }

// Min reports the smallest sample added, or +Inf when empty.
func (t *TDigest) Min() float64 { return t.min }

// Max reports the largest sample added, or -Inf when empty.
func (t *TDigest) Max() float64 { return t.max }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the added samples.
// It returns NaN for an empty digest.
func (t *TDigest) Quantile(q float64) float64 {
	t.compress()
	if t.count == 0 || len(t.centroids) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	target := q * t.count

	// Walk centroids accumulating weight; interpolate within the matching
	// centroid, treating each centroid's weight as spread around its mean.
	var cum float64
	for i, c := range t.centroids {
		if cum+c.weight >= target {
			// Position of target within this centroid, in [0,1].
			frac := (target - cum) / c.weight
			lo, hi := t.neighborBounds(i)
			return lo + frac*(hi-lo)
		}
		cum += c.weight
	}
	return t.max
}

// neighborBounds estimates the value range covered by centroid i using the
// midpoints to its neighbors, clamped to the observed min/max.
func (t *TDigest) neighborBounds(i int) (lo, hi float64) {
	c := t.centroids[i]
	lo, hi = t.min, t.max
	if i > 0 {
		lo = (t.centroids[i-1].mean + c.mean) / 2
	}
	if i < len(t.centroids)-1 {
		hi = (c.mean + t.centroids[i+1].mean) / 2
	}
	return lo, hi
}

// CDF estimates the fraction of samples ≤ x. It returns NaN for an empty
// digest.
func (t *TDigest) CDF(x float64) float64 {
	t.compress()
	if t.count == 0 {
		return math.NaN()
	}
	if x < t.min {
		return 0
	}
	if x >= t.max {
		return 1
	}
	var cum float64
	for i, c := range t.centroids {
		lo, hi := t.neighborBounds(i)
		if x < lo {
			break
		}
		if x < hi {
			frac := 0.5
			if hi > lo {
				frac = (x - lo) / (hi - lo)
			}
			return (cum + frac*c.weight) / t.count
		}
		cum += c.weight
	}
	return math.Min(1, cum/t.count)
}

// CentroidCount reports how many centroids the compressed sketch holds,
// exposed for tests of the size bound.
func (t *TDigest) CentroidCount() int {
	t.compress()
	return len(t.centroids)
}

// Snapshot is the serializable state of a digest: the compressed centroid
// list plus the exact count and observed range. It is the checkpoint unit
// for sharded population runs — a digest restored with FromSnapshot behaves
// bit-identically to the in-memory digest it was taken from in every
// subsequent Merge/Quantile call, because Snapshot canonicalizes (compresses)
// the state first and FromSnapshot restores centroids verbatim rather than
// re-adding samples.
//
// Min/Max are stored only for non-empty digests (JSON cannot encode the
// ±Inf sentinels of an empty one).
type Snapshot struct {
	Compression float64   `json:"compression"`
	Count       float64   `json:"count"`
	Min         float64   `json:"min,omitempty"`
	Max         float64   `json:"max,omitempty"`
	Means       []float64 `json:"means,omitempty"`
	Weights     []float64 `json:"weights,omitempty"`
}

// Snapshot captures the digest's canonical (compressed) state.
func (t *TDigest) Snapshot() Snapshot {
	t.compress()
	s := Snapshot{Compression: t.compression, Count: t.count}
	if t.count > 0 {
		s.Min, s.Max = t.min, t.max
		s.Means = make([]float64, len(t.centroids))
		s.Weights = make([]float64, len(t.centroids))
		for i, c := range t.centroids {
			s.Means[i] = c.mean
			s.Weights[i] = c.weight
		}
	}
	return s
}

// FromSnapshot restores a digest captured with Snapshot. It validates the
// structural invariants a corrupted checkpoint could violate: matching
// means/weights lengths, sorted means, positive weights, and a count that
// matches the total weight.
func FromSnapshot(s Snapshot) (*TDigest, error) {
	t := New(s.Compression)
	if len(s.Means) != len(s.Weights) {
		return nil, fmt.Errorf("tdigest: snapshot has %d means but %d weights", len(s.Means), len(s.Weights))
	}
	if s.Count == 0 {
		if len(s.Means) != 0 {
			return nil, fmt.Errorf("tdigest: empty snapshot carries %d centroids", len(s.Means))
		}
		return t, nil
	}
	var total float64
	t.centroids = make([]centroid, len(s.Means))
	for i := range s.Means {
		if s.Weights[i] <= 0 || math.IsNaN(s.Means[i]) {
			return nil, fmt.Errorf("tdigest: snapshot centroid %d invalid (mean %v, weight %v)", i, s.Means[i], s.Weights[i])
		}
		if i > 0 && s.Means[i] < s.Means[i-1] {
			return nil, fmt.Errorf("tdigest: snapshot means not sorted at %d", i)
		}
		t.centroids[i] = centroid{mean: s.Means[i], weight: s.Weights[i]}
		total += s.Weights[i]
	}
	// Count is stored rather than recomputed so the restored digest is
	// bit-identical to the captured one; the stored value must still agree
	// with the centroid weights up to float tolerance.
	if math.Abs(total-s.Count) > 1e-6*math.Max(1, s.Count) {
		return nil, fmt.Errorf("tdigest: snapshot count %v does not match total weight %v", s.Count, total)
	}
	t.count = s.Count
	t.min, t.max = s.Min, s.Max
	return t, nil
}

// compress merges buffered samples into the centroid list, enforcing the k1
// scale-function bound on centroid sizes.
func (t *TDigest) compress() {
	if len(t.buffer) == 0 {
		return
	}
	merged := append(append(t.spare[:0], t.centroids...), t.buffer...)
	t.buffer = t.buffer[:0]
	slices.SortFunc(merged, byMean)

	out := merged[:0]
	var cum float64 // weight before the current output centroid
	cur := merged[0]
	b := t.bound(0) // the k1 bound on the current centroid
	for _, c := range merged[1:] {
		proposed := cur.weight + c.weight
		// A centroid may span at most one unit of the k1 scale function,
		// which keeps centroids tiny near the tails and large in the middle.
		if b.allows((cum + proposed) / t.count) {
			// Merge c into cur (weighted mean).
			cur.mean = (cur.mean*cur.weight + c.mean*c.weight) / proposed
			cur.weight = proposed
		} else {
			out = append(out, cur)
			cum += cur.weight
			b = t.bound(cum / t.count)
			cur = c
		}
	}
	out = append(out, cur)
	t.spare, t.centroids = t.centroids, out
}

// kBound is the k1 size bound on one output centroid, which starts at
// quantile qLo: the centroid may grow to q1 while kScale(q1) − kScale(qLo)
// ≤ 1. Evaluated as written that is one asin per merged sample; kBound
// instead compares q1 with the quantile thr where k1 has grown by exactly
// one unit, (sin((kScale(qLo)+1)·2π/δ)+1)/2, and falls back to the asin
// test only within guard of thr.
//
// thr is computed without asin or sin: with y = 2qLo−1 and a = 2π/δ it is
// (1 + sin(asin(y)+a))/2 = (1 + y·cos a + √((1−y)(1+y))·sin a)/2. Once
// asin(y)+a reaches π/2 (y ≥ cos a) k1 cannot grow a unit before q = 1, so
// thr is 1 and every q1 past 1−guard takes the asin test, which clamps q
// at 1. thr's rounding error, and the asin test's own, stay below 1e-13
// in q, far inside guard, so both tests agree outside the band. The
// exception is a centroid starting within guard of q = 0 (but not at it):
// there asin's rounding moves kScale(qLo) by more, so such a centroid
// takes the asin test throughout.
type kBound struct {
	t   *TDigest
	qLo float64
	// lo and hi bound the band: q1 < lo merges, q1 > hi does not, and the
	// asin test decides in between.
	lo, hi float64
}

// guard is the half-width of the band around kBound's threshold in which
// the asin test decides.
const guard = 1e-9

// bound returns the k1 bound on a centroid starting at quantile qLo.
func (t *TDigest) bound(qLo float64) kBound {
	b := kBound{t: t, qLo: qLo, lo: math.Inf(-1), hi: math.Inf(1)}
	y := 2*min(max(qLo, 0), 1) - 1
	switch {
	case y >= t.stepCos:
		b.lo = 1 - guard
	case y == -1 || y > -1+guard:
		thr := (1 + y*t.stepCos + math.Sqrt((1-y)*(1+y))*t.stepSin) / 2
		b.lo, b.hi = thr-guard, thr+guard
	}
	return b
}

// allows reports whether the centroid may extend to quantile q1, exactly
// as kScale(q1) − kScale(qLo) ≤ 1 evaluates.
func (b kBound) allows(q1 float64) bool {
	switch {
	case q1 < b.lo:
		return true
	case q1 > b.hi:
		return false
	}
	return b.t.kScale(q1)-b.t.kScale(b.qLo) <= 1
}

// byMean orders centroids by mean. It is negative exactly when a.mean <
// b.mean, so slices.SortFunc makes the same comparisons and swaps as the
// sort.Slice less function it replaced (both are the same pdqsort), and
// compressed digests stay bit-identical.
func byMean(a, b centroid) int {
	switch {
	case a.mean < b.mean:
		return -1
	case a.mean > b.mean:
		return 1
	}
	return 0
}

// kScale is the k1 scale function, k1(q) = δ/(2π)·asin(2q−1), which maps
// quantiles to "centroid budget" units.
func (t *TDigest) kScale(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}
