package tdigest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refDigest is the merging digest as it was before kBound: the same
// buffer, the same compression trigger and the same sort, but compress
// evaluates the k1 bound with one asin per merged sample. It is the oracle
// the threshold test must reproduce bit for bit.
type refDigest struct {
	compression float64
	limit       int
	centroids   []centroid
	buffer      []centroid
	count       float64
}

func newRef(compression float64) *refDigest {
	compression = max(compression, 10)
	return &refDigest{compression: compression, limit: int(8 * compression)}
}

func (r *refDigest) add(x, w float64) {
	if math.IsNaN(x) || w <= 0 {
		return
	}
	r.buffer = append(r.buffer, centroid{mean: x, weight: w})
	r.count += w
	if len(r.buffer) == r.limit {
		r.compress()
	}
}

func (r *refDigest) merge(other *refDigest) {
	other.compress()
	for _, c := range other.centroids {
		r.add(c.mean, c.weight)
	}
}

func (r *refDigest) kScale(q float64) float64 {
	q = min(max(q, 0), 1)
	return r.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// paths counts how the kBound of a digest with r's compression would
// decide each step of r's compressions: by the threshold alone, in the
// guard band below the q = 1 threshold, in the band of an interior
// threshold, or on a centroid that takes the asin test throughout.
type paths struct{ threshold, bandAtOne, bandInterior, exactOnly int }

var seen paths

func (r *refDigest) compress() {
	if len(r.buffer) == 0 {
		return
	}
	probe := New(r.compression)
	merged := append(append([]centroid(nil), r.centroids...), r.buffer...)
	r.buffer = r.buffer[:0]
	slices.SortFunc(merged, byMean)
	out := merged[:0]
	var cum float64
	cur := merged[0]
	kLo := r.kScale(0)
	qLo := 0.0
	for _, c := range merged[1:] {
		proposed := cur.weight + c.weight
		q1 := (cum + proposed) / r.count
		switch b := probe.bound(qLo); {
		case math.IsInf(b.lo, -1):
			seen.exactOnly++
		case q1 < b.lo || q1 > b.hi:
			seen.threshold++
		case math.IsInf(b.hi, 1):
			seen.bandAtOne++
		default:
			seen.bandInterior++
		}
		if r.kScale(q1)-kLo <= 1 {
			cur.mean = (cur.mean*cur.weight + c.mean*c.weight) / proposed
			cur.weight = proposed
		} else {
			out = append(out, cur)
			cum += cur.weight
			qLo = cum / r.count
			kLo = r.kScale(qLo)
			cur = c
		}
	}
	r.centroids = append(out, cur)
}

// sameState compares the digest's centroids and buffer with the
// reference's, value for value.
func sameState(t *testing.T, label string, d *TDigest, r *refDigest) {
	t.Helper()
	if d.count != r.count || len(d.buffer) != len(r.buffer) || !slices.Equal(d.centroids, r.centroids) {
		t.Fatalf("%s: digest (count %v, %d buffered, %d centroids) differs from the asin reference (count %v, %d buffered, %d centroids)",
			label, d.count, len(d.buffer), len(d.centroids), r.count, len(r.buffer), len(r.centroids))
	}
}

// TestCompressMatchesAsinReference feeds the digest and the asin reference
// the same samples — compressions 10 to 200, tied means, weights from
// 1e-3 to 1e12, enough samples to fill the buffer several times, and
// Merge — and requires identical centroids (==) after every buffer fill
// and at the end. It also requires every kBound path to have been taken.
func TestCompressMatchesAsinReference(t *testing.T) {
	seen = paths{}
	rng := rand.New(rand.NewSource(21))
	compressions := []float64{10, 13.7, 25, 50, 100, 150, 200}
	for i := 0; i < 8; i++ {
		compressions = append(compressions, 10+190*rng.Float64())
	}
	sample := func(kind int) (x, w float64) {
		switch kind {
		case 0: // continuous, unit weights
			return rng.NormFloat64(), 1
		case 1: // tied means
			return float64(rng.Intn(5)), 1
		case 2: // mixed weights, the player's packet counts
			return rng.ExpFloat64() * 30, float64(1 + rng.Intn(40))
		default: // wild weights: tiny, fractional and huge
			return rng.NormFloat64(), math.Pow(10, -3+15*rng.Float64())
		}
	}
	for _, delta := range compressions {
		for kind := 0; kind < 4; kind++ {
			d, r := New(delta), newRef(delta)
			n := 3*int(8*max(delta, 10)) + rng.Intn(200)
			for i := 0; i < n; i++ {
				x, w := sample(kind)
				d.AddWeighted(x, w)
				r.add(x, w)
				if len(r.buffer) == 0 { // a buffer fill just compressed both
					sameState(t, "after buffer fill", d, r)
				}
			}
			od, or := New(delta), newRef(delta)
			for i := 0; i < 500; i++ {
				x, w := sample(kind)
				od.AddWeighted(x+1, w)
				or.add(x+1, w)
			}
			d.Merge(od)
			r.merge(or)
			d.compress()
			r.compress()
			sameState(t, "after Merge", d, r)
		}
	}
	// A centroid that starts within guard of q = 0: one huge weight above
	// a light tail.
	for _, delta := range compressions {
		d, r := New(delta), newRef(delta)
		for i := 0; i < 50; i++ {
			x, w := float64(i), 1.0
			if i == 49 {
				w = 1e14
			}
			d.AddWeighted(x, w)
			r.add(x, w)
		}
		d.compress()
		r.compress()
		sameState(t, "light tail under a heavy point", d, r)
	}
	if seen.threshold == 0 || seen.bandAtOne == 0 || seen.exactOnly == 0 {
		t.Errorf("kBound paths taken: %+v; the threshold, the q = 1 band and the exact-only centroid must all occur", seen)
	}
}

// TestBoundAgreesWithAsinNearThreshold probes kBound.allows at and around
// its threshold — inside the guard band, at its edges and just outside —
// for random compressions and centroid starts (uniform, and within 1e-15
// of either end), against the asin test it replaces.
func TestBoundAgreesWithAsinNearThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	offsets := []float64{0, guard / 2, guard, 1.5 * guard, 4 * guard, 1e-6}
	var interior int
	for i := 0; i < 20000; i++ {
		d := New(10 + 190*rng.Float64())
		var qLo float64
		switch rng.Intn(3) {
		case 0:
			qLo = rng.Float64()
		case 1:
			qLo = math.Pow(10, -15*rng.Float64())
		default:
			qLo = 1 - math.Pow(10, -15*rng.Float64())
		}
		b := d.bound(qLo)
		var thr float64
		switch {
		case math.IsInf(b.lo, -1):
			continue // the asin test decides throughout
		case math.IsInf(b.hi, 1):
			thr = 1
		default:
			thr = (b.lo + b.hi) / 2
			interior++
		}
		for _, off := range offsets {
			for _, q1 := range []float64{thr - off, thr + off, math.Nextafter(thr, 2), math.Nextafter(thr, -1)} {
				want := d.kScale(q1)-d.kScale(qLo) <= 1
				if got := b.allows(q1); got != want {
					t.Fatalf("compression %v, qLo %v, q1 %v (thr %v): allows = %v, asin test says %v",
						d.compression, qLo, q1, thr, got, want)
				}
			}
		}
	}
	if interior == 0 {
		t.Error("no interior threshold probed")
	}
}

// BenchmarkSessionMedian is the player's per-session use of a digest:
// Reset, about 130 RTT samples weighted by packet count, then the median.
func BenchmarkSessionMedian(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 130)
	ws := make([]float64, len(xs))
	for i := range xs {
		xs[i], ws[i] = 20+rng.ExpFloat64()*30, float64(1+rng.Intn(40))
	}
	d := New(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset()
		for j, x := range xs {
			d.AddWeighted(x, ws[j])
		}
		d.Quantile(0.5)
	}
}
