package tdigest

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestResetMatchesFresh: a digest reused through Reset — its buffer,
// centroid and spare arrays already grown and holding stale values — gives
// the same bits as a fresh digest fed the same samples, across several
// compressions and through Merge.
func TestResetMatchesFresh(t *testing.T) {
	reused := filledDigest(1, 5000)
	reused.Quantile(0.5) // leave a spare array behind too
	for seed, n := range []int{0, 1, 63, 64, 65, 799, 800, 801, 3000} {
		reused.Reset()
		fresh := New(100)
		other := filledDigest(int64(100+seed), 300)
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < n; i++ {
			x, w := rng.ExpFloat64()*20, float64(1+rng.Intn(3))
			reused.AddWeighted(x, w)
			fresh.AddWeighted(x, w)
		}
		reused.Merge(other)
		fresh.Merge(other)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			if got, want := reused.Quantile(q), fresh.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d: Quantile(%v) = %v after Reset, fresh digest says %v", n, q, got, want)
			}
		}
		if got, want := reused.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: snapshot after Reset differs from a fresh digest's", n)
		}
	}
}

// TestByMeanSortsLikeSortSlice: compress sorts with slices.SortFunc(byMean)
// where it once used sort.Slice with a less-by-mean function. Both run the
// same pdqsort, so with many tied means (told apart here by weight) they
// must produce the same permutation, which keeps compressed digests
// bit-identical.
func TestByMeanSortsLikeSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 12, 13, 50, 200, 801, 1700} {
		for trial := 0; trial < 20; trial++ {
			a := make([]centroid, n)
			for i := range a {
				a[i] = centroid{mean: float64(rng.Intn(n/3 + 1)), weight: float64(i)}
			}
			if trial%4 == 0 {
				slices.SortFunc(a, byMean) // presorted runs take other branches
				a[rng.Intn(n)].mean = -1
			}
			b := slices.Clone(a)
			sort.Slice(a, func(i, j int) bool { return a[i].mean < a[j].mean })
			slices.SortFunc(b, byMean)
			if !slices.Equal(a, b) {
				t.Fatalf("n=%d trial %d: slices.SortFunc(byMean) and sort.Slice disagree", n, trial)
			}
		}
	}
}

// TestSmallDigestBufferStaysSmall: the buffer grows on demand, so a digest
// holding a few samples does not pay for a full 8·δ buffer.
func TestSmallDigestBufferStaysSmall(t *testing.T) {
	d := New(200)
	for i := 0; i < 10; i++ {
		d.Add(float64(i))
	}
	if c := cap(d.buffer); c > initialBuffer {
		t.Errorf("buffer capacity %d after 10 samples, want at most %d", c, initialBuffer)
	}
	for i := 0; i < 5000; i++ {
		d.Add(float64(i))
	}
	if c := cap(d.buffer); c != d.bufferLimit {
		t.Errorf("full buffer capacity %d, want the compression limit %d", c, d.bufferLimit)
	}
}
