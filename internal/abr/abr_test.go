package abr

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
	"repro/internal/video"
)

func testCtx(buf time.Duration, tput units.BitsPerSecond) Context {
	title := video.NewTitle(video.DefaultLadder(), 4*time.Second, 300, nil)
	return Context{
		Title:      title,
		ChunkIndex: 10,
		Buffer:     buf,
		MaxBuffer:  60 * time.Second,
		Playing:    true,
		Throughput: tput,
		PrevRung:   -1,
	}
}

func TestEstimatorHarmonicMean(t *testing.T) {
	e := NewEstimator(5)
	if e.Estimate() != 0 {
		t.Error("empty estimator should report 0")
	}
	e.Observe(10 * units.Mbps)
	e.Observe(10 * units.Mbps)
	if got := e.Estimate(); math.Abs(float64(got-10*units.Mbps)) > 1 {
		t.Errorf("estimate = %v, want 10Mbps", got)
	}
	// Harmonic mean punishes a slow outlier: HM(10, 1) ≈ 1.82.
	e.Reset()
	e.Observe(10 * units.Mbps)
	e.Observe(1 * units.Mbps)
	got := e.Estimate().Mbps()
	if math.Abs(got-1.818) > 0.01 {
		t.Errorf("harmonic mean = %v, want ≈1.818", got)
	}
}

func TestEstimatorWindowSlides(t *testing.T) {
	e := NewEstimator(2)
	e.Observe(1 * units.Mbps)
	e.Observe(100 * units.Mbps)
	e.Observe(100 * units.Mbps)
	if e.Count() != 2 {
		t.Fatalf("window size = %d", e.Count())
	}
	if got := e.Estimate().Mbps(); math.Abs(got-100) > 0.1 {
		t.Errorf("estimate = %v, old sample should have slid out", got)
	}
	e.Observe(0)  // ignored
	e.Observe(-5) // ignored
	if e.Count() != 2 {
		t.Error("non-positive observations should be ignored")
	}
}

// TestEstimatorObserveAllocFree: a warm estimator shifts its window in
// place instead of re-slicing forward, so steady-state Observe never
// allocates.
func TestEstimatorObserveAllocFree(t *testing.T) {
	e := NewEstimator(5)
	for i := 1; i <= 10; i++ {
		e.Observe(units.BitsPerSecond(i) * units.Mbps)
	}
	x := units.BitsPerSecond(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		x++
		e.Observe(x * units.Mbps)
	}); allocs != 0 {
		t.Errorf("Observe allocates %v times per call after warm-up, want 0", allocs)
	}
}

// TestEstimatorMatchesSlidingWindow checks the in-place shift against the
// reference sliding window (append, then drop the oldest): same samples in
// the same oldest-to-newest order, hence a bit-identical harmonic mean.
func TestEstimatorMatchesSlidingWindow(t *testing.T) {
	for _, size := range []int{1, 2, 5, 7} {
		e := NewEstimator(size)
		var ref []units.BitsPerSecond
		x := units.BitsPerSecond(0.37 * float64(units.Mbps))
		for i := 0; i < 50; i++ {
			x = x*1.7 + units.BitsPerSecond(i%5)*units.Mbps
			if x > 100*units.Mbps {
				x /= 97
			}
			e.Observe(x)
			ref = append(ref, x)
			if len(ref) > size {
				ref = ref[1:]
			}
			var inv float64
			for _, r := range ref {
				inv += 1 / float64(r)
			}
			want := units.BitsPerSecond(float64(len(ref)) / inv)
			if got := e.Estimate(); got != want || e.Count() != len(ref) {
				t.Fatalf("window %d, sample %d: estimate %v (n=%d), reference %v (n=%d)",
					size, i, got, e.Count(), want, len(ref))
			}
		}
	}
}

func TestHYBMoreThroughputHigherRung(t *testing.T) {
	h := HYB{Beta: 0.5, Lookahead: 5}
	prev := -1
	for _, mbps := range []float64{1, 3, 10, 30, 100} {
		rung := h.SelectRung(testCtx(10*time.Second, units.BitsPerSecond(mbps)*units.Mbps))
		if rung < prev {
			t.Fatalf("rung decreased with more throughput at %v Mbps", mbps)
		}
		prev = rung
	}
	if prev != len(video.DefaultLadder())-1 {
		t.Errorf("100 Mbps should reach the top rung, got %d", prev)
	}
}

func TestHYBMoreBufferHigherRung(t *testing.T) {
	// Fig 2a: with fixed throughput, a bigger buffer allows higher rungs.
	h := HYB{Beta: 0.5, Lookahead: 5}
	x := 6 * units.Mbps
	lowBuf := h.SelectRung(testCtx(0, x))
	highBuf := h.SelectRung(testCtx(40*time.Second, x))
	if highBuf <= lowBuf {
		t.Errorf("rung with 40s buffer (%d) should exceed rung with empty buffer (%d)", highBuf, lowBuf)
	}
}

func TestHYBZeroThroughputPicksLowest(t *testing.T) {
	h := HYB{}
	if got := h.SelectRung(testCtx(10*time.Second, 0)); got != 0 {
		t.Errorf("no estimate should pick rung 0, got %d", got)
	}
}

func TestHYBThresholdEquation(t *testing.T) {
	// Eq. 1: with empty buffer and β=0.5, the required throughput is twice
	// the bitrate (the paper's worked example).
	h := HYB{Beta: 0.5}
	r := 4 * units.Mbps
	d := 20 * time.Second
	if got := h.MinThroughputFor(r, 0, d); got != 8*units.Mbps {
		t.Errorf("empty-buffer threshold = %v, want 8Mbps", got)
	}
	// Threshold falls as the buffer grows (Fig 2b).
	if got := h.MinThroughputFor(r, d, d); got != 4*units.Mbps {
		t.Errorf("B0=D threshold = %v, want 4Mbps", got)
	}
}

func TestHYBThresholdDualityProperty(t *testing.T) {
	// MaxBitrateFor and MinThroughputFor are inverses.
	h := HYB{Beta: 0.5}
	f := func(mbps uint8, bufS uint8) bool {
		x := units.BitsPerSecond(int(mbps)+1) * units.Mbps
		b0 := time.Duration(bufS) * time.Second
		d := 20 * time.Second
		r := h.MaxBitrateFor(x, b0, d)
		back := h.MinThroughputFor(r, b0, d)
		return math.Abs(float64(back-x))/float64(x) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHYBSelectionConsistentWithThreshold(t *testing.T) {
	// If HYB picks rung k, its threshold for rung k must be ≤ the estimate
	// (the decision-problem view §3.1 relies on).
	h := HYB{Beta: 0.5, Lookahead: 5}
	ctx := testCtx(8*time.Second, 12*units.Mbps)
	rung := h.SelectRung(ctx)
	d := time.Duration(h.Lookahead) * ctx.Title.ChunkDuration
	need := h.MinThroughputFor(ctx.Title.Ladder[rung].Bitrate, ctx.Buffer, d)
	// Allow slack for VBR size jitter (none here) and buffer growth during
	// the lookahead, which the closed form ignores.
	if float64(need) > float64(ctx.Throughput)*1.3 {
		t.Errorf("picked rung %d needs %v but estimate is %v", rung, need, ctx.Throughput)
	}
}

func TestBufferBasedRegions(t *testing.T) {
	b := BufferBased{Reservoir: 5 * time.Second, Cushion: 20 * time.Second}
	top := len(video.DefaultLadder()) - 1
	if got := b.SelectRung(testCtx(3*time.Second, 50*units.Mbps)); got != 0 {
		t.Errorf("below reservoir = rung %d, want 0", got)
	}
	if got := b.SelectRung(testCtx(25*time.Second, 1*units.Mbps)); got != top {
		t.Errorf("above cushion = rung %d, want top %d", got, top)
	}
	mid := b.SelectRung(testCtx(12*time.Second, 50*units.Mbps))
	if mid <= 0 || mid >= top {
		t.Errorf("mid-buffer rung = %d, want strictly between", mid)
	}
}

func TestBufferBasedMonotoneInBuffer(t *testing.T) {
	b := BufferBased{}
	prev := -1
	for s := 1; s <= 30; s++ {
		rung := b.SelectRung(testCtx(time.Duration(s)*time.Second, 10*units.Mbps))
		if rung < prev {
			t.Fatalf("buffer-based not monotone at %ds: %d < %d", s, rung, prev)
		}
		prev = rung
	}
}

func TestBufferBasedStartupUsesThroughput(t *testing.T) {
	b := BufferBased{}
	ctx := testCtx(0, 0)
	ctx.Playing = false
	ctx.InitialEstimate = 20 * units.Mbps
	rung := b.SelectRung(ctx)
	if rung == 0 {
		t.Error("startup with a good estimate should not pick the lowest rung")
	}
}

func TestSimpleThroughputRule(t *testing.T) {
	s := SimpleThroughput{C: 0.5}
	ctx := testCtx(10*time.Second, 10*units.Mbps)
	rung := s.SelectRung(ctx)
	want := ctx.Title.Ladder.Index(5 * units.Mbps)
	if rung != want {
		t.Errorf("rung = %d, want %d (highest below 0.5×10Mbps)", rung, want)
	}
	if got := s.SelectRung(testCtx(10*time.Second, 0)); got != 0 {
		t.Errorf("no estimate = rung %d, want 0", got)
	}
}

func TestSimpleThroughputDownwardSpiral(t *testing.T) {
	// §2.3.1's worked example: pace at 1.5× the current bitrate while the
	// ABR picks the highest bitrate < 0.5× measured throughput, and the
	// selection spirals to the bottom of the ladder.
	s := SimpleThroughput{C: 0.5}
	title := video.NewTitle(video.DefaultLadder(), 4*time.Second, 100, nil)
	rung := len(title.Ladder) - 1
	for i := 0; i < 30; i++ {
		paceRate := units.BitsPerSecond(1.5 * float64(title.Ladder[rung].Bitrate))
		// The network is fast, so measured throughput equals the pace rate.
		ctx := Context{Title: title, ChunkIndex: i, Buffer: 20 * time.Second,
			Playing: true, Throughput: paceRate, PrevRung: rung}
		next := s.SelectRung(ctx)
		if next > rung {
			t.Fatalf("spiral reversed at step %d", i)
		}
		rung = next
	}
	if rung != 0 {
		t.Errorf("expected downward spiral to rung 0, stuck at %d", rung)
	}
}

func TestProductionStartupUsesInitialEstimate(t *testing.T) {
	p := Production{}
	ctx := testCtx(0, 0)
	ctx.Playing = false
	ctx.InitialEstimate = 30 * units.Mbps
	rung := p.SelectRung(ctx)
	if rung == 0 {
		t.Error("startup with 30 Mbps history should not pick rung 0")
	}
	ctx.InitialEstimate = 0
	if got := p.SelectRung(ctx); got != 0 {
		t.Errorf("no history should pick rung 0, got %d", got)
	}
}

func TestProductionOverestimatedHistoryPicksTooHigh(t *testing.T) {
	// §4.1's failure mode: historical estimates polluted by playing-phase
	// throughput overestimate what startup can actually achieve, pushing the
	// initial rung up.
	p := Production{}
	ctx := testCtx(0, 0)
	ctx.Playing = false
	ctx.InitialEstimate = 13 * units.Mbps // playing-phase-derived estimate
	high := p.SelectRung(ctx)
	ctx.InitialEstimate = 5 * units.Mbps // initial-phase-derived estimate
	low := p.SelectRung(ctx)
	if high <= low {
		t.Errorf("polluted history rung %d should exceed clean rung %d", high, low)
	}
}

func TestProductionHysteresisDampsUpSwitch(t *testing.T) {
	p := Production{}
	ctx := testCtx(3*time.Second, 100*units.Mbps) // buffer below UpSwitchBuffer
	ctx.PrevRung = 2
	rung := p.SelectRung(ctx)
	if rung != 3 {
		t.Errorf("low-buffer up-switch = %d, want damped to 3", rung)
	}
	ctx.Buffer = 30 * time.Second // comfortable buffer: jump allowed
	rung = p.SelectRung(ctx)
	if rung <= 3 {
		t.Errorf("high-buffer up-switch = %d, want > 3", rung)
	}
}

func TestProductionDownSwitchImmediate(t *testing.T) {
	p := Production{}
	ctx := testCtx(2*time.Second, 1*units.Mbps)
	ctx.PrevRung = len(video.DefaultLadder()) - 1
	rung := p.SelectRung(ctx)
	if rung >= ctx.PrevRung-1 {
		t.Errorf("down-switch = %d from %d, want immediate drop", rung, ctx.PrevRung)
	}
}

func TestProductionSameDecisionUnderPacingAboveThreshold(t *testing.T) {
	// The core §4.2 claim: if the measured throughput stays above the
	// algorithm's decision threshold for the top rung, bitrate decisions are
	// unchanged by pacing.
	p := Production{}
	title := video.NewTitle(video.DefaultLadder(), 4*time.Second, 300, nil)
	top := title.Ladder.Top().Bitrate
	d := 8 * title.ChunkDuration
	buf := 15 * time.Second
	threshold := p.MinThroughputFor(top, buf, d)

	unpaced := testCtx(buf, 100*units.Mbps)
	// Paced: measured throughput is only slightly above the threshold.
	paced := testCtx(buf, units.BitsPerSecond(float64(threshold)*1.6))
	r1, r2 := p.SelectRung(unpaced), p.SelectRung(paced)
	if r1 != r2 {
		t.Errorf("pacing above threshold changed decision: %d vs %d", r1, r2)
	}
}

func TestAlgorithmNames(t *testing.T) {
	algos := []Algorithm{HYB{}, BufferBased{}, SimpleThroughput{}, Production{}}
	seen := map[string]bool{}
	for _, a := range algos {
		n := a.Name()
		if n == "" || seen[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestAllAlgorithmsReturnValidRungs(t *testing.T) {
	algos := []Algorithm{HYB{}, BufferBased{}, SimpleThroughput{}, Production{}}
	f := func(bufS uint8, mbps uint16, playing bool, prev int8) bool {
		ctx := testCtx(time.Duration(bufS)*time.Second, units.BitsPerSecond(mbps)*units.Mbps/10)
		ctx.Playing = playing
		ctx.PrevRung = int(prev) % len(ctx.Title.Ladder)
		for _, a := range algos {
			r := a.SelectRung(ctx)
			if r < 0 || r >= len(ctx.Title.Ladder) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
