// Package abr implements the adaptive-bitrate algorithms the paper builds
// on and analyzes: the HYB throughput-based algorithm with lookahead that
// §4.2 analyzes, a buffer-based algorithm in the style of BBA [31], a
// production-like MPC-style algorithm with startup hysteresis, and the
// naive throughput rule whose "downward spiral" under pacing §2.3.1
// demonstrates.
//
// All algorithms answer the same question — which ladder rung should the
// next chunk use — through the Algorithm interface, so the player and the
// Sammy wrapper in package core can drive any of them.
package abr

import (
	"time"

	trace "repro/internal/obs/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// Context is everything an algorithm may consult for one decision.
type Context struct {
	Title      *video.Title
	ChunkIndex int           // index of the chunk being selected
	Buffer     time.Duration // current playback buffer level
	MaxBuffer  time.Duration // buffer capacity
	Playing    bool          // false during the initial (pre-playback) phase

	// Throughput is the estimator output from this session's own chunk
	// downloads (0 when no measurement exists yet).
	Throughput units.BitsPerSecond
	// InitialEstimate is the historical throughput estimate used before any
	// in-session measurement exists — the estimate whose provenance §4.1 is
	// about.
	InitialEstimate units.BitsPerSecond
	// PrevRung is the rung of the previous chunk, or -1 for the first. Used
	// by algorithms with switching hysteresis.
	PrevRung int
}

// SpanAttrs copies the decision inputs onto sp as span attributes, so a
// traced ABR decision records what the algorithm saw. Nil-safe (a nil span
// is tracing off).
func (c Context) SpanAttrs(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.SetAttr("chunk", float64(c.ChunkIndex)).
		SetAttr("buffer_s", c.Buffer.Seconds()).
		SetAttr("tput_bps", float64(c.Throughput)).
		SetAttr("prev_rung", float64(c.PrevRung))
	if !c.Playing {
		sp.SetAttr("initial_est_bps", float64(c.InitialEstimate))
	}
}

// effectiveThroughput is the estimate an algorithm should rely on: session
// measurements once they exist, otherwise the historical initial estimate.
func (c Context) effectiveThroughput() units.BitsPerSecond {
	if c.Throughput > 0 {
		return c.Throughput
	}
	return c.InitialEstimate
}

// Algorithm selects ladder rungs.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// SelectRung returns the ladder index for the chunk described by ctx.
	SelectRung(ctx Context) int
}

// --- Throughput estimator ----------------------------------------------

// Estimator summarizes recent chunk throughput measurements with a harmonic
// mean over a sliding window, the conventional robust choice (it punishes
// slow outliers, which is what rebuffer avoidance wants).
type Estimator struct {
	window  []units.BitsPerSecond
	maxSize int
}

// NewEstimator returns an estimator over the last window samples; window
// defaults to 5 if non-positive.
func NewEstimator(window int) *Estimator {
	if window <= 0 {
		window = 5
	}
	return &Estimator{window: make([]units.BitsPerSecond, 0, window+1), maxSize: window}
}

// Observe records one chunk throughput measurement. The window shifts in
// place, oldest to newest, so a warm estimator never allocates.
func (e *Estimator) Observe(x units.BitsPerSecond) {
	if x <= 0 {
		return
	}
	e.window = append(e.window, x)
	if len(e.window) > e.maxSize {
		e.window = e.window[:copy(e.window, e.window[1:])]
	}
}

// Estimate reports the harmonic mean of the window, or 0 with no samples.
func (e *Estimator) Estimate() units.BitsPerSecond {
	if len(e.window) == 0 {
		return 0
	}
	var invSum float64
	for _, x := range e.window {
		invSum += 1 / float64(x)
	}
	return units.BitsPerSecond(float64(len(e.window)) / invSum)
}

// Size reports the window length the estimator averages over.
func (e *Estimator) Size() int { return e.maxSize }

// Count reports how many samples are in the window.
func (e *Estimator) Count() int { return len(e.window) }

// Reset discards all samples.
func (e *Estimator) Reset() { e.window = e.window[:0] }

// --- HYB with lookahead --------------------------------------------------

// HYB is the throughput-based algorithm of §4.2 (from Oboe [4]), modified to
// use lookahead: it discounts the throughput estimate by β, predicts buffer
// evolution over the next Lookahead chunks with the Appendix A update
// equation, and picks the highest rung that keeps the predicted buffer
// positive.
type HYB struct {
	// Beta discounts throughput estimates to absorb prediction error;
	// must be in (0, 1]. The paper's worked examples use 0.5.
	Beta float64
	// Lookahead is the number of upcoming chunks simulated; defaults to 5.
	Lookahead int
}

// Name implements Algorithm.
func (h HYB) Name() string { return "hyb" }

// SelectRung implements Algorithm.
func (h HYB) SelectRung(ctx Context) int {
	beta := h.Beta
	if beta <= 0 || beta > 1 {
		beta = 0.5
	}
	look := h.Lookahead
	if look <= 0 {
		look = 5
	}
	x := ctx.effectiveThroughput()
	if x <= 0 {
		return 0
	}
	return highestFeasibleRung(ctx, look, units.BitsPerSecond(float64(x)*beta))
}

// highestFeasibleRung is the highest rung whose predicted buffer stays
// positive over the lookahead at throughput x, or rung 0 when none does.
// Feasibility is monotone in the rung — ladder bitrates strictly ascend,
// the chunk size floors nominal·jitter, TimeToSend truncates and the
// MaxBuffer clamp is monotone, so a larger rung never leaves more buffer at
// any step — which makes the feasible rungs a prefix of the ladder, and any
// search that brackets the prefix's end finds the same rung. This one
// gallops outward from the previous rung, where the answer usually is (a
// stable rung costs two simulations), then bisects the bracket. Rung 0 is
// the answer whether or not it is feasible, so it is never simulated.
func highestFeasibleRung(ctx Context, look int, x units.BitsPerSecond) int {
	feasible := func(rung int) bool { return predictedBufferPositive(ctx, rung, look, x) }
	n := len(ctx.Title.Ladder)
	// Invariant: lo is 0 or feasible, hi is n or infeasible, and the rungs
	// strictly between them are unknown.
	lo, hi := 0, n
	if p := ctx.PrevRung; p >= 0 && p < n {
		if p == 0 || feasible(p) {
			lo = p
			for step := 1; lo+step < n; step *= 2 {
				if !feasible(lo + step) {
					hi = lo + step
					break
				}
				lo += step
			}
		} else {
			hi = p
			for step := 1; hi-step > 0; step *= 2 {
				if feasible(hi - step) {
					lo = hi - step
					break
				}
				hi -= step
			}
		}
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// predictedBufferPositive simulates the buffer over the lookahead at the
// given rung and discounted throughput, chunk by chunk with real sizes. It
// runs once per probed rung per chunk decision across every simulated
// session, so it walks the title's RungSizes view, which computes the
// rung's nominal size once per call instead of once per chunk.
func predictedBufferPositive(ctx Context, rung, look int, x units.BitsPerSecond) bool {
	buf := ctx.Buffer
	sizes := ctx.Title.RungSizes(rung, ctx.ChunkIndex, ctx.ChunkIndex+look)
	for i := range sizes.Len() {
		buf -= x.TimeToSend(sizes.At(i))
		if buf < 0 {
			return false
		}
		buf += ctx.Title.ChunkDuration
		if ctx.MaxBuffer > 0 && buf > ctx.MaxBuffer {
			buf = ctx.MaxBuffer
		}
	}
	return true
}

// MinThroughputFor reports HYB's decision threshold (paper Eq. 1): the
// minimum throughput estimate that lets HYB pick bitrate r with starting
// buffer b0 over lookahead duration d. This is the function Sammy's pace
// rates must stay above (Fig 2b).
func (h HYB) MinThroughputFor(r units.BitsPerSecond, b0, d time.Duration) units.BitsPerSecond {
	beta := h.Beta
	if beta <= 0 || beta > 1 {
		beta = 0.5
	}
	if d <= 0 {
		return 0
	}
	return units.BitsPerSecond(float64(r) / beta / (1 + float64(b0)/float64(d)))
}

// MaxBitrateFor is the dual of MinThroughputFor: the highest bitrate HYB
// would select given throughput estimate x (Fig 2a's boundary).
func (h HYB) MaxBitrateFor(x units.BitsPerSecond, b0, d time.Duration) units.BitsPerSecond {
	beta := h.Beta
	if beta <= 0 || beta > 1 {
		beta = 0.5
	}
	if d <= 0 {
		return 0
	}
	return units.BitsPerSecond(float64(x) * beta * (1 + float64(b0)/float64(d)))
}

// --- Buffer-based (BBA-style) ---------------------------------------------

// BufferBased selects rungs as a function of buffer occupancy alone, in the
// style of BBA [31]: lowest rung below Reservoir, highest above Cushion,
// linear in between. During the initial phase (no buffer yet) it falls back
// to a throughput pick, as deployed buffer-based algorithms do [64].
type BufferBased struct {
	Reservoir time.Duration // below this, pick the lowest rung; default 5s
	Cushion   time.Duration // above this, pick the highest rung; default 20s
}

// Name implements Algorithm.
func (b BufferBased) Name() string { return "buffer-based" }

// SelectRung implements Algorithm.
func (b BufferBased) SelectRung(ctx Context) int {
	reservoir := b.Reservoir
	if reservoir <= 0 {
		reservoir = 5 * time.Second
	}
	cushion := b.Cushion
	if cushion <= 0 {
		cushion = 20 * time.Second
	}
	ladder := ctx.Title.Ladder
	if !ctx.Playing || ctx.Buffer == 0 {
		// Startup: conservative throughput-based pick.
		x := ctx.effectiveThroughput()
		if x <= 0 {
			return 0
		}
		return maxRungAtOrBelow(ladder, units.BitsPerSecond(float64(x)*0.5))
	}
	switch {
	case ctx.Buffer <= reservoir:
		return 0
	case ctx.Buffer >= cushion:
		return len(ladder) - 1
	default:
		frac := float64(ctx.Buffer-reservoir) / float64(cushion-reservoir)
		lo := float64(ladder.Lowest().Bitrate)
		hi := float64(ladder.Top().Bitrate)
		target := units.BitsPerSecond(lo + frac*(hi-lo))
		return maxRungAtOrBelow(ladder, target)
	}
}

// --- Naive throughput rule -------------------------------------------------

// SimpleThroughput is the §2.3.1 strawman: the highest bitrate below
// C × estimate, with no buffer awareness. Under pacing at a fixed multiple
// of the current bitrate with C·multiple < 1 it exhibits the downward
// spiral the paper describes.
type SimpleThroughput struct {
	// C is the safety fraction; the paper's example (dash.js's low-buffer
	// default) uses 0.5.
	C float64
}

// Name implements Algorithm.
func (s SimpleThroughput) Name() string { return "simple-throughput" }

// SelectRung implements Algorithm.
func (s SimpleThroughput) SelectRung(ctx Context) int {
	c := s.C
	if c <= 0 {
		c = 0.5
	}
	x := ctx.effectiveThroughput()
	if x <= 0 {
		return 0
	}
	return maxRungAtOrBelow(ctx.Title.Ladder, units.BitsPerSecond(float64(x)*c))
}

// maxRungAtOrBelow returns the highest rung index with bitrate ≤ target,
// or 0 when none qualifies.
func maxRungAtOrBelow(l video.Ladder, target units.BitsPerSecond) int {
	if i := l.Index(target); i >= 0 {
		return i
	}
	return 0
}
