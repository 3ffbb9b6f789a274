package abr

import (
	"time"

	"repro/internal/units"
)

// Production is the stand-in for the proprietary MPC-style production
// algorithm the paper experiments against (§4.3). The paper cannot describe
// Netflix's algorithm; it does tell us the decision structure that matters
// for the reproduction:
//
//   - it is MPC-style: it simulates buffer evolution over a lookahead window
//     using a throughput estimate and upcoming chunk sizes (the HYB analysis
//     of §4.2 "also applies to MPC algorithms");
//   - at startup, before in-session measurements exist, it selects bitrates
//     from historical throughput (§4.1);
//   - like any deployed algorithm, it has switching hysteresis so quality
//     does not flap chunk-to-chunk.
//
// Production composes those three pieces: an HYB-style lookahead core, a
// startup path driven by Context.InitialEstimate, and up/down switching
// damping.
type Production struct {
	// Beta is the throughput-discount safety factor; default 0.7 (a tuned
	// production system trusts its estimator more than the worked examples'
	// 0.5).
	Beta float64
	// Lookahead is the MPC horizon in chunks; default 8.
	Lookahead int
	// StartupSafety scales the historical estimate for the very first
	// chunks. Values below 1 discount an untrusted estimate; values up to 2
	// are allowed for estimators that are known to be biased low (an
	// initial-only history is, because it includes cold-connection chunks).
	// Default 0.85.
	StartupSafety float64
	// UpSwitchBuffer is the minimum buffer required to switch up more than
	// one rung at a time; default 8s.
	UpSwitchBuffer time.Duration
}

// Name implements Algorithm.
func (p Production) Name() string { return "production" }

func (p Production) params() (beta float64, look int, safety float64, upBuf time.Duration) {
	beta = p.Beta
	if beta <= 0 || beta > 1 {
		beta = 0.7
	}
	look = p.Lookahead
	if look <= 0 {
		look = 8
	}
	safety = p.StartupSafety
	if safety <= 0 || safety > 2 {
		safety = 0.85
	}
	upBuf = p.UpSwitchBuffer
	if upBuf <= 0 {
		upBuf = 8 * time.Second
	}
	return beta, look, safety, upBuf
}

// SelectRung implements Algorithm.
func (p Production) SelectRung(ctx Context) int {
	beta, look, safety, upBuf := p.params()

	x := ctx.Throughput
	if x <= 0 {
		// Startup: no in-session measurement. Use the historical initial
		// estimate with the extra startup discount (§4.1's "historical
		// throughput from previous sessions").
		est := units.BitsPerSecond(float64(ctx.InitialEstimate) * safety)
		if est <= 0 {
			return 0
		}
		return maxRungAtOrBelow(ctx.Title.Ladder, units.BitsPerSecond(float64(est)*beta))
	}

	best := highestFeasibleRung(ctx, look, units.BitsPerSecond(float64(x)*beta))

	// Hysteresis: climbing is damped to one rung per chunk unless the
	// buffer is comfortable; dropping is immediate (rebuffer avoidance
	// always wins).
	if ctx.PrevRung >= 0 && best > ctx.PrevRung {
		if ctx.Buffer < upBuf {
			best = ctx.PrevRung + 1
		}
	}
	return best
}

// MinThroughputFor reports the production algorithm's decision threshold,
// the analogue of HYB's Eq. 1 with the production β. Sammy's pace-rate
// floor is computed against this (§4.2: "we must pick a pace rate higher
// than this value").
func (p Production) MinThroughputFor(r units.BitsPerSecond, b0, d time.Duration) units.BitsPerSecond {
	beta, _, _, _ := p.params()
	if d <= 0 {
		return 0
	}
	return units.BitsPerSecond(float64(r) / beta / (1 + float64(b0)/float64(d)))
}
