package abr

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/video"
)

// linearFeasibleRung is the exhaustive scan highestFeasibleRung replaces:
// simulate every rung and keep the highest feasible one (rung 0 if none).
// It simulates with refBufferPositive, so it also checks the hoisted
// lookahead against per-chunk SizeAt.
func linearFeasibleRung(ctx Context, look int, x units.BitsPerSecond) int {
	best := 0
	for rung := range ctx.Title.Ladder {
		if refBufferPositive(ctx, rung, look, x) {
			best = rung
		}
	}
	return best
}

// refBufferPositive is predictedBufferPositive as it was written before
// the rung's nominal size was hoisted out of the loop: one SizeAt call per
// upcoming chunk.
func refBufferPositive(ctx Context, rung, look int, x units.BitsPerSecond) bool {
	buf := ctx.Buffer
	end := min(ctx.ChunkIndex+look, ctx.Title.NumChunks)
	for i := ctx.ChunkIndex; i < end; i++ {
		buf -= x.TimeToSend(ctx.Title.SizeAt(i, rung))
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

// randomLadder draws a strictly ascending ladder of 1–16 rungs. Some steps
// are a single bit per second, so neighbouring rungs can floor to the same
// chunk size; every third ladder is capped with CapAt.
func randomLadder(rng *rand.Rand) video.Ladder {
	n := 1 + rng.Intn(16)
	rates := make([]units.BitsPerSecond, n)
	r := units.BitsPerSecond(50_000 + rng.Intn(500_000))
	for i := range rates {
		rates[i] = r
		if rng.Intn(5) == 0 {
			r++
		} else {
			r += units.BitsPerSecond(1 + rng.Intn(int(r)))
		}
	}
	l := video.NewLadder(rates...)
	if rng.Intn(3) == 0 {
		l = l.CapAt(rates[rng.Intn(n)] + units.BitsPerSecond(rng.Intn(2)))
	}
	return l
}

// TestHighestFeasibleRungMatchesLinearScan checks that the galloping search
// picks exactly the rung the linear scan picks, from every previous rung
// −1…n−1, for HYB's and Production's parameters, over random ladders
// (1-rung ladders included), titles, buffers, buffer caps and throughputs
// from a quarter of the lowest rung to four times the top.
func TestHighestFeasibleRungMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	algs := []struct {
		name string
		alg  Algorithm
		look int
		beta float64
	}{
		{"hyb", HYB{}, 5, 0.5},
		{"production", Production{}, 8, 0.7},
	}
	var cases, interior, oneRung int
	for trial := 0; trial < 3000; trial++ {
		ladder := randomLadder(rng)
		chunkDur := time.Duration(1+rng.Intn(6)) * time.Second
		numChunks := 1 + rng.Intn(40)
		var jitter *rand.Rand
		if rng.Intn(4) != 0 {
			jitter = rng
		}
		title := video.NewTitle(ladder, chunkDur, numChunks, jitter)
		var maxBuf time.Duration
		if rng.Intn(2) == 0 {
			maxBuf = time.Duration(1+rng.Intn(60)) * time.Second
		}
		lo, hi := float64(ladder.Lowest().Bitrate)/4, float64(ladder.Top().Bitrate)*4
		for j := 0; j < 10; j++ {
			x := units.BitsPerSecond(lo * math.Pow(hi/lo, rng.Float64()))
			ctx := Context{
				Title:      title,
				ChunkIndex: rng.Intn(numChunks),
				Buffer:     time.Duration(rng.Int63n(int64(40 * time.Second))),
				MaxBuffer:  maxBuf,
				Playing:    true,
				Throughput: x,
			}
			for _, a := range algs {
				discounted := units.BitsPerSecond(float64(x) * a.beta)
				want := linearFeasibleRung(ctx, a.look, discounted)
				for prev := -1; prev < len(ladder); prev++ {
					ctx.PrevRung = prev
					if got := highestFeasibleRung(ctx, a.look, discounted); got != want {
						t.Fatalf("trial %d %s prev %d: highestFeasibleRung = %d, linear scan = %d (ladder %v, ctx %+v)",
							trial, a.name, prev, got, want, ladder, ctx)
					}
					// HYB returns the feasibility answer as is; Production
					// damps a climb to one rung unless the buffer is
					// comfortable (its default UpSwitchBuffer is 8 s).
					wantSel := want
					if a.name == "production" && prev >= 0 && want > prev && ctx.Buffer < 8*time.Second {
						wantSel = prev + 1
					}
					if got := a.alg.SelectRung(ctx); got != wantSel {
						t.Fatalf("trial %d %s prev %d: SelectRung = %d, want %d", trial, a.name, prev, got, wantSel)
					}
					cases++
					if want > 0 && want < len(ladder)-1 {
						interior++
					}
					if len(ladder) == 1 {
						oneRung++
					}
				}
			}
		}
	}
	// The draws must exercise the search, not just its two ends, and reach
	// the degenerate 1-rung ladder.
	if interior < cases/4 {
		t.Errorf("only %d of %d cases picked an interior rung", interior, cases)
	}
	if oneRung == 0 {
		t.Error("no 1-rung ladder drawn")
	}
}
