// Package video models the on-demand streaming data the paper's systems
// operate on: bitrate ladders, chunks, a synthetic catalog, a concave
// quality (VMAF-like) curve, and the playback-buffer arithmetic formalized
// in the paper's Appendix A.
package video

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/units"
)

// Rung is one entry in a bitrate ladder: an encoding of the title at a
// particular average bitrate with an associated perceptual quality score.
type Rung struct {
	Bitrate units.BitsPerSecond // average encoding bitrate
	VMAF    float64             // perceptual quality score in [0, 100]
}

// Ladder is an ascending list of rungs. Methods assume (and NewLadder
// enforces) ascending bitrate order.
type Ladder []Rung

// NewLadder builds a ladder from ascending bitrates, assigning each rung a
// VMAF score from a concave diminishing-returns curve anchored so the top
// rung approaches the ceiling. Real encoding ladders behave this way: each
// bitrate doubling buys a shrinking quality gain.
func NewLadder(bitrates ...units.BitsPerSecond) Ladder {
	if len(bitrates) == 0 {
		panic("video: ladder needs at least one rung")
	}
	for i := 1; i < len(bitrates); i++ {
		if bitrates[i] <= bitrates[i-1] {
			panic("video: ladder bitrates must be strictly ascending")
		}
	}
	top := float64(bitrates[len(bitrates)-1])
	l := make(Ladder, len(bitrates))
	for i, b := range bitrates {
		l[i] = Rung{Bitrate: b, VMAF: vmafCurve(float64(b), top)}
	}
	return l
}

// vmafCurve is a concave map from bitrate to a VMAF-like score: ~55 at a
// tenth of the top bitrate, ~95 at the top. The exact curve does not matter
// for the reproduction — only monotonicity and concavity do, since all VMAF
// results are relative.
func vmafCurve(b, top float64) float64 {
	// Logarithmic saturation: score = 95 + 17.4·log10(b/top), clamped.
	s := 95 + 17.4*math.Log10(b/top)
	if s < 10 {
		s = 10
	}
	if s > 100 {
		s = 100
	}
	return s
}

// Top returns the highest rung.
func (l Ladder) Top() Rung { return l[len(l)-1] }

// Lowest returns the lowest rung.
func (l Ladder) Lowest() Rung { return l[0] }

// Index returns the position of the highest rung with bitrate ≤ r, or -1
// when even the lowest rung exceeds r.
func (l Ladder) Index(r units.BitsPerSecond) int {
	best := -1
	for i, rung := range l {
		if rung.Bitrate <= r {
			best = i
		}
	}
	return best
}

// HighestBelow returns the highest rung with bitrate ≤ r, falling back to
// the lowest rung (players always have something to play).
func (l Ladder) HighestBelow(r units.BitsPerSecond) Rung {
	if i := l.Index(r); i >= 0 {
		return l[i]
	}
	return l[0]
}

// CapAt returns the ladder restricted to rungs with bitrate ≤ limit, the
// per-device/plan ladder subset of §2.1. At least the lowest rung is always
// kept. Rung VMAF scores are preserved: a 5.8 Mbps encode looks the same
// whether or not higher encodes exist.
func (l Ladder) CapAt(limit units.BitsPerSecond) Ladder {
	n := 1
	for i := 1; i < len(l); i++ {
		if l[i].Bitrate <= limit {
			n = i + 1
		}
	}
	return l[:n]
}

// DefaultLadder is a ladder shaped like a contemporary premium-VOD encode
// (from audio-only-ish rates to 4K-ish): its top rung anchors the "pace at a
// multiple of the highest bitrate" logic.
func DefaultLadder() Ladder {
	return NewLadder(
		235*units.Kbps, 375*units.Kbps, 560*units.Kbps, 750*units.Kbps,
		1050*units.Kbps, 1750*units.Kbps, 2350*units.Kbps, 3*units.Mbps,
		4.3*units.Mbps, 5.8*units.Mbps, 8.1*units.Mbps, 11.6*units.Mbps,
		16.8*units.Mbps,
	)
}

// LabLadder matches the paper's lab setup: a video with a maximum bitrate of
// 3.3 Mbps (§6).
func LabLadder() Ladder {
	return NewLadder(
		235*units.Kbps, 375*units.Kbps, 560*units.Kbps, 750*units.Kbps,
		1050*units.Kbps, 1750*units.Kbps, 2350*units.Kbps, 3.3*units.Mbps,
	)
}

// Chunk is one downloadable piece of video at a chosen rung.
type Chunk struct {
	Index    int
	Duration time.Duration
	Rung     Rung
	Size     units.Bytes // encoded size of this chunk at this rung
}

// Title is a synthetic video: a chunked timeline over a ladder, with
// per-chunk size variation around each rung's average bitrate the way real
// VBR encodes vary scene-by-scene.
type Title struct {
	Ladder        Ladder
	ChunkDuration time.Duration
	NumChunks     int
	// sizeJitter[i] multiplies chunk i's nominal size; shared across rungs
	// because scene complexity affects every encode of the same content.
	sizeJitter []float64
}

// NewTitle builds a title of the given length with per-chunk VBR jitter
// drawn from rng (lognormal, σ≈0.2, mean 1). A nil rng yields constant-size
// chunks.
func NewTitle(ladder Ladder, chunkDuration time.Duration, numChunks int, rng *rand.Rand) *Title {
	t := new(Title)
	t.Init(ladder, chunkDuration, numChunks, rng)
	return t
}

// Init redraws t in place as NewTitle would build it, drawing the same
// numbers from rng, but reusing t's jitter storage: a long-lived Title
// serves any number of sessions without allocating once it has held the
// longest of them.
func (t *Title) Init(ladder Ladder, chunkDuration time.Duration, numChunks int, rng *rand.Rand) {
	if numChunks <= 0 || chunkDuration <= 0 {
		panic("video: title needs positive chunk count and duration")
	}
	jitter := t.sizeJitter
	if cap(jitter) < numChunks {
		jitter = make([]float64, numChunks)
	}
	*t = Title{
		Ladder:        ladder,
		ChunkDuration: chunkDuration,
		NumChunks:     numChunks,
		sizeJitter:    jitter[:numChunks],
	}
	for i := range t.sizeJitter {
		if rng == nil {
			t.sizeJitter[i] = 1
		} else {
			// Lognormal with mean 1: exp(N(-σ²/2, σ)).
			const sigma = 0.2
			t.sizeJitter[i] = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
		}
	}
}

// Duration reports the title's total playback duration.
func (t *Title) Duration() time.Duration {
	return time.Duration(t.NumChunks) * t.ChunkDuration
}

// SizeAt reports the encoded size of chunk index at rung rungIndex without
// materializing a Chunk.
func (t *Title) SizeAt(index, rungIndex int) units.Bytes {
	t.checkIndex(index)
	return scaledSize(t.nominalSize(rungIndex), t.sizeJitter[index])
}

// ChunkAt materializes chunk index at rung r.
func (t *Title) ChunkAt(index, rungIndex int) Chunk {
	t.checkIndex(index)
	rung := t.Ladder[rungIndex]
	size := scaledSize(t.nominalSize(rungIndex), t.sizeJitter[index])
	// Scene complexity also moves perceptual quality at a fixed bitrate:
	// complex (larger-than-nominal) chunks score a little lower, easy ones
	// a little higher. This keeps session VMAF off a hard ceiling, so
	// population medians move continuously the way production VMAF does.
	rung.VMAF -= 8 * (t.sizeJitter[index] - 1)
	if rung.VMAF > 100 {
		rung.VMAF = 100
	}
	if rung.VMAF < 10 {
		rung.VMAF = 10
	}
	return Chunk{Index: index, Duration: t.ChunkDuration, Rung: rung, Size: size}
}

// RungSizes is a read-only view of the sizes of a run of consecutive
// chunks at one rung. It hoists the rung's nominal size out of the
// per-chunk loop, so a lookahead that probes one rung over many chunks
// pays for one multiply and floor per chunk; At(i) equals SizeAt(from+i,
// rung) bit for bit.
type RungSizes struct {
	nominal float64
	jitter  []float64
}

// RungSizes returns the sizes of chunks [from, to) at rung rungIndex, with
// to clamped to the title's end (an empty view when from ≥ to).
func (t *Title) RungSizes(rungIndex, from, to int) RungSizes {
	to = min(to, t.NumChunks)
	if from >= to {
		return RungSizes{}
	}
	t.checkIndex(from)
	return RungSizes{nominal: t.nominalSize(rungIndex), jitter: t.sizeJitter[from:to]}
}

// Len reports how many chunks the view covers.
func (s RungSizes) Len() int { return len(s.jitter) }

// At reports the size of the view's i-th chunk.
func (s RungSizes) At(i int) units.Bytes { return scaledSize(s.nominal, s.jitter[i]) }

// nominalSize is a chunk's size at rungIndex before VBR jitter, in bytes.
func (t *Title) nominalSize(rungIndex int) float64 {
	return float64(t.Ladder[rungIndex].Bitrate) / 8 * t.ChunkDuration.Seconds()
}

// scaledSize is the one chunk-size formula: the nominal size scaled by the
// chunk's jitter, truncated to whole bytes and at least one byte.
func scaledSize(nominal, jitter float64) units.Bytes {
	return max(units.Bytes(nominal*jitter), 1)
}

// checkIndex panics unless index names one of the title's chunks.
func (t *Title) checkIndex(index int) {
	if index < 0 || index >= t.NumChunks {
		panic(fmt.Sprintf("video: chunk index %d out of range [0,%d)", index, t.NumChunks))
	}
}
