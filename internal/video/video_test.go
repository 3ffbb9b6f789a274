package video

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestNewLadderValidation(t *testing.T) {
	for _, tc := range [][]units.BitsPerSecond{
		{},
		{2 * units.Mbps, 1 * units.Mbps},
		{1 * units.Mbps, 1 * units.Mbps},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLadder(%v) should panic", tc)
				}
			}()
			NewLadder(tc...)
		}()
	}
}

func TestLadderVMAFMonotoneConcave(t *testing.T) {
	l := DefaultLadder()
	for i := 1; i < len(l); i++ {
		if l[i].VMAF <= l[i-1].VMAF {
			t.Fatalf("VMAF not increasing at rung %d: %v then %v", i, l[i-1].VMAF, l[i].VMAF)
		}
	}
	// Concavity in log-bitrate: per-doubling gains shrink. Check gain per
	// unit log-bitrate is non-increasing.
	for i := 2; i < len(l); i++ {
		g1 := (l[i-1].VMAF - l[i-2].VMAF) / (float64(l[i-1].Bitrate)/float64(l[i-2].Bitrate) - 1)
		g2 := (l[i].VMAF - l[i-1].VMAF) / (float64(l[i].Bitrate)/float64(l[i-1].Bitrate) - 1)
		if g2 > g1*1.5 {
			t.Fatalf("quality gains not diminishing at rung %d", i)
		}
	}
	top := l.Top()
	if top.VMAF < 90 || top.VMAF > 100 {
		t.Errorf("top VMAF = %v, want ≈ 95", top.VMAF)
	}
}

func TestLadderIndexAndHighestBelow(t *testing.T) {
	l := NewLadder(1*units.Mbps, 2*units.Mbps, 4*units.Mbps)
	tests := []struct {
		r    units.BitsPerSecond
		want int
	}{
		{500 * units.Kbps, -1},
		{1 * units.Mbps, 0},
		{3 * units.Mbps, 1},
		{100 * units.Mbps, 2},
	}
	for _, tt := range tests {
		if got := l.Index(tt.r); got != tt.want {
			t.Errorf("Index(%v) = %d, want %d", tt.r, got, tt.want)
		}
	}
	if got := l.HighestBelow(500 * units.Kbps); got != l[0] {
		t.Errorf("HighestBelow below ladder should return lowest rung, got %v", got)
	}
	if got := l.HighestBelow(3 * units.Mbps); got != l[1] {
		t.Errorf("HighestBelow(3Mbps) = %v", got)
	}
}

func TestLabLadderTopIs3_3Mbps(t *testing.T) {
	if got := LabLadder().Top().Bitrate; got != 3.3*units.Mbps {
		t.Errorf("lab ladder top = %v, want 3.3Mbps (paper §6)", got)
	}
}

func TestTitleChunkSizes(t *testing.T) {
	l := NewLadder(1*units.Mbps, 4*units.Mbps)
	title := NewTitle(l, 4*time.Second, 10, nil)
	c := title.ChunkAt(0, 1)
	// 4 Mbps × 4 s = 2 MB.
	if c.Size != 2*units.MB {
		t.Errorf("chunk size = %v, want 2MB", c.Size)
	}
	if c.Duration != 4*time.Second {
		t.Errorf("chunk duration = %v", c.Duration)
	}
	if title.Duration() != 40*time.Second {
		t.Errorf("title duration = %v", title.Duration())
	}
}

func TestTitleJitterSharedAcrossRungs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLadder(1*units.Mbps, 4*units.Mbps)
	title := NewTitle(l, 4*time.Second, 50, rng)
	// The same chunk index must have the same relative size deviation at
	// every rung (scene complexity is content, not encode, driven).
	for i := 0; i < 50; i++ {
		lo := title.ChunkAt(i, 0)
		hi := title.ChunkAt(i, 1)
		ratio := float64(hi.Size) / float64(lo.Size)
		if ratio < 3.9 || ratio > 4.1 {
			t.Fatalf("chunk %d rung ratio = %v, want 4", i, ratio)
		}
	}
}

func TestTitleChunkAtPanicsOutOfRange(t *testing.T) {
	title := NewTitle(DefaultLadder(), 4*time.Second, 5, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	title.ChunkAt(5, 0)
}

func TestRungSizesTruncatesAtEnd(t *testing.T) {
	title := NewTitle(DefaultLadder(), 4*time.Second, 5, nil)
	if n := title.RungSizes(0, 3, 13).Len(); n != 2 {
		t.Errorf("RungSizes near end = %d entries, want 2", n)
	}
	if n := title.RungSizes(0, 5, 13).Len(); n != 0 {
		t.Errorf("RungSizes past end = %d entries, want 0", n)
	}
}

// TestRungSizesMatchSizeAtAndChunkAt pins the lookahead view to the size
// formula SizeAt and ChunkAt use, over every chunk, rung and start.
func TestRungSizesMatchSizeAtAndChunkAt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	title := NewTitle(DefaultLadder(), 3*time.Second, 30, rng)
	for rung := range title.Ladder {
		for from := 0; from < title.NumChunks; from++ {
			sizes := title.RungSizes(rung, from, from+8)
			for i := range sizes.Len() {
				want := title.SizeAt(from+i, rung)
				if got := sizes.At(i); got != want {
					t.Fatalf("rung %d chunk %d: RungSizes %d, SizeAt %d", rung, from+i, got, want)
				}
				if c := title.ChunkAt(from+i, rung); c.Size != want {
					t.Fatalf("rung %d chunk %d: ChunkAt size %d, SizeAt %d", rung, from+i, c.Size, want)
				}
			}
		}
	}
}

func TestBufferSimStep(t *testing.T) {
	b := &BufferSim{Level: 10 * time.Second, Max: 20 * time.Second}
	// Fast download: buffer grows by d − Δ.
	reb, full := b.Step(4*time.Second, 1*units.MB, 1*time.Second)
	if reb != 0 || full != 0 {
		t.Errorf("unexpected rebuffer=%v full=%v", reb, full)
	}
	if b.Level != 13*time.Second {
		t.Errorf("level = %v, want 13s", b.Level)
	}
	// Slow download: rebuffers when download exceeds buffer.
	b.Level = 2 * time.Second
	reb, _ = b.Step(4*time.Second, 1*units.MB, 5*time.Second)
	if reb != 3*time.Second {
		t.Errorf("rebuffer = %v, want 3s", reb)
	}
	if b.Level != 4*time.Second {
		t.Errorf("level after rebuffer = %v, want 4s", b.Level)
	}
	// Overfill: clamped at Max with reported wait.
	b.Level = 19 * time.Second
	_, full = b.Step(4*time.Second, 1*units.MB, 1*time.Second)
	if full != 2*time.Second {
		t.Errorf("fullWait = %v, want 2s", full)
	}
	if b.Level != 20*time.Second {
		t.Errorf("level = %v, want clamped to 20s", b.Level)
	}
}

func TestTheoremA1Exact(t *testing.T) {
	// Property: for any sequence of chunk downloads that never rebuffers or
	// overfills, the ending buffer equals B0 + D_T − D_T·r̄/x̄ exactly
	// (Theorem A.1).
	f := func(steps []struct {
		DurMs  uint16
		SizeKB uint16
		DlMs   uint16
	}) bool {
		if len(steps) == 0 {
			return true
		}
		b := &BufferSim{Level: time.Hour} // large enough to avoid rebuffering
		b0 := b.Level
		for _, st := range steps {
			d := time.Duration(int(st.DurMs)+1) * time.Millisecond
			s := units.Bytes(int(st.SizeKB)+1) * units.KB
			dl := time.Duration(int(st.DlMs)+1) * time.Millisecond
			if reb, full := b.Step(d, s, dl); reb != 0 || full != 0 {
				return true // outside the theorem's assumption
			}
		}
		predicted := PredictBuffer(b0, b.TotalDuration(), b.AvgBitrate(), b.AvgThroughput())
		diff := b.Level - predicted
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitrateCannotExceedThroughputWithoutDrain(t *testing.T) {
	// Appendix A.1.1: if the buffer does not decrease, r̄ ≤ x̄.
	f := func(steps []struct {
		DurMs  uint16
		SizeKB uint16
		DlMs   uint16
	}) bool {
		if len(steps) == 0 {
			return true
		}
		b := &BufferSim{Level: time.Hour}
		b0 := b.Level
		for _, st := range steps {
			d := time.Duration(int(st.DurMs)+1) * time.Millisecond
			s := units.Bytes(int(st.SizeKB)+1) * units.KB
			dl := time.Duration(int(st.DlMs)+1) * time.Millisecond
			b.Step(d, s, dl)
		}
		if b.Level < b0 {
			return true // buffer drained; the bound does not apply
		}
		return b.AvgBitrate() <= b.AvgThroughput()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPredictBufferExamples(t *testing.T) {
	// Appendix A.1.2's example: building a 5-minute buffer over a 20-minute
	// session means r̄ = 0.75·x̄.
	b0 := time.Duration(0)
	d := 20 * time.Minute
	x := 4 * units.Mbps
	r := 3 * units.Mbps // 0.75x
	end := PredictBuffer(b0, d, r, x)
	if diff := end - 5*time.Minute; diff < -time.Second || diff > time.Second {
		t.Errorf("PredictBuffer = %v, want 5m", end)
	}
	// Zero throughput must signal immediate drain.
	if PredictBuffer(time.Second, time.Second, 1*units.Mbps, 0) >= 0 {
		t.Error("zero throughput should predict a collapsed buffer")
	}
}

func TestMaxSustainableBitrate(t *testing.T) {
	// With an empty buffer, sustainable bitrate equals throughput.
	x := 10 * units.Mbps
	if got := MaxSustainableBitrate(0, 10*time.Second, x); got != x {
		t.Errorf("empty buffer sustainable = %v, want %v", got, x)
	}
	// With buffer equal to lookahead, it doubles.
	if got := MaxSustainableBitrate(10*time.Second, 10*time.Second, x); got != 2*x {
		t.Errorf("B0=D sustainable = %v, want %v", got, 2*x)
	}
	// Consistency: PredictBuffer at exactly the sustainable bitrate lands at
	// zero buffer.
	r := MaxSustainableBitrate(4*time.Second, 16*time.Second, x)
	end := PredictBuffer(4*time.Second, 16*time.Second, r, x)
	if end < -time.Millisecond || end > time.Millisecond {
		t.Errorf("PredictBuffer at sustainable bitrate = %v, want 0", end)
	}
}
