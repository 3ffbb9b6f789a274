package player

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/video"
)

// TestSessionReuseMatchesRun: one Session (and one Title redrawn with Init)
// carried through sessions of different lengths, paths, estimator windows
// and abandonment settings reports exactly what fresh one-shot Runs do,
// chunk by chunk.
func TestSessionReuseMatchesRun(t *testing.T) {
	var sess Session
	var title video.Title
	cases := []struct {
		capMbps float64
		chunks  int
		window  int
		abandon time.Duration
	}{
		{200, 150, 0, 0},
		{3, 40, 3, 0},
		{25, 150, 0, 90 * time.Second},
		{8, 20, 7, 0},
		{60, 100, 0, 0},
	}
	for i, c := range cases {
		seed := int64(10 + i)
		var want, got []ChunkEvent
		hw, hg := core.History{}, core.History{}

		rng := rand.New(rand.NewSource(seed))
		qWant := Run(Config{
			Controller:      core.NewSammy(abr.Production{}, 3.2, 2.8),
			Title:           video.NewTitle(video.DefaultLadder(), 4*time.Second, c.chunks, rng),
			History:         &hw,
			EstimatorWindow: c.window,
			AbandonAfter:    c.abandon,
		}, testPath(c.capMbps), rng, func(ev ChunkEvent) { want = append(want, ev) })

		rng.Seed(seed)
		title.Init(video.DefaultLadder(), 4*time.Second, c.chunks, rng)
		qGot := sess.Run(Config{
			Controller:      core.NewSammy(abr.Production{}, 3.2, 2.8),
			Title:           &title,
			History:         &hg,
			EstimatorWindow: c.window,
			AbandonAfter:    c.abandon,
		}, testPath(c.capMbps), rng, func(ev ChunkEvent) { got = append(got, ev) })

		if qGot != qWant || hg != hw {
			t.Fatalf("case %d: reused session reports %+v, fresh Run %+v", i, qGot, qWant)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: %d chunk events, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("case %d chunk %d: %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestSessionSteadyStateAllocFree: once a Session, its Title and the
// controller are warm, a whole session allocates nothing.
func TestSessionSteadyStateAllocFree(t *testing.T) {
	var sess Session
	var title video.Title
	var hist core.History
	ctrl := core.NewControl(abr.Production{})
	ladder := video.DefaultLadder()
	rng := rand.New(rand.NewSource(1))
	run := func() {
		rng.Seed(1)
		title.Init(ladder, 4*time.Second, 100, rng)
		sess.Run(Config{Controller: ctrl, Title: &title, History: &hist}, testPath(20), rng, nil)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm session allocates %v times, want 0", allocs)
	}
}
