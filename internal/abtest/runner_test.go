package abtest

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/leakcheck"
)

// TestRunnerInvariantAcrossParallelism: the worker count and the overlap of
// checkpointing with the next shard must not move a byte of the sharded
// deliverable.
func TestRunnerInvariantAcrossParallelism(t *testing.T) {
	for _, par := range []int{1, 2, 5} {
		for _, ckpt := range []bool{false, true} {
			t.Run(fmt.Sprintf("parallel=%d/checkpoint=%v", par, ckpt), func(t *testing.T) {
				cfg := shardConfig(7)
				cfg.Experiment.Parallelism = par
				if ckpt {
					cfg.CheckpointDir = t.TempDir()
				}
				res, err := RunSharded(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Done() || res.Completed != 5 {
					t.Fatalf("unexpected ledger: %+v", res)
				}
				if got := hashString(renderSharded(res)); got != goldenShardedHash {
					t.Errorf("sharded output hash = %s, want %s", got, goldenShardedHash)
				}
			})
		}
	}
}

// TestRunnerStopDiscardsPrefetchedShard: a stop that fires after shard 1 is
// durable — while shard 2 is already running on the workers — completes
// exactly shards 0 and 1, writes no checkpoint for shard 2, leaves no
// worker goroutine behind, and resumes to the golden output.
func TestRunnerStopDiscardsPrefetchedShard(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := shardConfig(7)
	cfg.CheckpointDir = dir
	stop := make(chan struct{})
	cfg.Stop = stop
	var stoppedAt = -1
	cfg.Progress = func(ev ShardEvent) {
		switch ev.Status {
		case "done":
			if ev.Shard == 1 {
				close(stop)
			}
		case "stopped":
			stoppedAt = ev.Shard
		}
	}
	res, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Completed != 2 || stoppedAt != 2 {
		t.Fatalf("stop after shard 1: Stopped=%v Completed=%d stopped event at %d, want true/2/2",
			res.Stopped, res.Completed, stoppedAt)
	}
	for i := 0; i < 5; i++ {
		if want := i < 2; hasFile(dir, shardFileName(i)) != want {
			t.Errorf("shard %d checkpoint on disk = %v, want %v", i, !want, want)
		}
	}

	cfg.Stop, cfg.Progress, cfg.Resume = nil, nil, true
	resumed, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 2 || resumed.Completed != 3 {
		t.Fatalf("resume ledger: %+v", resumed)
	}
	if got := hashString(renderSharded(resumed)); got != goldenShardedHash {
		t.Errorf("resumed output hash = %s, want %s", got, goldenShardedHash)
	}
}

// shardBytesPerUserCeiling bounds the heap bytes a warm worker set
// allocates per user of a 60-user shard (3 sessions of 100 chunks, two
// arms), folding included: measured at 642 bytes on linux/amd64 with Go
// 1.24, race detector on or off, for the user draw and one controller per
// user and stage. Before workers owned their session state the same shard
// cost 163 kB per user.
const shardBytesPerUserCeiling = 1 << 10

// TestRunnerSteadyStateAllocations holds the worker set to its
// allocation-free steady state: once warm, a shard allocates only what the
// ceiling above accounts for, not per-session player, digest, RNG or title
// state.
func TestRunnerSteadyStateAllocations(t *testing.T) {
	cfg := ShardRunConfig{
		Experiment: Config{
			Population:       PopulationConfig{Users: 60, Seed: 11},
			SessionsPerUser:  3,
			ChunksPerSession: 100,
			Parallelism:      2,
		},
		Arms:      []Arm{ControlArm(), SammyArm(3.2, 2.8)},
		ShardSize: 60,
	}.withDefaults()
	w := newRunner(cfg.Experiment, cfg.Arms)
	defer w.close()
	r := shardRange{0, 60}
	shard := func() {
		arms, userErrors, _ := w.finishShard(cfg, r, w.startShard(cfg.Experiment.Population, r))
		if userErrors != 0 {
			t.Fatalf("%d user errors", userErrors)
		}
		w.recycle(arms)
	}
	shard() // warm-up: workers and sketches grow their buffers here
	shard()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shard()
	runtime.ReadMemStats(&after)
	perUser := float64(after.TotalAlloc-before.TotalAlloc) / 60
	t.Logf("warm shard: %.0f bytes allocated per user", perUser)
	if perUser > shardBytesPerUserCeiling {
		t.Errorf("warm shard allocated %.0f bytes per user, ceiling %d", perUser, shardBytesPerUserCeiling)
	}
}
