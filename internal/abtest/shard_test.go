package abtest

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/abr"
	"repro/internal/core"
)

// goldenShardedHash pins the byte-exact sharded Table 2 + Fig 3 output for
// shardConfig(7). Every path to this output — uninterrupted, killed and
// resumed, resumed over corrupted checkpoints — must reproduce it exactly.
const goldenShardedHash = "4d4fb621f910c3dd"

// shardConfig is a small sharded run: 48 users in 5 shards of 10.
func shardConfig(seed int64) ShardRunConfig {
	return ShardRunConfig{
		Experiment: Config{
			Population:       PopulationConfig{Users: 48, Seed: seed},
			SessionsPerUser:  2,
			ChunksPerSession: 20,
		},
		Arms:      []Arm{ControlArm(), SammyArm(core.DefaultC0, core.DefaultC1)},
		ShardSize: 10,
	}
}

// renderSharded formats the full deliverable (Table 2 + Fig 3 rows) so
// byte-identity tests compare what a user would actually read.
func renderSharded(res *ShardedResult) string {
	var sb strings.Builder
	sb.WriteString(FormatSketchTable("Table 2 (sharded)", CompareSketches(res.Arms[1], res.Arms[0])))
	for _, r := range CompareBucketSketches(res.Arms[1], res.Arms[0]) {
		fmt.Fprintf(&sb, "  %-10s n=%d %+.2f%% [%.2f, %.2f] median %+.2f%%\n",
			r.Bucket, r.Sessions, r.MeanChg.Point, r.MeanChg.Lo, r.MeanChg.Hi, r.MedianChgPct)
	}
	return sb.String()
}

func hashString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGenerateUserRangeMatchesPopulation(t *testing.T) {
	cfg := PopulationConfig{Users: 100, Seed: 11}
	full := GeneratePopulation(cfg)
	for _, r := range []struct{ lo, hi int }{{0, 30}, {30, 60}, {60, 100}, {97, 100}, {50, 50}} {
		part := GenerateUserRange(cfg, r.lo, r.hi)
		if len(part) != r.hi-r.lo {
			t.Fatalf("range [%d,%d): got %d users", r.lo, r.hi, len(part))
		}
		for i, u := range part {
			want := full[r.lo+i]
			if u.ID != want.ID || u.Seed != want.Seed || u.TopBitrate != want.TopBitrate ||
				u.Path != want.Path {
				t.Errorf("range [%d,%d) user %d differs from full population", r.lo, r.hi, i)
			}
		}
	}
}

func TestRunShardedUninterruptedGolden(t *testing.T) {
	res, err := RunSharded(shardConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done() || res.Completed != 5 || res.Resumed != 0 || res.UserErrors != 0 {
		t.Fatalf("unexpected ledger: %+v", res)
	}
	wantSessions := 48 * 1 // 2 sessions/user, 1 warmup
	for _, a := range res.Arms {
		if a.Sessions != wantSessions {
			t.Fatalf("arm %s has %d sessions, want %d", a.Name, a.Sessions, wantSessions)
		}
	}
	out := renderSharded(res)
	if got := hashString(out); got != goldenShardedHash {
		t.Errorf("sharded golden hash %s, want %s\noutput:\n%s", got, goldenShardedHash, out)
	}
}

// TestRunShardedKillResumeByteIdentical is the headline robustness property:
// stop a checkpointed run mid-way, corrupt one of the completed shard files,
// resume, and the final tables are byte-identical to an uninterrupted run.
func TestRunShardedKillResumeByteIdentical(t *testing.T) {
	uninterrupted, err := RunSharded(shardConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	want := renderSharded(uninterrupted)

	dir := t.TempDir()
	stop := make(chan struct{})
	cfg := shardConfig(7)
	cfg.CheckpointDir = dir
	done := 0
	cfg.Progress = func(ev ShardEvent) {
		if ev.Status == "done" {
			if done++; done == 2 {
				close(stop) // request a graceful stop after the second shard
			}
		}
	}
	cfg.Stop = stop
	partial, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Stopped || partial.Completed != 2 || partial.Done() {
		t.Fatalf("expected a stop after 2 shards, got %+v", partial)
	}

	// Corrupt one completed checkpoint: flip a byte in the middle of the
	// payload. The resume must detect it and re-run that shard.
	name := filepath.Join(dir, shardFileName(1))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg = shardConfig(7)
	cfg.CheckpointDir = dir
	cfg.Resume = true
	resumed, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Done() || resumed.Resumed != 1 || resumed.Completed != 4 {
		t.Fatalf("expected 1 resumed + 4 run shards, got %+v", resumed)
	}
	if len(resumed.Skipped) != 1 || !strings.Contains(resumed.Skipped[0], "shard 1") {
		t.Fatalf("expected the corrupted shard to be reported, got %v", resumed.Skipped)
	}
	got := renderSharded(resumed)
	if got != want {
		t.Errorf("resumed output differs from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s", got, want)
	}
	if h := hashString(got); h != goldenShardedHash {
		t.Errorf("resumed golden hash %s, want %s", h, goldenShardedHash)
	}
}

// TestCheckpointIntegrity feeds the loader every corruption the format is
// designed to catch; in each case the damaged shard must be re-run, never
// merged, and the final output must stay byte-identical.
func TestCheckpointIntegrity(t *testing.T) {
	base := shardConfig(7)
	want := func() string {
		res, err := RunSharded(base)
		if err != nil {
			t.Fatal(err)
		}
		return renderSharded(res)
	}()

	complete := func(t *testing.T) string {
		dir := t.TempDir()
		cfg := shardConfig(7)
		cfg.CheckpointDir = dir
		if _, err := RunSharded(cfg); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		// rerun is how many shards the resume must re-run (out of 5).
		rerun   int
		skipped string // substring required in Skipped
	}{
		{
			name: "truncated shard file",
			corrupt: func(t *testing.T, dir string) {
				name := filepath.Join(dir, shardFileName(2))
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(name, data[:len(data)/3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			rerun:   1,
			skipped: "shard 2",
		},
		{
			name: "flipped payload byte",
			corrupt: func(t *testing.T, dir string) {
				name := filepath.Join(dir, shardFileName(4))
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-3] ^= 1
				if err := os.WriteFile(name, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			rerun:   1,
			skipped: "shard 4",
		},
		{
			name: "missing shard file",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, shardFileName(0))); err != nil {
					t.Fatal(err)
				}
			},
			rerun:   1,
			skipped: "shard 0",
		},
		{
			name: "stale config hash in manifest",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *Manifest) { m.ConfigHash = "feedfacefeedface" })
			},
			rerun:   5,
			skipped: "config hash",
		},
		{
			name: "duplicate manifest entries",
			corrupt: func(t *testing.T, dir string) {
				rewriteManifest(t, dir, func(m *Manifest) {
					m.Shards = append(m.Shards, m.Shards[3])
				})
			},
			rerun:   1,
			skipped: "duplicate",
		},
		{
			name: "manifest not json",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			rerun:   5,
			skipped: "manifest unreadable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := complete(t)
			tc.corrupt(t, dir)
			cfg := shardConfig(7)
			cfg.CheckpointDir = dir
			cfg.Resume = true
			res, err := RunSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done() || res.Completed != tc.rerun || res.Resumed != 5-tc.rerun {
				t.Fatalf("expected %d re-run shards, got %+v", tc.rerun, res)
			}
			found := false
			for _, s := range res.Skipped {
				if strings.Contains(s, tc.skipped) {
					found = true
				}
			}
			if !found {
				t.Errorf("skipped reasons %v missing %q", res.Skipped, tc.skipped)
			}
			if got := renderSharded(res); got != want {
				t.Errorf("output after %s differs from clean run", tc.name)
			}
		})
	}
}

// rewriteManifest loads, mutates and rewrites the manifest JSON in place.
func rewriteManifest(t *testing.T, dir string, mutate func(*Manifest)) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// panicABR panics on the nth SelectRung call, modelling a controller bug
// that only trips mid-session.
type panicABR struct {
	abr.Algorithm
	calls, fuse int
}

func (p *panicABR) SelectRung(ctx abr.Context) int {
	if p.calls++; p.calls == p.fuse {
		panic("deliberate test panic")
	}
	return p.Algorithm.SelectRung(ctx)
}

// poisonArm is an arm whose every user panics mid-session.
func poisonArm() Arm {
	return Arm{
		Name: "poison",
		NewController: func() *core.Controller {
			return core.NewControl(&panicABR{Algorithm: productionABR(0), fuse: 7})
		},
	}
}

// TestRunRecoversPanickingController is the in-memory regression test: a
// controller that panics must not crash Run, must be counted in Errors, and
// must not perturb the other arms.
func TestRunRecoversPanickingController(t *testing.T) {
	cfg := Config{
		Population:       PopulationConfig{Users: 12, Seed: 3},
		SessionsPerUser:  2,
		ChunksPerSession: 20,
	}
	clean := Run(cfg, []Arm{ControlArm()})
	results := Run(cfg, []Arm{ControlArm(), poisonArm()})

	control, poison := results[0], results[1]
	if control.Errors != 0 || len(control.Sessions) != len(clean[0].Sessions) {
		t.Fatalf("control arm perturbed by poison arm: %d errors, %d sessions (want %d)",
			control.Errors, len(control.Sessions), len(clean[0].Sessions))
	}
	for i := range control.Sessions {
		if control.Sessions[i] != clean[0].Sessions[i] {
			t.Fatalf("control session %d changed when a poison arm ran alongside", i)
		}
	}
	if poison.Errors != 12 {
		t.Errorf("poison arm errors = %d, want 12", poison.Errors)
	}
	if len(poison.Sessions) != 0 {
		t.Errorf("poison arm recorded %d sessions from failed users", len(poison.Sessions))
	}
}

// TestRunShardedExcludesFailedUsersEverywhere checks the paired-design rule:
// a user who fails in any arm is excluded from every arm's sketches, and the
// shard retry budget is respected.
func TestRunShardedExcludesFailedUsersEverywhere(t *testing.T) {
	cfg := shardConfig(9)
	cfg.Experiment.Population.Users = 20
	cfg.ShardSize = 10
	cfg.Arms = []Arm{ControlArm(), poisonArm()}
	cfg.MaxShardRetries = 1
	retried := 0
	cfg.Progress = func(ev ShardEvent) {
		if ev.Status == "retried" {
			retried++
		}
	}
	res, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done() {
		t.Fatalf("run did not finish: %+v", res)
	}
	if res.UserErrors != 20 {
		t.Errorf("UserErrors = %d, want 20 (every user fails in the poison arm)", res.UserErrors)
	}
	if retried != 2 {
		t.Errorf("retried events = %d, want 2 (one per shard)", retried)
	}
	for _, a := range res.Arms {
		if a.Sessions != 0 {
			t.Errorf("arm %s kept %d sessions from users that failed elsewhere", a.Name, a.Sessions)
		}
		if a.Errors != 20 {
			t.Errorf("arm %s errors = %d, want 20", a.Name, a.Errors)
		}
	}
}

// TestRunShardedMemoryBounded asserts the point of sharding: peak live heap
// tracks the shard size, not the population. A 10x larger population run
// with the same shard size must stay within a small factor of the small
// run's heap.
func TestRunShardedMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-bound test runs thousands of users")
	}
	peakHeap := func(users int) uint64 {
		cfg := ShardRunConfig{
			Experiment: Config{
				Population:       PopulationConfig{Users: users, Seed: 21},
				SessionsPerUser:  1,
				ChunksPerSession: 4,
			},
			Arms:      []Arm{ControlArm(), SammyArm(core.DefaultC0, core.DefaultC1)},
			ShardSize: 250,
		}
		var peak uint64
		cfg.Progress = func(ev ShardEvent) {
			if ev.Status != "done" {
				return
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		if _, err := RunSharded(cfg); err != nil {
			t.Fatal(err)
		}
		return peak
	}
	small := peakHeap(1000)
	large := peakHeap(10000)
	// Allow generous slack for runtime noise and the O(numShards) manifest:
	// the failure mode this guards against is O(population) session buffers,
	// which would blow past 10x here, not 3x.
	if large > 3*small+8<<20 {
		t.Errorf("peak heap grew with population: %d users -> %d bytes, %d users -> %d bytes",
			1000, small, 10000, large)
	}
}
