package abtest

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
)

// goldenABHash is the FNV-1a hash of the fixed-seed A/B population run
// below, recorded before the allocation-free event-core rewrite (PR 3). It
// pins byte-identical session records across versions: pooling, scheduler
// and lookahead optimizations must not move a single bit of any session's
// QoE. Update only for intentional semantic changes (rerun with
// -run TestGoldenABTrace -v to print the new value).
const goldenABHash = "8b3f8990a90364ea"

// TestGoldenABTrace is the cross-version determinism lock for abtest.Run:
// the full session-record stream of a control-vs-Sammy population at fixed
// seed must hash to the recorded constant.
func TestGoldenABTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("population experiment")
	}
	cfg := Config{
		Population:       PopulationConfig{Users: 60, Seed: 5},
		SessionsPerUser:  2,
		ChunksPerSession: 30,
	}
	results := Run(cfg, []Arm{ControlArm(), SammyArm(core.DefaultC0, core.DefaultC1)})
	h := fnv.New64a()
	for _, arm := range results {
		fmt.Fprintf(h, "arm %s\n", arm.Name)
		for _, s := range arm.Sessions {
			fmt.Fprintf(h, "%d %v %v\n", s.UserID, s.PreExp, s.QoE)
		}
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if got != goldenABHash {
		t.Errorf("golden A/B trace hash = %s, want %s\n"+
			"(fixed-seed session records changed: runs are no longer "+
			"byte-identical across versions)", got, goldenABHash)
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("population experiment")
	}
	cfg := Config{
		Population:       PopulationConfig{Users: 60, Seed: 5},
		SessionsPerUser:  2,
		ChunksPerSession: 30,
	}
	arms := func() []Arm {
		return []Arm{ControlArm(), SammyArm(core.DefaultC0, core.DefaultC1)}
	}
	a := Run(cfg, arms())
	b := Run(cfg, arms())
	for armIdx := range a {
		if len(a[armIdx].Sessions) != len(b[armIdx].Sessions) {
			t.Fatalf("arm %d session counts differ", armIdx)
		}
		for i := range a[armIdx].Sessions {
			if a[armIdx].Sessions[i].QoE != b[armIdx].Sessions[i].QoE {
				t.Fatalf("arm %d session %d differs between runs:\n%+v\n%+v",
					armIdx, i, a[armIdx].Sessions[i].QoE, b[armIdx].Sessions[i].QoE)
			}
		}
	}
}

func TestPairedDesignSharesUsersAcrossArms(t *testing.T) {
	if testing.Short() {
		t.Skip("population experiment")
	}
	cfg := Config{
		Population:       PopulationConfig{Users: 40, Seed: 9},
		SessionsPerUser:  2,
		ChunksPerSession: 20,
	}
	results := Run(cfg, []Arm{ControlArm(), ControlArm()})
	// Two identical arms over the paired design must produce identical
	// sessions — the property that gives the A/B comparison its power.
	for i := range results[0].Sessions {
		if results[0].Sessions[i].QoE != results[1].Sessions[i].QoE {
			t.Fatalf("identical arms diverged at session %d", i)
		}
	}
}

func TestStandardArmsComplete(t *testing.T) {
	arms := StandardArms()
	if len(arms) != 4 {
		t.Fatalf("arms = %d", len(arms))
	}
	names := map[string]bool{}
	for _, a := range arms {
		ctrl := a.NewController()
		if ctrl == nil {
			t.Fatalf("%s: nil controller", a.Name)
		}
		names[ctrl.Name()] = true
	}
	for _, want := range []string{"control", "sammy", "naive-baseline", "initial-only"} {
		if !names[want] {
			t.Errorf("missing standard arm %q (have %v)", want, names)
		}
	}
}

func TestMedianOf(t *testing.T) {
	r := ArmResult{Name: "x"}
	for _, v := range []float64{1, 2, 3, 4, 100} {
		rec := SessionRecord{}
		rec.QoE.VMAF = v
		r.Sessions = append(r.Sessions, rec)
	}
	// Metrics[4] is VMAF.
	if got := MedianOf(r, Metrics[4]); got != 3 {
		t.Errorf("MedianOf = %v, want 3", got)
	}
}
