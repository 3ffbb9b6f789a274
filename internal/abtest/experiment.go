package abtest

import (
	"runtime"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/player"
	"repro/internal/units"
	"repro/internal/video"
)

// Arm is one experiment cell: a named controller recipe. NewController is
// called once per user so history-source behaviour is applied per user.
type Arm struct {
	Name          string
	NewController func() *core.Controller
	// WarmSessions, when positive, streams this many unrecorded sessions
	// per user before the measured sequence begins, so the arm starts with
	// a populated history instead of a cold one (the Fig 6 warm control).
	// It feeds the config hash: a warmed arm is a different cell than a
	// cold arm of the same name.
	WarmSessions int
}

// StandardArms returns the paper's main experiment cells: the production
// control, Sammy with the production parameters, the §5.5 naive baseline
// and the §5.4 initial-phase-only arm.
func StandardArms() []Arm {
	return []Arm{
		ControlArm(),
		SammyArm(core.DefaultC0, core.DefaultC1),
		{
			Name:          "naive-4x",
			NewController: func() *core.Controller { return core.NewNaiveBaseline(productionABR(0), 4) },
		},
		{
			Name:          "initial-only",
			NewController: func() *core.Controller { return core.NewInitialOnly(productionABR(retunedStartupSafety)) },
		},
	}
}

// retunedStartupSafety is the §4.3 retuning: arms whose initial estimates
// come only from initial-phase throughput can trust them more.
const retunedStartupSafety = 1.5

// controlStartupSafety is the control's conservative discount, needed
// because combined-history estimates are biased high by playing-phase
// throughput.
const controlStartupSafety = 0.6

// productionABR builds the production ABR with the given startup safety
// (0 = control default).
func productionABR(safety float64) abr.Production {
	if safety <= 0 {
		safety = controlStartupSafety
	}
	return abr.Production{StartupSafety: safety}
}

// ControlArm returns the unpaced production arm.
func ControlArm() Arm {
	return Arm{
		Name:          "control",
		NewController: func() *core.Controller { return core.NewControl(productionABR(0)) },
	}
}

// SammyArm returns a Sammy arm with the given pace multipliers.
func SammyArm(c0, c1 float64) Arm {
	return Arm{
		Name:          "sammy",
		NewController: func() *core.Controller { return core.NewSammy(productionABR(retunedStartupSafety), c0, c1) },
	}
}

// Config parameterizes an experiment run.
type Config struct {
	Population PopulationConfig
	// SessionsPerUser is how many sequential sessions each user streams
	// (history carries across them). Default 3.
	SessionsPerUser int
	// WarmupSessions are excluded from metrics so histories reach steady
	// state (the §5.7 apples-to-apples concern). Default 1.
	WarmupSessions int
	// ChunksPerSession is the session length in chunks. Default 150
	// (a 10-minute session of 4 s chunks).
	ChunksPerSession int
	// Ladder for all titles; default video.DefaultLadder().
	Ladder video.Ladder
	// ChunkDuration; default 4 s.
	ChunkDuration time.Duration
	// Parallelism is the number of worker goroutines; default GOMAXPROCS.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.SessionsPerUser <= 0 {
		c.SessionsPerUser = 3
	}
	if c.WarmupSessions < 0 || c.WarmupSessions >= c.SessionsPerUser {
		c.WarmupSessions = 0
	} else if c.WarmupSessions == 0 && c.SessionsPerUser > 1 {
		c.WarmupSessions = 1
	}
	if c.ChunksPerSession <= 0 {
		c.ChunksPerSession = 150
	}
	if c.Ladder == nil {
		c.Ladder = video.DefaultLadder()
	}
	if c.ChunkDuration <= 0 {
		c.ChunkDuration = 4 * time.Second
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// SessionRecord pairs a session's QoE with its user's grouping variables.
type SessionRecord struct {
	UserID int
	PreExp units.BitsPerSecond
	QoE    player.QoE
}

// ArmResult aggregates one arm's measured sessions.
type ArmResult struct {
	Name     string
	Sessions []SessionRecord
	// Errors counts users whose session sequence failed (a recovered panic
	// in the controller or player). Failed users contribute no sessions; a
	// healthy run reports zero.
	Errors int
}

// Metric extracts a scalar from a session for table building.
type Metric struct {
	Name string
	// Lower reports whether smaller values are better (affects nothing in
	// the math, only presentation notes).
	Get func(player.QoE) float64
}

// Metrics are the Table 2 rows in order.
var Metrics = []Metric{
	{"ChunkThroughputMbps", func(q player.QoE) float64 { return q.ChunkThroughput.Mbps() }},
	{"RetransmitPct", func(q player.QoE) float64 { return q.RetxFraction * 100 }},
	{"RTTms", func(q player.QoE) float64 { return q.MedianRTT.Seconds() * 1000 }},
	{"InitialVMAF", func(q player.QoE) float64 { return q.InitialVMAF }},
	{"VMAF", func(q player.QoE) float64 { return q.VMAF }},
	{"PlayDelayMs", func(q player.QoE) float64 { return q.PlayDelay.Seconds() * 1000 }},
	{"RebufferSessPct", func(q player.QoE) float64 {
		if q.Rebuffered {
			return 100
		}
		return 0
	}},
	{"RebuffersPerHour", func(q player.QoE) float64 {
		h := q.PlayedTime.Hours()
		if h <= 0 {
			return 0
		}
		return float64(q.RebufferCount) / h
	}},
}

// Values extracts metric m from every session in r.
func (r ArmResult) Values(m Metric) []float64 {
	out := make([]float64, 0, len(r.Sessions))
	for _, s := range r.Sessions {
		out = append(out, m.Get(s.QoE))
	}
	return out
}

// Run executes the experiment: it generates one population, measures each
// user's pre-experiment throughput with control sessions, then runs every
// arm against identical per-user copies (same path, same seeds, fresh
// histories), which is the §5.7 "reset historical throughput in both
// groups" design. Sessions after the warmup are recorded. A user whose
// sequence failed in an arm (recovered panic) contributes no sessions to
// that arm and is counted in its Errors.
func Run(cfg Config, arms []Arm) []ArmResult {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, arms)
	defer r.close()
	b := r.submit(GeneratePopulation(cfg.Population))
	b.pending.Wait()

	results := make([]ArmResult, len(arms))
	for a, arm := range arms {
		res := ArmResult{Name: arm.Name}
		for i := range b.users {
			if b.errs[i*r.stages()+1+a] != nil {
				res.Errors++
				continue
			}
			res.Sessions = append(res.Sessions, r.userRecs(b, a, i)...)
		}
		results[a] = res
	}
	return results
}
