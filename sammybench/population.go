package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/abr"
	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/player"
	"repro/internal/units"
	"repro/internal/video"
)

// The population workload is `sammy-eval population -checkpoint-dir` at
// sammy-eval's defaults (3 sessions × 100 chunks, 8 shards) on a 480-user
// population: one slice is a whole RunSharded A/B of the Table 2 arms plus
// CompareSketches, repeated on the same seed for the length of the run.
// Per-user cost varies widely (it follows the bytes a user streams), so the
// population is large enough that its mean cost varies little from seed to
// seed; the pacing replay samples popReplayUsers users for the same reason.
const (
	popUsers       = 480
	popShards      = 8
	popSessions    = 3
	popChunks      = 100
	popShard       = (popUsers + popShards - 1) / popShards
	popReplayUsers = 2000
)

// popConfig is the experiment configuration for users users of the seed's
// population.
func popConfig(seed int64, users int) abtest.Config {
	return abtest.Config{
		Population:       abtest.PopulationConfig{Users: users, Seed: seed},
		SessionsPerUser:  popSessions,
		ChunksPerSession: popChunks,
	}
}

// popArms are the Table 2 arms.
func popArms() []abtest.Arm {
	return []abtest.Arm{abtest.ControlArm(), abtest.SammyArm(core.DefaultC0, core.DefaultC1)}
}

// abrTimer accumulates SelectRung calls and their wall time.
type abrTimer struct{ ns, calls atomic.Int64 }

// timedABR is a timing decorator around an abr.Algorithm.
type timedABR struct {
	inner abr.Algorithm
	t     *abrTimer
}

func (a timedABR) Name() string { return a.inner.Name() }

func (a timedABR) SelectRung(ctx abr.Context) int {
	t0 := time.Now()
	r := a.inner.SelectRung(ctx)
	a.t.ns.Add(int64(time.Since(t0)))
	a.t.calls.Add(1)
	return r
}

// timedPopArms are popArms with every ABR decision timed. They rebuild the
// arms from the production ABR with the startup safeties abtest uses (0.6
// for control, 1.5 for Sammy); the traced run checks that they reproduce
// the untimed arms' tables exactly.
func timedPopArms(t *abrTimer) []abtest.Arm {
	return []abtest.Arm{
		{Name: "control", NewController: func() *core.Controller {
			return core.NewControl(timedABR{abr.Production{StartupSafety: 0.6}, t})
		}},
		{Name: "sammy", NewController: func() *core.Controller {
			return core.NewSammy(timedABR{abr.Production{StartupSafety: 1.5}, t}, core.DefaultC0, core.DefaultC1)
		}},
	}
}

// benchTempDir makes a fresh directory under .bench_build/tmp in the
// working directory.
func benchTempDir(prefix string) (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// popSlice runs one sharded A/B of the seed's population into dir and
// compares the arms. Besides the whole slice, it times each shard (from the
// previous shard's "done" progress event, or the start, to its own) and the
// tail after the last shard. A round's cost is estimated as the sum of the
// per-segment medians.
type popSlice struct {
	cfg  abtest.Config
	dir  string
	arms []abtest.Arm
	rows []abtest.SketchRow
	errs int64

	segs [popShards + 1][]float64 // seconds per slice: shards, then the tail
	last time.Time

	// Traced-mode accumulators.
	metrics   *abtest.ShardMetrics
	compareNs int64
}

func (p *popSlice) progress(ev abtest.ShardEvent) {
	if ev.Status == "done" {
		now := time.Now()
		p.segs[ev.Shard] = append(p.segs[ev.Shard], now.Sub(p.last).Seconds())
		p.last = now
	}
}

// sum adds a quantile of every segment's times.
func (p *popSlice) sum(q float64) float64 {
	var t float64
	for _, s := range p.segs {
		t += quantile(s, q)
	}
	return t
}

// shardMedian is the mean over shards of each shard's median seconds: the
// time one 60-user shard takes.
func (p *popSlice) shardMedian() float64 {
	var t float64
	for _, s := range p.segs[:popShards] {
		t += quantile(s, 0.5)
	}
	return t / popShards
}

func (p *popSlice) run() error {
	p.last = time.Now()
	res, err := abtest.RunSharded(abtest.ShardRunConfig{
		Experiment:    p.cfg,
		Arms:          p.arms,
		ShardSize:     popShard,
		CheckpointDir: p.dir,
		Progress:      p.progress,
		Metrics:       p.metrics,
	})
	if err != nil {
		return err
	}
	if !res.Done() {
		return fmt.Errorf("sharded run incomplete: %d/%d shards", res.Completed, res.NumShards)
	}
	p.errs += int64(res.UserErrors)
	t0 := time.Now()
	p.rows = abtest.CompareSketches(res.Arms[1], res.Arms[0])
	p.compareNs += int64(time.Since(t0))
	p.segs[popShards] = append(p.segs[popShards], time.Since(p.last).Seconds())
	return nil
}

func runPopulation(opts options) (*report, error) {
	rep := &report{}
	dir, err := benchTempDir("population-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sl := &popSlice{cfg: popConfig(opts.seed, popUsers), dir: dir, arms: popArms()}
	// Warm-up slice: lazy initialisation and heap growth happen here, not
	// in the timed slices.
	if err := sl.run(); err != nil {
		return nil, err
	}
	setup := setupDone()
	sl.errs = 0
	sl.segs = [popShards + 1][]float64{}

	var untimed slices
	phase := opts.seconds
	if opts.traced {
		phase /= 2
	}
	if err := untimed.runFor(phase, sl.run); err != nil {
		return nil, err
	}
	rep.attempted = int64(len(untimed.secs)) * popUsers
	rss := maxRSSMB()
	untimedRows := sl.rows
	untimedRound, untimedShard := sl.sum(0.5), sl.shardMedian()

	if opts.traced {
		zeroPerLayer(rep)
		if err := popTraced(opts, rep, sl, &untimed, untimedRound); err != nil {
			return nil, err
		}
		rep.check(sameRows(sl.rows, untimedRows), "timed ABR arms changed the Table 2 rows")
	}
	rep.failed = sl.errs
	if !opts.traced {
		rep.set("throughput", popUsers/untimedRound, "op/s")
		rep.set("latency_ms", 1000*untimedShard, "ms")
		rep.set("alloc_kB_per_op", untimed.medianAlloc()/1024/popUsers, "kB")
		rep.set("max_rss_MB", rss, "MB")
		rep.set("setup_s", setup, "s")
	}

	// Output checks.
	for i, name := range []string{"ChunkThroughputMbps", "RetransmitPct", "RTTms"} {
		r := untimedRows[i]
		rep.check(r.Metric == name, "Table 2 row %d is %s, want %s", i, r.Metric, name)
		rep.check(r.MeanChg.Point < 0 && r.MeanChg.Hi < 0,
			"%s change %+.2f%% [%.2f, %.2f] is not negative with a CI excluding 0",
			r.Metric, r.MeanChg.Point, r.MeanChg.Lo, r.MeanChg.Hi)
	}
	popCrossCheck(rep, opts.seed)
	attain, nearPct := popPacingBounds(rep, opts.seed)
	rep.attempted += popReplayUsers
	if opts.traced {
		rep.set("netmodel.near_capacity_pct", nearPct, "%")
	} else {
		rep.set("pace_attainment_pct", attain, "%")
	}
	return rep, nil
}

// popTraced runs the traced half: the same slices with timed ABR arms,
// shard progress timing, timed population draws, obs shard counters and a
// CPU profile.
func popTraced(opts options, rep *report, sl *popSlice, untimed *slices, untimedRound float64) error {
	var abrT abrTimer
	reg := obs.NewRegistry()
	sl.arms = timedPopArms(&abrT)
	sl.metrics = abtest.NewShardMetrics(reg)
	sl.compareNs = 0
	sl.segs = [popShards + 1][]float64{}
	var drawNs int64
	slice := func() error {
		for lo := 0; lo < popUsers; lo += popShard {
			t0 := time.Now()
			abtest.GenerateUserRange(sl.cfg.Population, lo, min(lo+popShard, popUsers))
			drawNs += int64(time.Since(t0))
		}
		return sl.run()
	}
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var traced slices
	runErr := traced.runFor(opts.seconds/2, slice)
	self, err := prof.stop(traceFile(opts, "population", "cpu.pprof"))
	if runErr != nil {
		return runErr
	}
	if err != nil {
		return err
	}
	rep.attempted += int64(len(traced.secs)) * popUsers

	users := float64(len(traced.secs) * popUsers)
	for m, ms := range self {
		rep.set(m+".self_ms_per_op", ms/users, "ms")
	}
	rep.set("runtime.gc_cycles_per_kop", 1000*float64(untimed.gcs)/float64(len(untimed.secs)*popUsers), "count")
	rep.set("abtest.draw_us_per_op", float64(drawNs)/1e3/users, "us")
	var shardSecs []float64
	for _, s := range sl.segs[:popShards] {
		shardSecs = append(shardSecs, s...)
	}
	rep.set("abtest.shard_s.p50", quantile(shardSecs, 0.5), "s")
	rep.set("abtest.shard_s.max", quantile(shardSecs, 1), "s")
	rep.set("abtest.checkpoint_kB_per_shard", checkpointKB(sl.dir), "kB")
	rep.set("stats.compare_ms", float64(sl.compareNs)/1e6/float64(len(traced.secs)), "ms")
	rep.set("abr.decide_ns", float64(abrT.ns.Load())/float64(abrT.calls.Load()), "ns")
	rep.set("abr.decisions_per_op", float64(abrT.calls.Load())/users, "count")
	rep.set("obs.trace_overhead_pct", overheadPct(sl.sum(0.5), untimedRound), "%")
	return writeTraceArtifacts(opts, "population", rep, reg, nil)
}

// checkpointKB is the mean shard checkpoint size in dir, in kB.
func checkpointKB(dir string) float64 {
	files, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	var total int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	if len(files) == 0 {
		return 0
	}
	return float64(total) / 1024 / float64(len(files))
}

// sameRows reports whether two Table 2 computations agree exactly.
func sameRows(a, b []abtest.SketchRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Metric != y.Metric || x.MeanChg != y.MeanChg ||
			(x.MedianChgPct != y.MedianChgPct && !(math.IsNaN(x.MedianChgPct) && math.IsNaN(y.MedianChgPct))) {
			return false
		}
	}
	return true
}

// popCrossCheck runs the first shard's users through both the in-memory
// abtest.Run (raw session records) and RunSharded (sketches), two
// independent aggregation paths, and checks that they agree on session
// counts per arm and on every metric's mean.
func popCrossCheck(rep *report, seed int64) {
	cfg := popConfig(seed, popShard)
	raw := abtest.Run(cfg, popArms())
	sk, err := abtest.RunSharded(abtest.ShardRunConfig{Experiment: cfg, Arms: popArms(), ShardSize: popShard})
	if err != nil {
		rep.check(false, "cross-check sharded run: %v", err)
		return
	}
	for a := range raw {
		r, s := raw[a], sk.Arms[a]
		rep.check(r.Errors == 0 && s.Errors == 0, "arm %s: user errors raw %d sharded %d", r.Name, r.Errors, s.Errors)
		rep.check(len(r.Sessions) == s.Sessions && s.Sessions == popShard*(popSessions-1),
			"arm %s: %d raw sessions, %d sketched, want %d", r.Name, len(r.Sessions), s.Sessions, popShard*(popSessions-1))
		for i, m := range abtest.Metrics {
			var sum float64
			var n int
			for _, v := range r.Values(m) {
				if !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			want, got := sum/float64(n), s.Metrics[i].Moments.Mean
			rep.check(math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)),
				"arm %s %s: raw mean %v, sketch mean %v", r.Name, m.Name, want, got)
		}
	}
}

// replaySammy streams user u's sessions through player.Run exactly as the
// Sammy arm does in RunSharded (same RNG stream, shared history, same
// titles), calling visit for every chunk with whether its decision was made
// in the playing phase and the session's top bitrate.
func replaySammy(u *abtest.User, visit func(ev player.ChunkEvent, playing bool, top float64)) {
	rng := rand.New(rand.NewSource(u.Seed))
	hist := &core.History{}
	ctrl := abtest.SammyArm(core.DefaultC0, core.DefaultC1).NewController()
	ladder := video.DefaultLadder().CapAt(u.TopBitrate)
	top := float64(ladder[len(ladder)-1].Bitrate)
	for s := 0; s < popSessions; s++ {
		title := video.NewTitle(ladder, 4*time.Second, popChunks, rng)
		playing := false
		player.Run(player.Config{Controller: ctrl, Title: title, History: hist}, u.Path, rng,
			func(ev player.ChunkEvent) {
				visit(ev, playing, top)
				playing = ev.Playing
			})
	}
}

// Pacing-bound classes of a paced chunk.
const (
	withinPace   = iota // throughput ≤ pace + one burst over the transfer
	nearCapacity        // over that, but ≤ pace/0.95 + one burst (see paceClass)
	overPace            // beyond both
)

// paceClass classifies a paced chunk's measured throughput against its
// pace rate. The slack is one pacing burst (core.DefaultBurst packets) over
// the chunk's transfer time. netmodel.Conn.DownloadAt models a chunk whose
// pace is at least 95 % of the path's available bandwidth as unpaced, so
// such chunks can beat their pace by up to 1/0.95; nearCapacity marks
// exactly that signature.
func paceClass(ev player.ChunkEvent) int {
	const burst = core.DefaultBurst * 1500
	size, rate := float64(ev.Size), float64(ev.PaceRate)
	transfer := size * 8 / float64(ev.Throughput) // seconds after the first byte
	switch {
	case size <= rate*transfer/8+burst:
		return withinPace
	case size <= rate/0.95*transfer/8+burst:
		return nearCapacity
	}
	return overPace
}

// popPacingBounds replays popReplayUsers users' Sammy sessions and checks
// the pacing contract: every playing-phase pace rate lies in [c1, c0] × the
// session's top bitrate, and no paced chunk beats its pace rate by more
// than one burst, apart from netmodel's near-capacity band (see paceClass),
// which no chunk may exceed. It returns the pace attainment, the mean over
// paced chunks of the time the chunk would take at exactly its pace rate
// over the time it took (request to last byte), capped at 1, in percent;
// and the share of paced chunks in the near-capacity band, in percent.
func popPacingBounds(rep *report, seed int64) (attain, nearPct float64) {
	users := abtest.GenerateUserRange(popConfig(seed, popReplayUsers).Population, 0, popReplayUsers)
	var sum float64
	var paced, near, bad int
	var firstBad string
	for _, u := range users {
		replaySammy(u, func(ev player.ChunkEvent, playing bool, top float64) {
			rate := float64(ev.PaceRate)
			ok := !playing || (rate >= core.DefaultC1*top*(1-1e-9) && rate <= core.DefaultC0*top*(1+1e-9))
			if rate > 0 {
				paced++
				switch paceClass(ev) {
				case nearCapacity:
					near++
				case overPace:
					ok = false
				}
				sum += math.Min(1, float64(ev.Size)*8/rate/(ev.End-ev.Start).Seconds())
			}
			if !ok {
				bad++
				if firstBad == "" {
					firstBad = fmt.Sprintf("user %d chunk %d: pace %v, throughput %v, top %v, playing %v",
						u.ID, ev.Index, ev.PaceRate, ev.Throughput, units.BitsPerSecond(top), playing)
				}
			}
		})
	}
	fmt.Fprintf(os.Stderr, "population pacing replay: %d paced chunks, %d beat their pace within netmodel's near-capacity band\n", paced, near)
	rep.check(bad == 0, "%d chunks break the pacing bounds; first: %s", bad, firstBad)
	if paced == 0 {
		rep.check(false, "no paced chunks in the replay")
		return 0, 0
	}
	return 100 * sum / float64(paced), 100 * float64(near) / float64(paced)
}
