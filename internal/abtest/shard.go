package abtest

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/obs"
	trace "repro/internal/obs/trace"
)

// This file is the crash-resumable population runner: the experiment is cut
// into deterministic shards (contiguous user-id ranges whose per-user RNG
// streams derive from the population seed exactly as in the in-memory
// path), each shard streams its sessions into ArmSketches, and completed
// shards are checkpointed to disk so a killed run resumes from the last
// finished shard. Memory is bounded by the shard size — the full
// []SessionRecord of the population never exists.

// DefaultShardSize is the users-per-shard default: large enough that the
// per-shard fixed costs (population fast-forward, checkpoint write) vanish,
// small enough that a resume loses at most a few core-minutes of work.
const DefaultShardSize = 1000

// DefaultShardRetries bounds how many times a shard with failed users is
// re-run before the run accepts the shard with those users excluded.
const DefaultShardRetries = 2

// shardRange is one planned shard: users [lo, hi).
type shardRange struct{ lo, hi int }

// planShards cuts n users into shardSize-sized ranges.
func planShards(n, shardSize int) []shardRange {
	var plan []shardRange
	for lo := 0; lo < n; lo += shardSize {
		hi := lo + shardSize
		if hi > n {
			hi = n
		}
		plan = append(plan, shardRange{lo, hi})
	}
	return plan
}

// ShardRunConfig parameterizes a sharded population run.
type ShardRunConfig struct {
	// Experiment is the underlying experiment configuration; Population.Users
	// is the total population the shards cover.
	Experiment Config
	// Arms are the experiment cells; results come back as one ArmSketch per
	// arm in the same order.
	Arms []Arm
	// ShardSize is users per shard. Default DefaultShardSize.
	ShardSize int
	// CheckpointDir, when set, persists each completed shard (and a
	// manifest) into the directory. Empty disables checkpointing: the run
	// still streams shard-by-shard in bounded memory, it just cannot resume.
	CheckpointDir string
	// Resume loads valid shard checkpoints from CheckpointDir and re-runs
	// only the missing or invalid ranges. Without Resume, existing
	// checkpoint state is ignored and overwritten.
	Resume bool
	// MaxShardRetries re-runs a shard whose users failed (recovered panics)
	// this many extra times before accepting it with those users excluded.
	// Default DefaultShardRetries.
	MaxShardRetries int
	// Stop, when non-nil, requests a graceful stop: shards already finished
	// stay checkpointed, a shard prefetched but not yet finished is
	// discarded without a checkpoint, and RunSharded returns a partial
	// result with Stopped set.
	Stop <-chan struct{}
	// Progress, when non-nil, observes shard lifecycle events.
	Progress func(ShardEvent)
	// Metrics, when non-nil, records shard progress counters/gauges.
	Metrics *ShardMetrics
}

func (c ShardRunConfig) withDefaults() ShardRunConfig {
	c.Experiment = c.Experiment.withDefaults()
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.MaxShardRetries < 0 {
		c.MaxShardRetries = 0
	} else if c.MaxShardRetries == 0 {
		c.MaxShardRetries = DefaultShardRetries
	}
	return c
}

// ShardEvent is one shard lifecycle notification.
type ShardEvent struct {
	Shard     int
	NumShards int
	Lo, Hi    int
	// Status is "resumed" (loaded from checkpoint), "done" (ran), "retried"
	// (a re-run after user failures), or "stopped" (run ended before this
	// shard started).
	Status     string
	UserErrors int
}

// ShardMetrics holds the runner's observability hooks, nil-guarded like
// every metrics struct in the repo.
type ShardMetrics struct {
	ShardsCompleted *obs.Counter // shards run to completion this process
	ShardsResumed   *obs.Counter // shards loaded from checkpoints
	ShardsRetried   *obs.Counter // shard re-runs after user failures
	UsersCompleted  *obs.Counter // users whose session sequences finished
	UserErrors      *obs.Counter // users excluded by recovered failures
	ShardProgress   *obs.Gauge   // completed+resumed shards / total
	Recorder        *obs.Recorder
}

// NewShardMetrics builds a ShardMetrics wired to registry r (nil r yields
// nil, keeping instrumentation off).
func NewShardMetrics(r *obs.Registry) *ShardMetrics {
	if r == nil {
		return nil
	}
	return &ShardMetrics{
		ShardsCompleted: r.Counter("abtest_shards_completed"),
		ShardsResumed:   r.Counter("abtest_shards_resumed"),
		ShardsRetried:   r.Counter("abtest_shards_retried"),
		UsersCompleted:  r.Counter("abtest_users_completed"),
		UserErrors:      r.Counter("abtest_user_errors"),
		ShardProgress:   r.Gauge("abtest_shard_progress"),
		Recorder:        r.Recorder(),
	}
}

// ShardedResult is the outcome of a sharded run: merged per-arm sketches
// plus the run ledger.
type ShardedResult struct {
	Arms []*ArmSketch
	// NumShards is the planned shard count; Completed were run in this
	// process, Resumed were loaded from checkpoints.
	NumShards, Completed, Resumed int
	// UserErrors counts users excluded across all shards after retries.
	UserErrors int
	// Skipped lists checkpoint-validation rejections ("shard 3: checksum
	// mismatch"), each of which caused a re-run.
	Skipped []string
	// Stopped reports that a graceful stop ended the run early; the result
	// covers only the finished shards and the run can be resumed.
	Stopped bool
	// Recovered counts dead workers' shards a coordinator re-claimed and
	// re-ran in-process (multi-process runs only).
	Recovered int
	// Quarantined lists poison shards a coordinator excluded from the
	// merge after retry exhaustion, ascending by index. The tables cover
	// every other shard; quarantined user ranges are simply absent.
	Quarantined []ManifestQuarantine
}

// Done reports whether every planned shard is accounted for — merged or
// quarantined.
func (r *ShardedResult) Done() bool {
	return r.Completed+r.Resumed+len(r.Quarantined) == r.NumShards
}

// configHash fingerprints everything that defines a sharded run's output:
// the population parameters, session schedule, ladder, arm set and shard
// plan. Checkpoints from a run with a different hash are never merged.
func configHash(cfg Config, arms []Arm, shardSize int) string {
	cfg = cfg.withDefaults()
	h := fnv.New64a()
	p := cfg.Population
	fmt.Fprintf(h, "users %d seed %d cap %v sigma %v rtt %v rttsigma %v\n",
		p.Users, p.Seed, p.MedianCapacity, p.CapacitySigma, p.MedianRTT, p.RTTSigma)
	if p.Faults != nil {
		fmt.Fprintf(h, "faults %+v\n", *p.Faults)
	}
	fmt.Fprintf(h, "sessions %d warmup %d chunks %d dur %v ladder %v parallel-invariant\n",
		cfg.SessionsPerUser, cfg.WarmupSessions, cfg.ChunksPerSession, cfg.ChunkDuration, cfg.Ladder)
	fmt.Fprintf(h, "shard %d sketch %d arms", shardSize, sketchCompression)
	for _, n := range hashedArmNames(arms) {
		fmt.Fprintf(h, " %s", n)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// armNames extracts the arm name list for the manifest.
func armNames(arms []Arm) []string {
	names := make([]string, len(arms))
	for i, a := range arms {
		names[i] = a.Name
	}
	return names
}

// hashedArmNames renders each arm as it feeds the config hash: the name,
// plus the history warm-up when one is set (a warmed arm produces different
// output than a cold one of the same name, so it must move the hash). Plain
// names stay unchanged so PR 8-era checkpoints keep their hashes.
func hashedArmNames(arms []Arm) []string {
	names := make([]string, len(arms))
	for i, a := range arms {
		names[i] = a.Name
		if a.WarmSessions > 0 {
			names[i] = fmt.Sprintf("%s/warm%d", a.Name, a.WarmSessions)
		}
	}
	return names
}

// RunSharded executes the experiment shard by shard in bounded memory,
// optionally checkpointing and resuming. For a fixed configuration the
// merged sketches are byte-for-byte deterministic regardless of where the
// run was killed and resumed: each shard's sketch is folded sequentially in
// user order after its parallel session phase, checkpoint serialization
// round-trips floats exactly, and shards merge in ascending index order.
func RunSharded(cfg ShardRunConfig) (*ShardedResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Arms) == 0 {
		return nil, fmt.Errorf("abtest: sharded run needs at least one arm")
	}
	if cfg.Experiment.Population.Users <= 0 {
		return nil, fmt.Errorf("abtest: sharded run needs a population size")
	}
	plan := planShards(cfg.Experiment.Population.Users, cfg.ShardSize)
	hash := configHash(cfg.Experiment, cfg.Arms, cfg.ShardSize)
	res := &ShardedResult{NumShards: len(plan)}

	var loaded map[int]*shardPayload
	if cfg.CheckpointDir != "" {
		if err := ensureDurableDir(cfg.CheckpointDir); err != nil {
			return nil, fmt.Errorf("abtest: checkpoint dir: %w", err)
		}
		if cfg.Resume {
			var err error
			loaded, res.Skipped, err = loadCompletedShards(cfg.CheckpointDir, hash, plan)
			if err != nil {
				return nil, err
			}
		}
	}

	manifest := Manifest{
		ConfigHash: hash,
		Arms:       armNames(cfg.Arms),
		Users:      cfg.Experiment.Population.Users,
		ShardSize:  cfg.ShardSize,
		NumShards:  len(plan),
		Config:     configKnobs(cfg.Experiment, cfg.Arms, cfg.ShardSize),
	}

	// Shards are visited — and therefore merged — in ascending index order
	// whether each one was resumed from disk or run live, which is the fixed
	// merge order byte-identical resumption depends on. Merging as we go
	// keeps memory at one in-flight shard plus the running sketches.
	res.Arms = make([]*ArmSketch, len(cfg.Arms))
	for a, arm := range cfg.Arms {
		res.Arms[a] = NewArmSketch(arm.Name)
	}
	mergeShard := func(arms []*ArmSketch) error {
		for a := range res.Arms {
			if err := res.Arms[a].Merge(arms[a]); err != nil {
				return err
			}
		}
		return nil
	}
	// The workers run shard i+1 (the next shard with no checkpoint to load)
	// while this goroutine folds, checkpoints and reports shard i; that is
	// at most two shards in flight. A shard's "done" event is emitted only
	// once its checkpoint and manifest are durable.
	w := newRunner(cfg.Experiment, cfg.Arms)
	type prefetched struct {
		shard int
		b     *batch
	}
	var ahead *prefetched
	defer func() {
		if ahead != nil {
			w.discard(ahead.b)
		}
		w.close()
	}()
	stopped := false
	for i, r := range plan {
		if p, ok := loaded[i]; ok {
			arms, err := shardArmsFromPayload(p, cfg.Arms)
			if err != nil {
				// Validation accepted the file but its sketches don't match
				// the arm set; treat like any other corruption and re-run.
				res.Skipped = append(res.Skipped, fmt.Sprintf("shard %d: %v", i, err))
			} else {
				if err := mergeShard(arms); err != nil {
					return nil, err
				}
				res.Resumed++
				res.UserErrors += p.UserErrors
				manifest.Shards = append(manifest.Shards, ManifestShard{
					Index: i, Lo: p.Lo, Hi: p.Hi, File: shardFileName(i), Checksum: shardChecksum(p),
				})
				cfg.observe(ShardEvent{Shard: i, NumShards: len(plan), Lo: r.lo, Hi: r.hi,
					Status: "resumed", UserErrors: p.UserErrors})
				continue
			}
		}
		if cfg.stopRequested() {
			// A prefetched shard is discarded by the deferred cleanup, not
			// checkpointed: a stop commits only shards already finished.
			stopped = true
			cfg.observe(ShardEvent{Shard: i, NumShards: len(plan), Lo: r.lo, Hi: r.hi, Status: "stopped"})
			break
		}

		var b *batch
		if ahead != nil && ahead.shard == i {
			b, ahead = ahead.b, nil
		} else {
			b = w.startShard(cfg.Experiment.Population, r)
		}
		if ahead == nil {
			for j := i + 1; j < len(plan); j++ {
				if _, ok := loaded[j]; !ok {
					ahead = &prefetched{shard: j, b: w.startShard(cfg.Experiment.Population, plan[j])}
					break
				}
			}
		}
		arms, userErrors, retries := w.finishShard(cfg, r, b)
		res.Completed++
		res.UserErrors += userErrors
		if retries > 0 {
			cfg.observe(ShardEvent{Shard: i, NumShards: len(plan), Lo: r.lo, Hi: r.hi,
				Status: "retried", UserErrors: userErrors})
		}
		if err := mergeShard(arms); err != nil {
			return nil, err
		}

		if cfg.CheckpointDir != "" {
			entry, err := writeShardCheckpoint(cfg.CheckpointDir, newShardPayload(hash, i, r, arms, userErrors, retries))
			if err != nil {
				return nil, err
			}
			manifest.Shards = append(manifest.Shards, entry)
			if err := writeManifest(cfg.CheckpointDir, manifest); err != nil {
				return nil, fmt.Errorf("abtest: manifest: %w", err)
			}
		}
		w.recycle(arms)
		cfg.observe(ShardEvent{Shard: i, NumShards: len(plan), Lo: r.lo, Hi: r.hi,
			Status: "done", UserErrors: userErrors})
	}
	res.Stopped = stopped
	return res, nil
}

// stopRequested reports whether the Stop channel fired.
func (c ShardRunConfig) stopRequested() bool {
	if c.Stop == nil {
		return false
	}
	select {
	case <-c.Stop:
		return true
	default:
		return false
	}
}

// observe fans a shard event out to the Progress callback, the obs metrics
// and the process tracer.
func (c ShardRunConfig) observe(ev ShardEvent) {
	if c.Progress != nil {
		c.Progress(ev)
	}
	if m := c.Metrics; m != nil {
		switch ev.Status {
		case "done":
			m.ShardsCompleted.Add(1)
			m.UsersCompleted.Add(int64(ev.Hi - ev.Lo - ev.UserErrors))
			m.UserErrors.Add(int64(ev.UserErrors))
		case "resumed":
			m.ShardsResumed.Add(1)
		case "retried":
			m.ShardsRetried.Add(1)
		}
		if ev.Status == "done" || ev.Status == "resumed" {
			m.ShardProgress.Set(float64(ev.Shard+1) / float64(ev.NumShards))
		}
		if rec := m.Recorder; rec != nil {
			rec.Record("abtest_shard_"+ev.Status, fmt.Sprintf("%d/%d", ev.Shard, ev.NumShards),
				float64(ev.Hi-ev.Lo), float64(ev.UserErrors))
		}
	}
}

// newShardPayload is the checkpoint body of a finished shard.
func newShardPayload(hash string, shard int, r shardRange, arms []*ArmSketch, userErrors, retries int) shardPayload {
	p := shardPayload{
		ConfigHash: hash, Shard: shard, Lo: r.lo, Hi: r.hi,
		UserErrors: userErrors, Retries: retries,
	}
	for _, a := range arms {
		p.Arms = append(p.Arms, a.snapshot())
	}
	return p
}

// startShard draws shard r's users and queues them on the workers.
func (w *runner) startShard(pop PopulationConfig, r shardRange) *batch {
	return w.submit(GenerateUserRange(pop, r.lo, r.hi))
}

// runShard runs one shard's full experiment — population range, paired
// pre-experiment measurement, every arm — to completion (see finishShard)
// and returns its checkpoint payload.
func (w *runner) runShard(cfg ShardRunConfig, hash string, shard int, r shardRange) shardPayload {
	arms, userErrors, retries := w.finishShard(cfg, r, w.startShard(cfg.Experiment.Population, r))
	p := newShardPayload(hash, shard, r, arms, userErrors, retries)
	w.recycle(arms)
	return p
}

// finishShard waits for shard r's batch b and folds the surviving users'
// sessions into empty per-arm sketches in user order. A user that fails
// (recovered panic) in the pre-experiment phase or any arm is excluded from
// every arm, preserving the paired design, and the whole shard is re-run up
// to cfg.MaxShardRetries times in case the failure was transient.
func (w *runner) finishShard(cfg ShardRunConfig, r shardRange, b *batch) (arms []*ArmSketch, userErrors, retries int) {
	span := traceShardSpan(r)
	defer func() {
		if span != nil {
			span.SetAttr("user_errors", float64(userErrors)).
				SetAttr("retries", float64(retries)).End()
		}
	}()
	for attempt := 0; ; attempt++ {
		b.pending.Wait()
		arms, userErrors = w.foldShard(b)
		w.release(b)
		if userErrors == 0 || attempt >= cfg.MaxShardRetries {
			return arms, userErrors, attempt
		}
		b = w.startShard(cfg.Experiment.Population, r)
	}
}

// traceShardSpan opens a span for the shard under the process tracer, nil
// when tracing is off.
func traceShardSpan(r shardRange) *trace.Span {
	t := trace.Default()
	if t == nil {
		return nil
	}
	return t.Session("abtest/shards").Start("abtest.shard", fmt.Sprintf("users %d-%d", r.lo, r.hi)).
		SetAttr("lo", float64(r.lo)).SetAttr("hi", float64(r.hi))
}

// foldShard folds a finished shard batch into per-arm sketches:
// ascending user position, session order within the user, skipping users
// that failed anywhere in the shard.
func (w *runner) foldShard(b *batch) (arms []*ArmSketch, userErrors int) {
	for i := range b.users {
		if w.failed(b, i) {
			userErrors++
		}
	}
	arms = make([]*ArmSketch, len(w.arms))
	for a, arm := range w.arms {
		sketch := w.armSketch(arm.Name)
		sketch.Errors = userErrors
		for i := range b.users {
			if w.failed(b, i) {
				continue
			}
			for _, rec := range w.userRecs(b, a, i) {
				sketch.AddSession(rec)
			}
		}
		arms[a] = sketch
	}
	return arms, userErrors
}

// shardArmsFromPayload restores a checkpointed shard's sketches, verifying
// the arm set matches the run's.
func shardArmsFromPayload(p *shardPayload, arms []Arm) ([]*ArmSketch, error) {
	if len(p.Arms) != len(arms) {
		return nil, fmt.Errorf("checkpoint has %d arms, run has %d", len(p.Arms), len(arms))
	}
	out := make([]*ArmSketch, len(arms))
	for i, snap := range p.Arms {
		if snap.Name != arms[i].Name {
			return nil, fmt.Errorf("checkpoint arm %d is %q, run expects %q", i, snap.Name, arms[i].Name)
		}
		a, err := armSketchFromSnapshot(snap)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// shardChecksum recomputes the ledger checksum for a resumed shard's
// manifest entry. Re-marshaling reproduces the on-disk payload bytes: field
// order is fixed by the struct and Go's float encoding round-trips exactly.
func shardChecksum(p *shardPayload) string {
	body, err := json.Marshal(p)
	if err != nil {
		return ""
	}
	return fnvHex(body)
}
