package abtest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the coordinator side of the multi-process population fan-out.
// The coordinator owns the run: it prepares the checkpoint directory, forks
// (or adopts) worker processes, watches the lease files for dead holders,
// re-claims and re-runs their shards in-process with a bounded attempt
// budget, quarantines shards that kill every holder, and — once every shard
// is resolved — performs the single deterministic merge and rewrites the
// manifest. Workers never write the manifest, so the coordinator's final
// rewrite is the only authority on what the run produced.
//
// Determinism: the merged sketches are byte-identical to a single-process
// RunSharded of the same configuration, no matter how many workers ran, died,
// or raced. Shard checkpoint bytes are a pure function of the run config
// (duplicate executions of one shard write identical files), and the final
// merge visits shard indexes in ascending order exactly once. See
// DESIGN.md §15.

// DefaultDrainTimeout bounds how long the coordinator waits for workers to
// exit gracefully before killing them.
const DefaultDrainTimeout = 10 * time.Second

// WorkerHandle is the coordinator's grip on one worker it started: a
// graceful stop, a hard kill, and a blocking wait. The CLI wraps os/exec
// subprocesses in this; tests wrap goroutines. Wait is called exactly once.
type WorkerHandle struct {
	Stop func()
	Kill func()
	Wait func() error
}

// CoordinatorConfig parameterizes a coordinated multi-worker population run.
type CoordinatorConfig struct {
	// Experiment, Arms, ShardSize define the run, exactly as in ShardRunConfig.
	Experiment Config
	Arms       []Arm
	ShardSize  int
	// CheckpointDir is the shared coordination substrate. Required — the
	// lease protocol lives in it.
	CheckpointDir string
	// Resume keeps valid checkpoints from a previous run of the same
	// configuration. Without it the coordinator clears the directory's
	// checkpoint/lease/poison/manifest files and starts fresh.
	Resume bool
	// Workers is how many workers to start via StartWorker. Zero is valid:
	// the coordinator runs every shard itself (and externally joined
	// workers may still participate through the directory).
	Workers int
	// StartWorker launches worker i and returns its handle. Nil defaults to
	// in-process goroutine workers, which is what tests use; the CLI
	// supplies a subprocess launcher.
	StartWorker func(i int) (*WorkerHandle, error)
	// Owner is the coordinator's own lease identity for recovery re-runs.
	// Default NewOwnerID().
	Owner string
	// LeaseTTL is the steal threshold. Default DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxShardAttempts is the per-shard fleet attempt budget; a shard whose
	// lease has burned this many attempts and expired again is quarantined
	// instead of retried. Default DefaultMaxShardAttempts.
	MaxShardAttempts int
	// MaxShardRetries is the per-run user-failure retry budget (runShard).
	// Default DefaultShardRetries.
	MaxShardRetries int
	// PollInterval is the supervision rescan period. Default LeaseTTL/2.
	PollInterval time.Duration
	// DrainTimeout bounds the graceful worker drain before Kill.
	// Default DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Stop requests a graceful end: workers drain, the finished shards are
	// merged, and the result comes back with Stopped set.
	Stop <-chan struct{}
	// Progress observes fleet lifecycle events. It may be called from the
	// worker-monitor goroutines concurrently; it must be safe for that.
	Progress func(FleetEvent)
	// Metrics, when non-nil, records fleet counters and the workers-alive
	// gauge.
	Metrics *FleetMetrics
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	c.Experiment = c.Experiment.withDefaults()
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.MaxShardRetries < 0 {
		c.MaxShardRetries = 0
	} else if c.MaxShardRetries == 0 {
		c.MaxShardRetries = DefaultShardRetries
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.Owner == "" {
		c.Owner = NewOwnerID()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.MaxShardAttempts <= 0 {
		c.MaxShardAttempts = DefaultMaxShardAttempts
	}
	if c.PollInterval <= 0 {
		c.PollInterval = c.LeaseTTL / 2
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	return c
}

func (c CoordinatorConfig) stopRequested() bool {
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

// setWorkersAlive updates the fleet gauge, nil-guarded.
func setWorkersAlive(m *FleetMetrics, n int64) {
	if m != nil {
		m.WorkersAlive.Set(float64(n))
	}
}

// RunCoordinator runs the full coordinated fan-out and returns the merged
// result. It is the multi-process counterpart of RunSharded and produces
// byte-identical sketches for the same configuration.
func RunCoordinator(cfg CoordinatorConfig) (*ShardedResult, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("abtest: coordinator needs a checkpoint directory")
	}
	if len(cfg.Arms) == 0 {
		return nil, fmt.Errorf("abtest: coordinator needs at least one arm")
	}
	if cfg.Experiment.Population.Users <= 0 {
		return nil, fmt.Errorf("abtest: coordinator needs a population size")
	}
	if err := ensureDurableDir(cfg.CheckpointDir); err != nil {
		return nil, fmt.Errorf("abtest: checkpoint dir: %w", err)
	}
	if cfg.Resume {
		if err := CheckResumeConfig(cfg.CheckpointDir, cfg.Experiment, cfg.Arms, cfg.ShardSize); err != nil {
			return nil, err
		}
	} else if err := cleanRunDir(cfg.CheckpointDir); err != nil {
		return nil, fmt.Errorf("abtest: clearing checkpoint dir: %w", err)
	}

	hash := configHash(cfg.Experiment, cfg.Arms, cfg.ShardSize)
	plan := planShards(cfg.Experiment.Population.Users, cfg.ShardSize)
	identity := Manifest{
		ConfigHash: hash,
		Arms:       armNames(cfg.Arms),
		Users:      cfg.Experiment.Population.Users,
		ShardSize:  cfg.ShardSize,
		NumShards:  len(plan),
		Config:     configKnobs(cfg.Experiment, cfg.Arms, cfg.ShardSize),
	}
	// Publish the run identity before any worker starts, so joining workers'
	// config preflight has a manifest to check against. A torn or missing
	// manifest is simply rewritten; shard entries are reconstructed from the
	// checkpoint files at the end regardless.
	if m, err := readManifest(cfg.CheckpointDir); err != nil || m == nil {
		if werr := writeManifest(cfg.CheckpointDir, identity); werr != nil {
			return nil, fmt.Errorf("abtest: manifest: %w", werr)
		}
	}

	// Remember which shards were already resolved before the fleet ran, for
	// the Completed/Resumed split in the result.
	preResolved := make(map[int]bool)
	for i := range plan {
		if hasFile(cfg.CheckpointDir, shardFileName(i)) || hasFile(cfg.CheckpointDir, poisonFileName(i)) {
			preResolved[i] = true
		}
	}

	scfg := ShardRunConfig{
		Experiment:      cfg.Experiment,
		Arms:            cfg.Arms,
		ShardSize:       cfg.ShardSize,
		CheckpointDir:   cfg.CheckpointDir,
		MaxShardRetries: cfg.MaxShardRetries,
	}

	// Fork the fleet.
	start := cfg.StartWorker
	if start == nil {
		start = func(i int) (*WorkerHandle, error) { return startInProcessWorker(cfg, i), nil }
	}
	var alive atomic.Int64
	var wg sync.WaitGroup
	handles := make([]*WorkerHandle, 0, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		h, err := start(i)
		if err != nil {
			drainWorkers(handles, &wg, cfg.DrainTimeout)
			return nil, fmt.Errorf("abtest: starting worker %d: %w", i, err)
		}
		handles = append(handles, h)
		setWorkersAlive(cfg.Metrics, alive.Add(1))
		fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "worker-started", Shard: -1, NumShards: len(plan), Worker: i})
		wg.Add(1)
		go func(i int, h *WorkerHandle) {
			defer wg.Done()
			err := h.Wait()
			setWorkersAlive(cfg.Metrics, alive.Add(-1))
			detail := ""
			if err != nil {
				detail = err.Error()
			}
			fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "worker-exited", Shard: -1, NumShards: len(plan), Worker: i, Detail: detail})
		}(i, h)
	}

	// Supervision loop: watch leases, recover dead holders' shards,
	// quarantine poison, and pick up unclaimed work when no worker is alive.
	recovered, reran := 0, make(map[int]bool)
	stopped := false
supervise:
	for {
		if cfg.stopRequested() {
			stopped = true
			break
		}
		pending := 0
		for i := range plan {
			if cfg.stopRequested() {
				stopped = true
				break supervise
			}
			if shardResolved(cfg.CheckpointDir, i) {
				continue
			}
			pending++
			info := inspectLease(cfg.CheckpointDir, i, cfg.LeaseTTL)
			switch info.state {
			case leaseFresh:
				continue // a live holder is on it
			case leaseNone:
				if alive.Load() > 0 {
					continue // the fleet will claim it
				}
			default: // expired, or corrupt past its TTL
				fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "lease-expired", Shard: i, NumShards: len(plan),
					Lo: plan[i].lo, Hi: plan[i].hi, Owner: info.owner, Worker: -1, Attempt: info.attempt})
				if info.attempt >= cfg.MaxShardAttempts {
					if err := quarantineShard(cfg, hash, plan, i, info); err != nil {
						return nil, err
					}
					continue
				}
			}
			lease, kind, err := claimShardLease(cfg.CheckpointDir, i, cfg.Owner, hash, cfg.LeaseTTL)
			if err != nil {
				return nil, fmt.Errorf("abtest: claiming shard %d: %w", i, err)
			}
			if lease == nil {
				continue // raced a worker; it owns the shard now
			}
			ran, _, userErrors := runLeasedShard(scfg, hash, plan[i], i, len(plan), lease, kind, cfg.Progress, cfg.Metrics, -1)
			if ran {
				reran[i] = true
				if kind == claimStolen {
					recovered++
					fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "recovered", Shard: i, NumShards: len(plan),
						Lo: plan[i].lo, Hi: plan[i].hi, Owner: cfg.Owner, Worker: -1, Attempt: lease.Attempt(), UserErrors: userErrors})
				}
			}
		}
		if pending == 0 {
			break
		}
		select {
		case <-stopChan(cfg.Stop):
			stopped = true
			break supervise
		case <-time.After(cfg.PollInterval):
		}
	}

	drainWorkers(handles, &wg, cfg.DrainTimeout)
	setWorkersAlive(cfg.Metrics, 0)

	res, err := mergeFleet(cfg, scfg, hash, plan, stopped, preResolved, reran)
	if err != nil {
		return nil, err
	}
	res.Recovered = recovered
	return res, nil
}

// startInProcessWorker is the default StartWorker: a goroutine running
// RunWorker against the shared directory. Stop and Kill both close the
// worker's stop channel (a goroutine cannot be hard-killed).
func startInProcessWorker(cfg CoordinatorConfig, i int) *WorkerHandle {
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(WorkerConfig{
			Experiment:       cfg.Experiment,
			Arms:             cfg.Arms,
			ShardSize:        cfg.ShardSize,
			CheckpointDir:    cfg.CheckpointDir,
			MaxShardRetries:  cfg.MaxShardRetries,
			WorkerID:         i,
			LeaseTTL:         cfg.LeaseTTL,
			MaxShardAttempts: cfg.MaxShardAttempts,
			Stop:             stop,
			Progress:         cfg.Progress,
			Metrics:          cfg.Metrics,
		})
		done <- err
	}()
	var once sync.Once
	stopFn := func() { once.Do(func() { close(stop) }) }
	return &WorkerHandle{Stop: stopFn, Kill: stopFn, Wait: func() error { return <-done }}
}

// drainWorkers stops every worker gracefully, escalates to Kill after the
// timeout, and waits for all monitor goroutines to observe the exits.
func drainWorkers(handles []*WorkerHandle, wg *sync.WaitGroup, timeout time.Duration) {
	for _, h := range handles {
		if h.Stop != nil {
			h.Stop()
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		for _, h := range handles {
			if h.Kill != nil {
				h.Kill()
			}
		}
		<-done
	}
}

// quarantineShard writes a shard's poison marker, clears its burned lease,
// and emits the event. From here on every scanner treats the shard as
// resolved and the merge lists it under Quarantined.
func quarantineShard(cfg CoordinatorConfig, hash string, plan []shardRange, i int, info leaseInfo) error {
	reason := fmt.Sprintf("lease expired after %d attempts", info.attempt)
	if info.owner != "" {
		reason += fmt.Sprintf(" (last owner %s)", info.owner)
	}
	err := writePoisonMarker(cfg.CheckpointDir, poisonPayload{
		ConfigHash: hash, Shard: i, Lo: plan[i].lo, Hi: plan[i].hi,
		Attempts: info.attempt, Reason: reason,
	})
	if err != nil {
		return fmt.Errorf("abtest: quarantining shard %d: %w", i, err)
	}
	os.Remove(filepath.Join(cfg.CheckpointDir, leaseFileName(i)))
	fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "quarantined", Shard: i, NumShards: len(plan),
		Lo: plan[i].lo, Hi: plan[i].hi, Owner: info.owner, Worker: -1, Attempt: info.attempt, Detail: reason})
	return nil
}

// loadShardFile reads and fully validates shard i's checkpoint against the
// run identity and plan, independent of any manifest.
func loadShardFile(dir, hash string, plan []shardRange, i int) (*shardPayload, string, error) {
	p, sum, err := readShardCheckpoint(dir, shardFileName(i))
	if err != nil {
		return nil, "", err
	}
	if p.ConfigHash != hash {
		return nil, "", fmt.Errorf("%s: config hash %s, want %s", shardFileName(i), p.ConfigHash, hash)
	}
	if p.Shard != i || p.Lo != plan[i].lo || p.Hi != plan[i].hi {
		return nil, "", fmt.Errorf("%s: covers users [%d,%d), plan says [%d,%d)", shardFileName(i), p.Lo, p.Hi, plan[i].lo, plan[i].hi)
	}
	return p, sum, nil
}

// mergeFleet is the coordinator's endgame: validate every shard checkpoint,
// re-run any that fail validation (unless the run was stopped), fold the
// sketches in ascending shard order, and rewrite the manifest as the
// authoritative ledger. A valid checkpoint takes precedence over a poison
// marker — if the data exists, it is used.
func mergeFleet(cfg CoordinatorConfig, scfg ShardRunConfig, hash string, plan []shardRange,
	stopped bool, preResolved, reran map[int]bool) (*ShardedResult, error) {
	res := &ShardedResult{NumShards: len(plan), Stopped: stopped}
	res.Arms = make([]*ArmSketch, len(cfg.Arms))
	for a, arm := range cfg.Arms {
		res.Arms[a] = NewArmSketch(arm.Name)
	}
	manifest := Manifest{
		ConfigHash: hash,
		Arms:       armNames(cfg.Arms),
		Users:      cfg.Experiment.Population.Users,
		ShardSize:  cfg.ShardSize,
		NumShards:  len(plan),
		Config:     configKnobs(cfg.Experiment, cfg.Arms, cfg.ShardSize),
	}

	for i := range plan {
		p, sum, err := loadShardFile(cfg.CheckpointDir, hash, plan, i)
		if err != nil && !os.IsNotExist(err) {
			// A file exists but fails validation: discard and (below) re-run.
			fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "rejected", Shard: i, NumShards: len(plan),
				Lo: plan[i].lo, Hi: plan[i].hi, Worker: -1, Detail: err.Error()})
			res.Skipped = append(res.Skipped, fmt.Sprintf("shard %d: %v", i, err))
			os.Remove(filepath.Join(cfg.CheckpointDir, shardFileName(i)))
		}
		if p == nil {
			if q, qerr := readPoisonMarker(cfg.CheckpointDir, i); qerr == nil && q != nil && q.ConfigHash == hash {
				entry := ManifestQuarantine{
					Index: i, Lo: q.Lo, Hi: q.Hi, Attempts: q.Attempts, Reason: q.Reason,
				}
				res.Quarantined = append(res.Quarantined, entry)
				manifest.Quarantined = append(manifest.Quarantined, entry)
				continue
			}
			if stopped {
				continue // partial result; the run can be resumed
			}
			// Unresolved after the fleet drained (or rejected above): the
			// coordinator runs it here, which also covers the stop-less case
			// where every worker exited without finishing.
			arms, userErrors, retries := runShard(scfg, plan[i])
			payload := shardPayload{ConfigHash: hash, Shard: i, Lo: plan[i].lo, Hi: plan[i].hi,
				UserErrors: userErrors, Retries: retries}
			for _, a := range arms {
				payload.Arms = append(payload.Arms, a.snapshot())
			}
			entry, werr := writeShardCheckpoint(cfg.CheckpointDir, payload)
			if werr != nil {
				return nil, werr
			}
			reran[i] = true
			p, sum = &payload, entry.Checksum
		}
		arms, err := shardArmsFromPayload(p, cfg.Arms)
		if err != nil {
			return nil, fmt.Errorf("abtest: shard %d: %w", i, err)
		}
		for a := range res.Arms {
			if err := res.Arms[a].Merge(arms[a]); err != nil {
				return nil, err
			}
		}
		res.UserErrors += p.UserErrors
		if preResolved[i] && !reran[i] {
			res.Resumed++
		} else {
			res.Completed++
		}
		manifest.Shards = append(manifest.Shards, ManifestShard{
			Index: i, Lo: p.Lo, Hi: p.Hi, File: shardFileName(i), Checksum: sum,
		})
	}
	if err := writeManifest(cfg.CheckpointDir, manifest); err != nil {
		return nil, fmt.Errorf("abtest: manifest: %w", err)
	}
	return res, nil
}

// cleanRunDir removes a previous run's protocol files — checkpoints, leases,
// steal and poison markers, the manifest, and stray atomic-write temp
// files — so a fresh (non-resume) coordinated run starts from a blank
// ledger.
func cleanRunDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == manifestName,
			strings.HasSuffix(name, ".ckpt"),
			strings.HasSuffix(name, ".lease"),
			strings.HasSuffix(name, ".poison"),
			strings.HasSuffix(name, ".steal"),
			strings.Contains(name, ".tmp"):
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return fsyncDir(dir)
}
