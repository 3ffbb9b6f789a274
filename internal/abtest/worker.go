package abtest

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the worker side of the multi-process population fan-out: a
// loop that scans the shard plan, claims unowned (or expired) shards via
// lease files, runs them on the same worker set and per-user task the
// single-process path uses, and checkpoints the results. Workers never touch the manifest —
// the coordinator owns it — so any number of workers can share a
// checkpoint directory without write races.

// FleetEvent is one lease/worker lifecycle notification, shared by the
// worker loop and the coordinator.
type FleetEvent struct {
	// Type is one of "claimed", "stolen", "done", "abandoned", "blocked",
	// "stopped" (worker loop); "worker-started", "worker-exited",
	// "lease-expired", "recovered", "quarantined", "rejected" (coordinator).
	Type      string
	Shard     int // -1 when not shard-specific
	NumShards int
	Lo, Hi    int
	Owner     string
	Worker    int // worker index for worker-* events, -1 otherwise
	Attempt   int
	// UserErrors rides on "done"/"recovered"; Detail carries reasons for
	// "quarantined"/"rejected"/"worker-exited".
	UserErrors int
	Detail     string
}

// FleetMetrics holds the fan-out layer's observability hooks, nil-guarded
// like every metrics struct in the repo.
type FleetMetrics struct {
	LeasesClaimed     *obs.Counter // fresh lease claims
	LeasesStolen      *obs.Counter // expired leases taken over
	LeasesExpired     *obs.Counter // leases observed past their TTL
	ShardsCompleted   *obs.Counter // shards run and checkpointed by this process
	ShardsRecovered   *obs.Counter // dead holders' shards re-run by the coordinator
	ShardsAbandoned   *obs.Counter // shards dropped after a lost lease
	ShardsQuarantined *obs.Counter // shards quarantined as poison
	WorkersAlive      *obs.Gauge   // forked worker processes currently alive
	Recorder          *obs.Recorder
}

// NewFleetMetrics builds a FleetMetrics wired to registry r (nil r yields
// nil, keeping instrumentation off).
func NewFleetMetrics(r *obs.Registry) *FleetMetrics {
	if r == nil {
		return nil
	}
	return &FleetMetrics{
		LeasesClaimed:     r.Counter("abtest_leases_claimed"),
		LeasesStolen:      r.Counter("abtest_leases_stolen"),
		LeasesExpired:     r.Counter("abtest_leases_expired"),
		ShardsCompleted:   r.Counter("abtest_fleet_shards_completed"),
		ShardsRecovered:   r.Counter("abtest_fleet_shards_recovered"),
		ShardsAbandoned:   r.Counter("abtest_fleet_shards_abandoned"),
		ShardsQuarantined: r.Counter("abtest_fleet_shards_quarantined"),
		WorkersAlive:      r.Gauge("abtest_fleet_workers_alive"),
		Recorder:          r.Recorder(),
	}
}

// record fans a fleet event out to the progress callback and metrics.
func fleetObserve(progress func(FleetEvent), m *FleetMetrics, ev FleetEvent) {
	if progress != nil {
		progress(ev)
	}
	if m != nil {
		switch ev.Type {
		case "claimed":
			m.LeasesClaimed.Inc()
		case "stolen":
			m.LeasesStolen.Inc()
			m.LeasesExpired.Inc()
		case "done":
			m.ShardsCompleted.Inc()
		case "recovered":
			m.ShardsRecovered.Inc()
		case "abandoned":
			m.ShardsAbandoned.Inc()
		case "quarantined":
			m.ShardsQuarantined.Inc()
		}
		if rec := m.Recorder; rec != nil {
			rec.Record("abtest_fleet_"+ev.Type, fmt.Sprintf("shard %d owner %s", ev.Shard, ev.Owner),
				float64(ev.Shard), float64(ev.Attempt))
		}
	}
}

// WorkerConfig parameterizes one worker process (or goroutine) attached to
// a shared checkpoint directory.
type WorkerConfig struct {
	// Experiment, Arms, ShardSize define the run and must match the
	// coordinator's exactly — the config hash embedded in every lease and
	// checkpoint enforces it.
	Experiment Config
	Arms       []Arm
	ShardSize  int
	// CheckpointDir is the shared coordination substrate. Required.
	CheckpointDir string
	// MaxShardRetries is the per-run user-failure retry budget of each
	// shard. Default DefaultShardRetries.
	MaxShardRetries int
	// Owner is this worker's lease identity. Default NewOwnerID().
	Owner string
	// WorkerID offsets the shard scan so a fleet spreads over the plan
	// instead of stampeding shard 0. Purely a contention optimization.
	WorkerID int
	// LeaseTTL is the steal threshold. Default DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxShardAttempts is the fleet-wide attempt budget per shard; a worker
	// never claims a shard whose lease already burned this many attempts
	// (quarantining it is the coordinator's call). Default
	// DefaultMaxShardAttempts.
	MaxShardAttempts int
	// PollInterval is the idle rescan period while other workers hold the
	// remaining shards. Default LeaseTTL/2.
	PollInterval time.Duration
	// Stop requests a graceful drain: finish the in-flight shard,
	// checkpoint it, release the lease, and return.
	Stop <-chan struct{}
	// Progress observes lease and shard lifecycle events.
	Progress func(FleetEvent)
	// Metrics, when non-nil, records fleet counters.
	Metrics *FleetMetrics
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	c.Experiment = c.Experiment.withDefaults()
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.MaxShardRetries < 0 {
		c.MaxShardRetries = 0
	} else if c.MaxShardRetries == 0 {
		c.MaxShardRetries = DefaultShardRetries
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
	return c
}

func (c WorkerConfig) stopRequested() bool {
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

// WorkerResult is one worker's ledger.
type WorkerResult struct {
	// Completed counts shards this worker ran and checkpointed; Stolen of
	// those were taken over from expired leases.
	Completed, Stolen int
	// Abandoned counts shards dropped mid-run because the lease was lost.
	Abandoned int
	// UserErrors sums excluded users across this worker's shards.
	UserErrors int
	// Stopped reports a graceful drain ended the loop early.
	Stopped bool
	// Blocked lists shards this worker could not resolve: their leases are
	// expired with the attempt budget exhausted, so only the coordinator
	// may quarantine them. Empty when a coordinator is running.
	Blocked []int
}

// RunWorker claims and runs shards from the shared checkpoint directory
// until every shard is resolved (checkpointed or quarantined), a graceful
// stop is requested, or only coordinator-actionable shards remain. It is
// safe to run any number of workers concurrently — in one process or many —
// against the same directory.
func RunWorker(cfg WorkerConfig) (*WorkerResult, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("abtest: worker needs a checkpoint directory")
	}
	if len(cfg.Arms) == 0 {
		return nil, fmt.Errorf("abtest: worker needs at least one arm")
	}
	if cfg.Experiment.Population.Users <= 0 {
		return nil, fmt.Errorf("abtest: worker needs a population size")
	}
	if err := ensureDurableDir(cfg.CheckpointDir); err != nil {
		return nil, fmt.Errorf("abtest: checkpoint dir: %w", err)
	}
	hash := configHash(cfg.Experiment, cfg.Arms, cfg.ShardSize)
	plan := planShards(cfg.Experiment.Population.Users, cfg.ShardSize)
	// Refuse to join a directory written by a different configuration:
	// mixed-config fleets would cross-contaminate checkpoints.
	if err := CheckResumeConfig(cfg.CheckpointDir, cfg.Experiment, cfg.Arms, cfg.ShardSize); err != nil {
		return nil, err
	}

	scfg := ShardRunConfig{
		Experiment:      cfg.Experiment,
		Arms:            cfg.Arms,
		ShardSize:       cfg.ShardSize,
		CheckpointDir:   cfg.CheckpointDir,
		MaxShardRetries: cfg.MaxShardRetries,
	}
	pool := newRunner(cfg.Experiment, cfg.Arms)
	defer pool.close()
	res := &WorkerResult{}
	offset := 0
	if n := len(plan); n > 0 && cfg.WorkerID > 0 {
		offset = cfg.WorkerID % n
	}

	for {
		resolved, progress := 0, false
		var blocked []int
		for k := range plan {
			i := (k + offset) % len(plan)
			if cfg.stopRequested() {
				res.Stopped = true
				fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "stopped", Shard: -1, NumShards: len(plan), Owner: cfg.Owner, Worker: cfg.WorkerID})
				return res, nil
			}
			if shardResolved(cfg.CheckpointDir, i) {
				resolved++
				continue
			}
			info := inspectLease(cfg.CheckpointDir, i, cfg.LeaseTTL)
			if info.state == leaseFresh {
				continue // a live holder is on it
			}
			if info.state != leaseNone && info.attempt >= cfg.MaxShardAttempts {
				// Attempt budget burned: quarantining is the coordinator's
				// decision, not a worker's.
				blocked = append(blocked, i)
				continue
			}
			lease, kind, err := claimShardLease(cfg.CheckpointDir, i, cfg.Owner, hash, cfg.LeaseTTL)
			if err != nil {
				return nil, fmt.Errorf("abtest: claiming shard %d: %w", i, err)
			}
			if lease == nil {
				continue // lost the race; move on
			}
			if ran, abandoned, userErrors := runLeasedShard(pool, scfg, hash, plan[i], i, len(plan), lease, kind, cfg.Progress, cfg.Metrics, cfg.WorkerID); ran {
				res.Completed++
				res.UserErrors += userErrors
				if kind == claimStolen {
					res.Stolen++
				}
				progress = true
			} else if abandoned {
				res.Abandoned++
			} else {
				resolved++ // checkpoint appeared under us; released without running
			}
		}
		if resolved == len(plan) {
			return res, nil
		}
		if !progress && len(blocked) > 0 && resolved+len(blocked) == len(plan) {
			// Everything left needs a coordinator: report and bow out so a
			// standalone worker fleet does not spin forever on poison.
			res.Blocked = append(res.Blocked, blocked...)
			for _, i := range blocked {
				fleetObserve(cfg.Progress, cfg.Metrics, FleetEvent{Type: "blocked", Shard: i, NumShards: len(plan),
					Lo: plan[i].lo, Hi: plan[i].hi, Owner: cfg.Owner, Worker: cfg.WorkerID})
			}
			return res, nil
		}
		if !progress {
			// Remaining shards are held by live peers (or freshly blocked);
			// wait for a holder to finish, die, or for the stop signal.
			select {
			case <-stopChan(cfg.Stop):
				res.Stopped = true
				return res, nil
			case <-time.After(cfg.PollInterval):
			}
		}
	}
}

// stopChan returns a never-ready channel for a nil Stop so select works.
func stopChan(c <-chan struct{}) <-chan struct{} {
	if c != nil {
		return c
	}
	return make(chan struct{})
}

// runLeasedShard runs one claimed shard under heartbeat, writes its
// checkpoint if the lease survived, and releases. Returns ran=true when the
// shard was executed and checkpointed by this holder, abandoned=true when
// the lease was lost mid-run (no checkpoint written).
func runLeasedShard(w *runner, scfg ShardRunConfig, hash string, r shardRange, shard, numShards int, lease *Lease, kind claimKind,
	progress func(FleetEvent), metrics *FleetMetrics, workerID int) (ran, abandoned bool, userErrors int) {
	defer lease.Release()
	// Double-check after winning the claim: another holder may have
	// resolved the shard between our scan and our claim.
	if shardResolved(lease.dir, shard) {
		return false, false, 0
	}
	evType := "claimed"
	if kind == claimStolen {
		evType = "stolen"
	}
	fleetObserve(progress, metrics, FleetEvent{Type: evType, Shard: shard, NumShards: numShards,
		Lo: r.lo, Hi: r.hi, Owner: lease.Owner(), Worker: workerID, Attempt: lease.Attempt()})

	lease.StartHeartbeat()
	payload := w.runShard(scfg, hash, shard, r)
	// The pre-checkpoint ownership gate: a resurrected worker whose lease
	// was stolen while it was suspended must abandon the shard. (Even if
	// the gate races a steal, duplicate checkpoints are byte-identical, so
	// correctness never depends on winning this check.)
	if !lease.VerifyOwnership() {
		fleetObserve(progress, metrics, FleetEvent{Type: "abandoned", Shard: shard, NumShards: numShards,
			Lo: r.lo, Hi: r.hi, Owner: lease.Owner(), Worker: workerID, Attempt: lease.Attempt()})
		return false, true, 0
	}
	if _, err := writeShardCheckpoint(scfg.CheckpointDir, payload); err != nil {
		// Disk trouble: leave the lease to expire so another worker (or the
		// coordinator) retries the shard.
		fleetObserve(progress, metrics, FleetEvent{Type: "abandoned", Shard: shard, NumShards: numShards,
			Lo: r.lo, Hi: r.hi, Owner: lease.Owner(), Worker: workerID, Attempt: lease.Attempt(), Detail: err.Error()})
		return false, true, 0
	}
	fleetObserve(progress, metrics, FleetEvent{Type: "done", Shard: shard, NumShards: numShards,
		Lo: r.lo, Hi: r.hi, Owner: lease.Owner(), Worker: workerID, Attempt: lease.Attempt(), UserErrors: payload.UserErrors})
	return true, false, payload.UserErrors
}
