// Population-scale A/B modes: the single-process sharded runner, the
// multi-process coordinator that forks and supervises worker subprocesses,
// and the worker loop itself (the "population-worker" experiment, also
// reachable as "population -join" to attach an externally launched worker to
// a directory another process coordinates).
package main

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/obs"
)

// populationOpts bundles the population-mode flags.
type populationOpts struct {
	shards           int
	checkpointDir    string
	resume           bool
	workers          int
	join             bool
	leaseTTL         time.Duration
	workerID         int
	maxShardAttempts int
	chaosName        string
}

// populationArms is the standard population A/B cell pair.
func populationArms() []abtest.Arm {
	return []abtest.Arm{
		abtest.ControlArm(),
		abtest.SammyArm(core.DefaultC0, core.DefaultC1),
	}
}

// populationShardSize converts the -shards count into a users-per-shard size.
func populationShardSize(users, shards int) int {
	if shards <= 0 {
		shards = 1
	}
	return (users + shards - 1) / shards
}

// installStopSignal turns the first SIGINT/SIGTERM into a graceful-stop
// channel close (a second signal kills the process the usual way) and
// returns the channel plus a cleanup func.
func installStopSignal(what string) (<-chan struct{}, func()) {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		signal.Stop(sig)
		fmt.Fprintf(os.Stderr, "sammy-eval: %v: %s\n", s, what)
		close(stop)
	}()
	return stop, func() { signal.Stop(sig) }
}

// shardProgress prints shard lifecycle events to stderr.
func shardProgress(ev abtest.ShardEvent) {
	fmt.Fprintf(os.Stderr, "sammy-eval: shard %d/%d users [%d,%d) %s",
		ev.Shard+1, ev.NumShards, ev.Lo, ev.Hi, ev.Status)
	if ev.UserErrors > 0 {
		fmt.Fprintf(os.Stderr, " (%d users failed)", ev.UserErrors)
	}
	fmt.Fprintln(os.Stderr)
}

// fleetProgress prints fleet lifecycle events to stderr. It is called from
// the coordinator's monitor goroutines too; Fprintf to one writer is safe.
func fleetProgress(ev abtest.FleetEvent) {
	switch ev.Type {
	case "worker-started", "worker-exited":
		fmt.Fprintf(os.Stderr, "sammy-eval: worker %d %s", ev.Worker, ev.Type[len("worker-"):])
		if ev.Detail != "" {
			fmt.Fprintf(os.Stderr, " (%s)", ev.Detail)
		}
		fmt.Fprintln(os.Stderr)
	case "stopped":
		fmt.Fprintln(os.Stderr, "sammy-eval: worker loop stopped")
	default:
		fmt.Fprintf(os.Stderr, "sammy-eval: shard %d/%d users [%d,%d) %s", ev.Shard+1, ev.NumShards, ev.Lo, ev.Hi, ev.Type)
		if ev.Attempt > 1 {
			fmt.Fprintf(os.Stderr, " attempt %d", ev.Attempt)
		}
		if ev.UserErrors > 0 {
			fmt.Fprintf(os.Stderr, " (%d users failed)", ev.UserErrors)
		}
		if ev.Detail != "" {
			fmt.Fprintf(os.Stderr, ": %s", ev.Detail)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// printPopulationResult writes the final tables to stdout. Both the
// single-process and coordinated paths call this, which is what makes their
// stdout byte-identical for the same configuration: the merged sketches are
// identical, so the formatted tables are too.
func printPopulationResult(cfg abtest.Config, res *abtest.ShardedResult) {
	fmt.Printf("population A/B: %d users, %d shards\n", cfg.Population.Users, res.NumShards)
	if n := len(res.Quarantined); n > 0 {
		excluded := 0
		for _, q := range res.Quarantined {
			excluded += q.Hi - q.Lo
		}
		fmt.Printf("WARNING: %d shards quarantined, %d users excluded from the tables\n", n, excluded)
	}
	fmt.Print(abtest.FormatSketchTable("Table 2 (streamed): Sammy vs control (Welch 95% CI on % change of the mean)",
		abtest.CompareSketches(res.Arms[1], res.Arms[0])))
	fmt.Println("Figure 3 (streamed): throughput change by pre-experiment throughput group")
	for _, row := range abtest.CompareBucketSketches(res.Arms[1], res.Arms[0]) {
		fmt.Printf("  %-10s sessions=%6d  %+.2f%% [%.2f, %.2f]  median %+.2f%%\n",
			row.Bucket, row.Sessions, row.MeanChg.Point, row.MeanChg.Lo, row.MeanChg.Hi, row.MedianChgPct)
	}
	fmt.Println("paper: throughput -61% overall, ≈0 below 6 Mbps rising to -74% above 90 Mbps")
}

// runPopulation dispatches between the three population modes: plain
// single-process sharded run, multi-worker coordinator (-workers N), and
// joining worker (-join).
func runPopulation(cfg abtest.Config, opts populationOpts) {
	if opts.join {
		runPopulationWorker(cfg, opts)
		return
	}
	if opts.workers > 0 {
		runPopulationCoordinator(cfg, opts)
		return
	}
	runPopulationSingle(cfg, opts)
}

// runPopulationSingle is the crash-resumable single-process population A/B:
// the experiment runs shard by shard in bounded memory, checkpointing each
// completed shard when -checkpoint-dir is set. SIGINT/SIGTERM request a
// graceful stop — the shard being finished checkpoints, the next one
// (already running) is discarded, the process exits 0, and a rerun with
// -resume picks up where it left off. Progress
// goes to stderr; the final tables go to stdout only when the run completes,
// so stdout can be diffed byte-for-byte against an uninterrupted run.
func runPopulationSingle(cfg abtest.Config, opts populationOpts) {
	stop, cleanup := installStopSignal("finishing the in-flight shard, then checkpointing and exiting")
	defer cleanup()

	scfg := abtest.ShardRunConfig{
		Experiment:    cfg,
		Arms:          populationArms(),
		ShardSize:     populationShardSize(cfg.Population.Users, opts.shards),
		CheckpointDir: opts.checkpointDir,
		Resume:        opts.resume,
		Stop:          stop,
		Metrics:       abtest.NewShardMetrics(obs.Default()),
		Progress:      shardProgress,
	}
	if opts.resume {
		// Preflight so a config mismatch names the changed knobs instead of
		// silently re-running everything from shard zero.
		if err := abtest.CheckResumeConfig(opts.checkpointDir, cfg, scfg.Arms, scfg.ShardSize); err != nil {
			fmt.Fprintf(os.Stderr, "sammy-eval: %v\n", err)
			os.Exit(1)
		}
	}
	res, err := abtest.RunSharded(scfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sammy-eval: %v\n", err)
		os.Exit(1)
	}
	for _, s := range res.Skipped {
		fmt.Fprintf(os.Stderr, "sammy-eval: checkpoint rejected: %s\n", s)
	}
	if res.Stopped {
		fmt.Fprintf(os.Stderr, "sammy-eval: stopped after %d/%d shards", res.Completed+res.Resumed, res.NumShards)
		if opts.checkpointDir != "" {
			fmt.Fprintf(os.Stderr, "; rerun with -checkpoint-dir %s -resume to continue", opts.checkpointDir)
		}
		fmt.Fprintln(os.Stderr)
		return
	}
	// The run ledger is process history, not a result: it goes to stderr so
	// stdout stays byte-identical whether or not the run was resumed.
	fmt.Fprintf(os.Stderr, "sammy-eval: population A/B: %d users in %d shards (%d resumed, %d user errors)\n",
		cfg.Population.Users, res.NumShards, res.Resumed, res.UserErrors)
	printPopulationResult(cfg, res)
}

// runPopulationCoordinator is the fault-tolerant multi-process mode: it
// forks -workers sammy-eval subprocesses in population-worker mode against
// the shared -checkpoint-dir, supervises their shard leases, re-runs dead
// workers' shards, quarantines poison shards, and merges — byte-identically
// to the single-process path.
func runPopulationCoordinator(cfg abtest.Config, opts populationOpts) {
	if opts.checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "sammy-eval: population -workers needs -checkpoint-dir (the lease protocol lives in it)")
		os.Exit(2)
	}
	stop, cleanup := installStopSignal("draining workers, then merging finished shards and exiting")
	defer cleanup()

	shardSize := populationShardSize(cfg.Population.Users, opts.shards)
	ccfg := abtest.CoordinatorConfig{
		Experiment:       cfg,
		Arms:             populationArms(),
		ShardSize:        shardSize,
		CheckpointDir:    opts.checkpointDir,
		Resume:           opts.resume,
		Workers:          opts.workers,
		StartWorker:      func(i int) (*abtest.WorkerHandle, error) { return startWorkerProcess(cfg, opts, i) },
		LeaseTTL:         opts.leaseTTL,
		MaxShardAttempts: opts.maxShardAttempts,
		Stop:             stop,
		Progress:         fleetProgress,
		Metrics:          abtest.NewFleetMetrics(obs.Default()),
	}
	res, err := abtest.RunCoordinator(ccfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sammy-eval: %v\n", err)
		os.Exit(1)
	}
	for _, s := range res.Skipped {
		fmt.Fprintf(os.Stderr, "sammy-eval: checkpoint rejected: %s\n", s)
	}
	if res.Stopped {
		fmt.Fprintf(os.Stderr, "sammy-eval: stopped after %d/%d shards; rerun with -checkpoint-dir %s -resume to continue\n",
			res.Completed+res.Resumed, res.NumShards, opts.checkpointDir)
		return
	}
	fmt.Fprintf(os.Stderr, "sammy-eval: population A/B: %d users in %d shards via %d workers (%d resumed, %d recovered, %d quarantined, %d user errors)\n",
		cfg.Population.Users, res.NumShards, opts.workers, res.Resumed, res.Recovered, len(res.Quarantined), res.UserErrors)
	for _, q := range res.Quarantined {
		fmt.Fprintf(os.Stderr, "sammy-eval: quarantined shard %d users [%d,%d): %s\n", q.Index, q.Lo, q.Hi, q.Reason)
	}
	printPopulationResult(cfg, res)
}

// startWorkerProcess forks one sammy-eval subprocess in population-worker
// mode, re-deriving the worker's flags from the coordinator's configuration.
func startWorkerProcess(cfg abtest.Config, opts populationOpts, i int) (*abtest.WorkerHandle, error) {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	args := []string{
		"-users", strconv.Itoa(cfg.Population.Users),
		"-seed", strconv.FormatInt(cfg.Population.Seed, 10),
		"-sessions", strconv.Itoa(cfg.SessionsPerUser),
		"-chunks", strconv.Itoa(cfg.ChunksPerSession),
		"-shards", strconv.Itoa(opts.shards),
		"-checkpoint-dir", opts.checkpointDir,
		"-lease-ttl", opts.leaseTTL.String(),
		"-max-shard-attempts", strconv.Itoa(opts.maxShardAttempts),
		"-worker-id", strconv.Itoa(i),
	}
	if opts.chaosName != "" {
		args = append(args, "-chaos", opts.chaosName)
	}
	args = append(args, "population-worker")
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stderr // a worker's stdout is progress, not results
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &abtest.WorkerHandle{
		Stop: func() { cmd.Process.Signal(syscall.SIGTERM) },
		Kill: func() { cmd.Process.Kill() },
		Wait: cmd.Wait,
	}, nil
}

// runPopulationWorker is the worker side: claim shards via leases from the
// shared checkpoint directory, run them, checkpoint them, repeat until the
// run is resolved. It never writes the manifest and never prints tables —
// the coordinator owns both.
func runPopulationWorker(cfg abtest.Config, opts populationOpts) {
	if opts.checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "sammy-eval: population-worker needs -checkpoint-dir")
		os.Exit(2)
	}
	stop, cleanup := installStopSignal("finishing the in-flight shard, then releasing the lease and exiting")
	defer cleanup()

	res, err := abtest.RunWorker(abtest.WorkerConfig{
		Experiment:       cfg,
		Arms:             populationArms(),
		ShardSize:        populationShardSize(cfg.Population.Users, opts.shards),
		CheckpointDir:    opts.checkpointDir,
		WorkerID:         opts.workerID,
		LeaseTTL:         opts.leaseTTL,
		MaxShardAttempts: opts.maxShardAttempts,
		Stop:             stop,
		Progress:         fleetProgress,
		Metrics:          abtest.NewFleetMetrics(obs.Default()),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sammy-eval: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "sammy-eval: worker %d done: %d shards completed (%d stolen, %d abandoned, %d user errors)\n",
		opts.workerID, res.Completed, res.Stolen, res.Abandoned, res.UserErrors)
	if len(res.Blocked) > 0 {
		fmt.Fprintf(os.Stderr, "sammy-eval: worker %d: %d shards need a coordinator (attempt budget exhausted): %v\n",
			opts.workerID, len(res.Blocked), res.Blocked)
	}
}
