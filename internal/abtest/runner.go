package abtest

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	trace "repro/internal/obs/trace"
	"repro/internal/player"
	"repro/internal/units"
	"repro/internal/video"
)

// This file is the execution engine behind every population path — Run,
// RunSharded, the coordinator's in-process recovery and RunWorker: a fixed
// set of Config.Parallelism worker goroutines that live for the whole call,
// pull users one at a time from a queue of batches (a batch is one shard,
// or Run's whole population), and run each user's complete task —
// pre-experiment measurement, then every arm in order — on session state
// the worker owns and reuses. Output never depends on which worker ran a
// user: every stream is re-seeded from the user's seed, and results land
// in per-user slots that the caller folds in user order.

// runner is the fixed worker set.
type runner struct {
	cfg  Config
	arms []Arm

	mu     sync.Mutex
	cond   sync.Cond // signals queue/closed changes; L is &mu
	queue  []*batch  // guarded by mu
	closed bool      // guarded by mu
	wg     sync.WaitGroup

	// Owned by the goroutine that submits and folds (RunSharded's, the
	// worker loop's, the coordinator's): finished batches whose slots the
	// next batch reuses, and shard sketches whose digests the next fold
	// reuses.
	free     []*batch
	sketches []*ArmSketch
}

// batch is one group of users in flight on the runner.
type batch struct {
	users []*User
	// claimed counts users handed to workers; read and written only with
	// the runner's mu held.
	claimed int
	// recs holds each arm's measured sessions, measuredSessions per user,
	// user-major.
	recs [][]SessionRecord
	// errs holds one slot per (user, stage): stage 0 is the pre-experiment
	// measurement, stage 1+a is arm a. A recovered panic fills the slot.
	errs    []error
	pending sync.WaitGroup
	// discarded makes workers skip the batch's remaining users.
	discarded atomic.Bool
}

// newRunner starts cfg.Parallelism workers; cfg must have its defaults.
// close must be called to join them.
func newRunner(cfg Config, arms []Arm) *runner {
	r := &runner{cfg: cfg, arms: arms}
	r.cond.L = &r.mu
	for i := 0; i < cfg.Parallelism; i++ {
		r.wg.Add(1)
		go r.work(newSessionWorker(cfg))
	}
	return r
}

// close stops the workers once the queue is drained and waits for them.
func (r *runner) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
	r.wg.Wait()
}

// stages is the number of error slots per user.
func (r *runner) stages() int { return 1 + len(r.arms) }

// measuredSessions is how many sessions per user and arm are recorded.
func (r *runner) measuredSessions() int { return r.cfg.SessionsPerUser - r.cfg.WarmupSessions }

// submit queues users as a new batch, reusing a finished batch's slots
// when one is free, and returns at once.
func (r *runner) submit(users []*User) *batch {
	var b *batch
	if n := len(r.free); n > 0 {
		b, r.free = r.free[n-1], r.free[:n-1]
	} else {
		b = &batch{recs: make([][]SessionRecord, len(r.arms))}
	}
	b.users, b.claimed = users, 0
	b.discarded.Store(false)
	m := r.measuredSessions()
	for a := range b.recs {
		b.recs[a] = resize(b.recs[a], len(users)*m)
	}
	b.errs = resize(b.errs, len(users)*r.stages())
	b.pending.Add(len(users))
	if len(users) > 0 {
		r.mu.Lock()
		r.queue = append(r.queue, b)
		r.mu.Unlock()
		r.cond.Broadcast()
	}
	return b
}

// resize returns s with length n, reallocating only when it is too small.
// Stale contents are fine: every slot is written before it is read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release returns a batch whose results have been consumed; its slots
// serve a later batch. b must have finished (b.pending.Wait returned).
func (r *runner) release(b *batch) {
	b.users = nil
	r.free = append(r.free, b)
}

// discard abandons b: workers skip its unstarted users, and discard waits
// for the started ones so the batch can be reused.
func (r *runner) discard(b *batch) {
	b.discarded.Store(true)
	b.pending.Wait()
	r.release(b)
}

// armSketch returns an empty sketch for the named arm, reusing a recycled
// one when available.
func (r *runner) armSketch(name string) *ArmSketch {
	n := len(r.sketches)
	if n == 0 {
		return NewArmSketch(name)
	}
	a := r.sketches[n-1]
	r.sketches = r.sketches[:n-1]
	a.reset(name)
	return a
}

// recycle hands shard sketches back once they are merged and encoded.
func (r *runner) recycle(arms []*ArmSketch) { r.sketches = append(r.sketches, arms...) }

// failed reports whether user i failed in any stage.
func (r *runner) failed(b *batch, i int) bool {
	s := r.stages()
	for _, err := range b.errs[i*s : (i+1)*s] {
		if err != nil {
			return true
		}
	}
	return false
}

// userRecs returns user i's measured sessions in arm a.
func (r *runner) userRecs(b *batch, a, i int) []SessionRecord {
	m := r.measuredSessions()
	return b.recs[a][i*m : (i+1)*m]
}

// next hands out the oldest queued batch's next user, blocking while the
// queue is empty; ok is false once the runner is closed and drained.
func (r *runner) next() (b *batch, i int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.queue) == 0 && !r.closed {
		r.cond.Wait()
	}
	if len(r.queue) == 0 {
		return nil, 0, false
	}
	b = r.queue[0]
	i = b.claimed
	b.claimed++
	if b.claimed == len(b.users) {
		n := copy(r.queue, r.queue[1:])
		r.queue[n] = nil
		r.queue = r.queue[:n]
	}
	return b, i, true
}

// work is one worker's loop.
func (r *runner) work(w *sessionWorker) {
	defer r.wg.Done()
	for {
		b, i, ok := r.next()
		if !ok {
			return
		}
		if !b.discarded.Load() {
			w.runUser(r, b, i)
		}
		b.pending.Done()
	}
}

// sessionWorker is one worker's session state, reset for every stream
// rather than reallocated: the RNG, the player session (accounting, RTT
// digest, estimator, connection), the title's jitter, the user's history
// and the pre-experiment throughput samples.
type sessionWorker struct {
	cfg Config
	// rng draws from src, which re-seeds faster than rand.NewSource's
	// source and reproduces its streams bit for bit.
	rng   *rand.Rand
	src   seedSource
	sess  player.Session
	title video.Title
	hist  core.History
	tputs []float64
	// preExpChunk appends a chunk's throughput to tputs; built once so
	// passing it to the player does not allocate a closure per user.
	preExpChunk func(player.ChunkEvent)
}

func newSessionWorker(cfg Config) *sessionWorker {
	w := &sessionWorker{cfg: cfg}
	w.rng = rand.New(&w.src)
	w.preExpChunk = func(ev player.ChunkEvent) { w.tputs = append(w.tputs, ev.Throughput.Mbps()) }
	return w
}

// runUser is the per-user task: the pre-experiment measurement, then every
// arm in order, each stage recovering its own panic into b's error slots.
func (w *sessionWorker) runUser(r *runner, b *batch, i int) {
	u := b.users[i]
	errs := b.errs[i*r.stages() : (i+1)*r.stages()]
	errs[0] = w.measurePreExperiment(u)
	for a, arm := range r.arms {
		errs[1+a] = w.runArm(arm, u, r.userRecs(b, a, i))
	}
}

// recoverUser turns a panic in one of u's stages into that stage's error:
// one poisoned controller must not kill a multi-hour population run.
func recoverUser(u *User, err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("user %d: panic: %v\n%s", u.ID, p, debug.Stack())
	}
}

// measurePreExperiment fills u.PreExpThroughput with the p95 of per-chunk
// throughput from a short unpaced control session.
func (w *sessionWorker) measurePreExperiment(u *User) (err error) {
	defer recoverUser(u, &err)
	// Re-seeding the worker's RNG leaves exactly the state
	// rand.New(rand.NewSource(s)) starts in, so it replays the user's stream.
	w.rng.Seed(u.Seed ^ 0x5eed)
	w.title.Init(w.cfg.Ladder.CapAt(u.TopBitrate), w.cfg.ChunkDuration, 40, w.rng)
	w.hist = core.History{}
	w.tputs = w.tputs[:0]
	w.sess.Run(player.Config{
		Controller: core.NewControl(productionABR(0)),
		Title:      &w.title,
		History:    &w.hist,
	}, u.Path, w.rng, w.preExpChunk)
	u.PreExpThroughput = units.BitsPerSecond(p95(w.tputs)) * units.Mbps
	return nil
}

// runArm runs u's session sequence under arm, writing the measured
// sessions into out.
func (w *sessionWorker) runArm(arm Arm, u *User, out []SessionRecord) (err error) {
	defer recoverUser(u, &err)
	// Paired design: every arm sees the same user RNG stream and a fresh
	// history.
	w.rng.Seed(u.Seed)
	w.hist = core.History{}
	ctrl := arm.NewController()
	ladder := w.cfg.Ladder.CapAt(u.TopBitrate)
	// Warm the history with unrecorded sessions first; they consume the
	// user's RNG stream, which is fine — the warmed arm is its own cell,
	// not paired sample-for-sample against a cold arm's streams.
	for s := 0; s < arm.WarmSessions; s++ {
		w.title.Init(ladder, w.cfg.ChunkDuration, w.cfg.ChunksPerSession, w.rng)
		w.sess.Run(player.Config{Controller: ctrl, Title: &w.title, History: &w.hist}, u.Path, w.rng, nil)
	}
	for s := 0; s < w.cfg.SessionsPerUser; s++ {
		w.title.Init(ladder, w.cfg.ChunkDuration, w.cfg.ChunksPerSession, w.rng)
		// Trace IDs are only materialized when a process tracer is
		// installed (sammy-eval -trace): the fmt.Sprintf would otherwise
		// add a per-session allocation to the hot benchmark path.
		var traceID string
		if trace.Default() != nil {
			traceID = fmt.Sprintf("%s/u%03d/s%d", arm.Name, u.ID, s)
		}
		q := w.sess.Run(player.Config{
			Controller: ctrl,
			Title:      &w.title,
			History:    &w.hist,
			TraceID:    traceID,
		}, u.Path, w.rng, nil)
		if s >= w.cfg.WarmupSessions {
			out[s-w.cfg.WarmupSessions] = SessionRecord{UserID: u.ID, PreExp: u.PreExpThroughput, QoE: q}
		}
	}
	return nil
}
