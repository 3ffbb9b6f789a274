package abtest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// plantLease writes shard's lease file directly (bypassing the claim path)
// and backdates its mtime by age, simulating a holder that died age ago.
func plantLease(t *testing.T, dir string, shard int, owner string, attempt int, hash string, age time.Duration) {
	t.Helper()
	p := leasePayload{Schema: leaseSchema, ConfigHash: hash, Shard: shard, Owner: owner, Attempt: attempt}
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, leaseFileName(shard))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-age) //sammy:nondeterministic-ok: test backdates a lease file mtime; wall clock is the thing under test
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseClaimAndRelease(t *testing.T) {
	dir := t.TempDir()
	l, kind, err := claimShardLease(dir, 3, "alice", "hash", time.Minute)
	if err != nil || l == nil || kind != claimFresh {
		t.Fatalf("fresh claim: lease=%v kind=%v err=%v", l, kind, err)
	}
	if l.Attempt() != 1 || l.Owner() != "alice" {
		t.Fatalf("lease identity: attempt=%d owner=%q", l.Attempt(), l.Owner())
	}
	info := inspectLease(dir, 3, time.Minute)
	if info.state != leaseFresh || info.owner != "alice" || info.attempt != 1 {
		t.Fatalf("inspect after claim: %+v", info)
	}
	// A second claimant must be turned away while the lease is fresh.
	if l2, _, err := claimShardLease(dir, 3, "bob", "hash", time.Minute); err != nil || l2 != nil {
		t.Fatalf("claim of a held lease: lease=%v err=%v", l2, err)
	}
	l.Release()
	if info := inspectLease(dir, 3, time.Minute); info.state != leaseNone {
		t.Fatalf("lease survives release: %+v", info)
	}
}

// TestLeaseClaimContention races many claimants for one unclaimed shard:
// exclusive create must admit exactly one.
func TestLeaseClaimContention(t *testing.T) {
	dir := t.TempDir()
	const claimants = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var winners []*Lease
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, _, err := claimShardLease(dir, 0, NewOwnerID(), "hash", time.Minute)
			if err != nil {
				t.Errorf("claimant %d: %v", i, err)
				return
			}
			if l != nil {
				mu.Lock()
				winners = append(winners, l)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(winners) != 1 {
		t.Fatalf("%d claimants won a fresh claim, want exactly 1", len(winners))
	}
	if !winners[0].VerifyOwnership() {
		t.Error("the winning claimant does not own its lease")
	}
}

// TestLeaseStealExpired is the dead-worker path: a lease whose heartbeat
// went stale is stolen with the attempt counter incremented, and the
// original (resurrected) holder must observe the loss.
func TestLeaseStealExpired(t *testing.T) {
	dir := t.TempDir()
	victim, _, err := claimShardLease(dir, 1, "victim", "hash", 200*time.Millisecond)
	if err != nil || victim == nil {
		t.Fatalf("victim claim: %v %v", victim, err)
	}
	// Backdate the lease past its TTL instead of sleeping.
	path := filepath.Join(dir, leaseFileName(1))
	old := time.Now().Add(-time.Second) //sammy:nondeterministic-ok: test backdates a lease file mtime; wall clock is the thing under test
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	thief, kind, err := claimShardLease(dir, 1, "thief", "hash", 200*time.Millisecond)
	if err != nil || thief == nil || kind != claimStolen {
		t.Fatalf("steal: lease=%v kind=%v err=%v", thief, kind, err)
	}
	if thief.Attempt() != 2 {
		t.Errorf("stolen lease attempt = %d, want 2 (the retry ledger survives the steal)", thief.Attempt())
	}
	// The resurrected victim must not trust its hold: the pre-checkpoint
	// gate fails and the victim abandons the shard.
	if victim.VerifyOwnership() {
		t.Error("victim still claims ownership after the steal")
	}
	if !thief.VerifyOwnership() {
		t.Error("thief does not own the lease it stole")
	}
	// The victim's release must not clobber the thief's lease.
	victim.Release()
	if info := inspectLease(dir, 1, 200*time.Millisecond); info.owner != "thief" {
		t.Errorf("victim's release removed the thief's lease: %+v", info)
	}
}

// TestLeaseStealRace races many stealers over one expired lease: the
// rename-then-verify protocol must crown at most one winner.
func TestLeaseStealRace(t *testing.T) {
	dir := t.TempDir()
	plantLease(t, dir, 0, "dead", 1, "hash", time.Hour)
	const stealers = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var winners []*Lease
	for i := 0; i < stealers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, _, err := claimShardLease(dir, 0, NewOwnerID(), "hash", time.Minute)
			if err != nil {
				t.Errorf("stealer %d: %v", i, err)
				return
			}
			if l != nil {
				mu.Lock()
				winners = append(winners, l)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(winners) > 1 {
		t.Fatalf("%d stealers won the same lease", len(winners))
	}
	if len(winners) == 1 && !winners[0].VerifyOwnership() {
		t.Error("the winning stealer does not own the lease")
	}
}

// TestLeaseStealPastDeadArbiter plants the steal marker of a stealer that
// won arbitration and died before its rename: while the marker is younger
// than the TTL nobody else may steal, and once it is older the next
// stealer arbitrates past it.
func TestLeaseStealPastDeadArbiter(t *testing.T) {
	dir := t.TempDir()
	const ttl = time.Minute
	plantLease(t, dir, 0, "dead", 1, "hash", time.Hour)
	marker := filepath.Join(dir, stealMarkerName(0, inspectLease(dir, 0, ttl), 0))
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, _, err := claimShardLease(dir, 0, "thief", "hash", ttl); err != nil || l != nil {
		t.Fatalf("stole past a live arbiter's marker: lease=%v err=%v", l, err)
	}
	old := time.Unix(1, 0)
	if err := os.Chtimes(marker, old, old); err != nil {
		t.Fatal(err)
	}
	l, kind, err := claimShardLease(dir, 0, "thief", "hash", ttl)
	if err != nil || l == nil || kind != claimStolen {
		t.Fatalf("steal past a dead arbiter: lease=%v kind=%v err=%v", l, kind, err)
	}
	if l.Attempt() != 2 {
		t.Errorf("stolen lease attempt = %d, want 2", l.Attempt())
	}
}

// TestLeaseHeartbeatKeepsFresh holds a short-TTL lease across several TTLs
// under heartbeat: nobody may steal it while its holder lives.
func TestLeaseHeartbeatKeepsFresh(t *testing.T) {
	dir := t.TempDir()
	ttl := 150 * time.Millisecond
	l, _, err := claimShardLease(dir, 0, "holder", "hash", ttl)
	if err != nil || l == nil {
		t.Fatalf("claim: %v %v", l, err)
	}
	l.StartHeartbeat()
	defer l.Release()
	time.Sleep(3 * ttl)
	if info := inspectLease(dir, 0, ttl); info.state != leaseFresh {
		t.Fatalf("heartbeat did not keep the lease fresh: %+v", info)
	}
	if thief, _, _ := claimShardLease(dir, 0, "thief", "hash", ttl); thief != nil {
		t.Fatal("a heartbeating lease was stolen")
	}
	if l.Lost() {
		t.Error("holder lost a lease nobody stole")
	}
}

// TestLeaseCorruptTornFile: a torn lease gets its full TTL (it may still be
// mid-write), then becomes stealable.
func TestLeaseCorruptTornFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, leaseFileName(0))
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if info := inspectLease(dir, 0, time.Minute); info.state != leaseFresh {
		t.Fatalf("young torn lease should count as fresh, got %+v", info)
	}
	old := time.Now().Add(-time.Hour) //sammy:nondeterministic-ok: test backdates a lease file mtime; wall clock is the thing under test
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if info := inspectLease(dir, 0, time.Minute); info.state != leaseCorrupt {
		t.Fatalf("old torn lease should be corrupt/stealable, got %+v", info)
	}
	l, kind, err := claimShardLease(dir, 0, "claimer", "hash", time.Minute)
	if err != nil || l == nil || kind != claimStolen {
		t.Fatalf("steal of an expired torn lease: lease=%v kind=%v err=%v", l, kind, err)
	}
}

// TestRunLeasedShardAbandonsStolenShard is the resurrect→abandon contract
// end to end: a holder whose lease was stolen before it could checkpoint
// must write nothing and report the shard abandoned.
func TestRunLeasedShardAbandonsStolenShard(t *testing.T) {
	dir := t.TempDir()
	cfg := shardConfig(7)
	cfg.CheckpointDir = dir
	cfg = cfg.withDefaults()
	hash := configHash(cfg.Experiment, cfg.Arms, cfg.ShardSize)
	plan := planShards(cfg.Experiment.Population.Users, cfg.ShardSize)

	victim, kind, err := claimShardLease(dir, 0, "victim", hash, 200*time.Millisecond)
	if err != nil || victim == nil {
		t.Fatalf("claim: %v %v", victim, err)
	}
	// Steal the lease out from under the victim before it runs.
	path := filepath.Join(dir, leaseFileName(0))
	old := time.Now().Add(-time.Second) //sammy:nondeterministic-ok: test backdates a lease file mtime; wall clock is the thing under test
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	thief, _, err := claimShardLease(dir, 0, "thief", hash, 200*time.Millisecond)
	if err != nil || thief == nil {
		t.Fatalf("steal: %v %v", thief, err)
	}

	ran, abandoned, _ := runLeasedShard(cfg, hash, plan[0], 0, len(plan), victim, kind, nil, nil, 0)
	if ran || !abandoned {
		t.Fatalf("stolen shard: ran=%v abandoned=%v, want false/true", ran, abandoned)
	}
	if hasFile(dir, shardFileName(0)) {
		t.Error("abandoned holder wrote a checkpoint anyway")
	}
}

// TestDuplicateShardExecutionIsByteIdentical is the idempotence fact the
// whole steal protocol leans on: two independent executions of one shard
// write byte-identical checkpoint files, so a verify-then-steal race can
// never produce divergent data.
func TestDuplicateShardExecutionIsByteIdentical(t *testing.T) {
	cfg := shardConfig(7).withDefaults()
	hash := configHash(cfg.Experiment, cfg.Arms, cfg.ShardSize)
	plan := planShards(cfg.Experiment.Population.Users, cfg.ShardSize)

	write := func(dir string) []byte {
		cfg := cfg
		cfg.CheckpointDir = dir
		arms, userErrors, retries := runShard(cfg, plan[1])
		payload := shardPayload{ConfigHash: hash, Shard: 1, Lo: plan[1].lo, Hi: plan[1].hi,
			UserErrors: userErrors, Retries: retries}
		for _, a := range arms {
			payload.Arms = append(payload.Arms, a.snapshot())
		}
		if _, err := writeShardCheckpoint(dir, payload); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, shardFileName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := write(t.TempDir())
	b := write(t.TempDir())
	if string(a) != string(b) {
		t.Error("two executions of the same shard produced different checkpoint bytes")
	}
}

// TestEnsureDurableDirNested covers the directory-creation durability helper
// on a fresh nested path and on an existing one.
func TestEnsureDurableDirNested(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "a", "b", "c")
	if err := ensureDurableDir(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("nested dir not created: %v", err)
	}
	if err := ensureDurableDir(dir); err != nil {
		t.Fatalf("idempotent call: %v", err)
	}
}

// TestAtomicWriteLeavesNoTemp: the durable write path must not strand *.tmp
// files on success.
func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := atomicWriteFile(dir, "x.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "x.json" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after atomic write: %v", names)
	}
}
