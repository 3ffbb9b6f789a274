package abtest

import (
	crand "crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// This file is the shard-lease protocol that lets multiple worker processes
// share one checkpoint directory as their coordination substrate. A lease
// is a small JSON file next to the shard's checkpoint:
//
//	shard-NNNN.lease — who is running shard NNNN right now
//
// The protocol needs no server and no fcntl locks — only the two primitives
// the checkpoint layer already relies on: exclusive create (O_CREATE|O_EXCL)
// for a fresh claim, and atomic rename for a steal. Liveness rides on the
// lease file's mtime: the owner bumps it every TTL/3 (a heartbeat), and any
// process that finds a lease older than the TTL may steal it by renaming a
// replacement over it with the attempt counter incremented. The attempt
// counter is how poison shards surface: a shard whose every holder dies
// keeps getting stolen with a growing attempt count until the coordinator
// quarantines it.
//
// Steals race: every stealer that saw the same expired lease would rename
// over it, and each would then read its own payload back. So a steal is
// arbitrated first by an exclusive create of a steal marker named after
// the expired lease's generation (its attempt and mtime):
//
//	shard-NNNN.lease.<attempt>-<mtime>-<n>.steal
//
// Exactly one stealer creates the marker; the rest walk away. A stealer
// that reads the expired lease only after the winner's rename sees a fresh
// lease and never tries. If a winner dies between its marker and its
// rename, the marker outlives the TTL with the lease unchanged, and the
// next stealer arbitrates on the following marker (n+1), so the shard
// cannot wedge. Every holder still re-reads the file and checks that it
// names them — after claiming, on every heartbeat, and immediately before
// writing the shard checkpoint — and abandons the shard if it does not.
// The remaining window (verify, then a steal lands, then both finish the
// shard) is harmless by design: a shard checkpoint's bytes are a pure
// function of the run config, so duplicate executions write identical
// files and the merge — which reads each shard index exactly once — cannot
// double-count. See DESIGN.md §15 for the full argument.

const (
	leaseSchema  = "sammy-lease/v1"
	poisonSchema = "sammy-poison/v1"

	// DefaultLeaseTTL is how stale a lease's mtime must be before another
	// process may steal it. Heartbeats land every TTL/3, so a healthy
	// holder has two chances to renew before expiry even under scheduling
	// hiccups.
	DefaultLeaseTTL = 5 * time.Second

	// DefaultMaxShardAttempts bounds how many lease holders may die on one
	// shard before the coordinator quarantines it as poison.
	DefaultMaxShardAttempts = 3
)

// leaseFileName names shard i's lease file.
func leaseFileName(i int) string { return fmt.Sprintf("shard-%04d.lease", i) }

// poisonFileName names shard i's quarantine marker.
func poisonFileName(i int) string { return fmt.Sprintf("shard-%04d.poison", i) }

// NewOwnerID builds a process-unique lease owner identity. Uniqueness is
// what matters (host + pid + random suffix); the value never feeds results,
// so the randomness does not touch determinism.
func NewOwnerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Degrade to host+pid; still unique across live processes.
		return fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	return fmt.Sprintf("%s-%d-%x", host, os.Getpid(), b)
}

// leasePayload is the on-disk lease body.
type leasePayload struct {
	Schema     string `json:"schema"`
	ConfigHash string `json:"config_hash"`
	Shard      int    `json:"shard"`
	Owner      string `json:"owner"`
	// Attempt counts lease acquisitions for this shard: 1 on the first
	// claim, +1 on every steal. It is the fleet's retry ledger — it
	// survives worker and coordinator crashes because it lives in the file.
	Attempt int `json:"attempt"`
}

// leaseState classifies a shard's lease file.
type leaseState int

const (
	leaseNone    leaseState = iota // no lease file
	leaseFresh                     // held, heartbeat within TTL
	leaseExpired                   // held on paper, heartbeat older than TTL
	leaseCorrupt                   // unreadable/torn; stealable once its mtime expires
)

// leaseInfo is one observation of a shard's lease.
type leaseInfo struct {
	state   leaseState
	owner   string
	attempt int
	age     time.Duration
	mtime   time.Time // with attempt, names the lease generation a steal replaces
}

// inspectLease reads shard i's lease state without taking it. The mtime and
// the payload come from one open file, so they describe the same lease
// even if a steal renames a new one into place meanwhile.
func inspectLease(dir string, shard int, ttl time.Duration) leaseInfo {
	f, err := os.Open(filepath.Join(dir, leaseFileName(shard)))
	if err != nil {
		return leaseInfo{state: leaseNone}
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return leaseInfo{state: leaseNone}
	}
	age := mtimeAge(fi)
	info := leaseInfo{age: age, mtime: fi.ModTime()}
	data, err := io.ReadAll(f)
	var p leasePayload
	if err != nil || json.Unmarshal(data, &p) != nil || p.Schema != leaseSchema {
		info.state = leaseCorrupt
		if age < ttl {
			// A torn lease that is still being written (or just written)
			// gets its full TTL before anyone may steal it.
			info.state = leaseFresh
		}
		return info
	}
	info.owner, info.attempt = p.Owner, p.Attempt
	if age < ttl {
		info.state = leaseFresh
	} else {
		info.state = leaseExpired
	}
	return info
}

// mtimeAge is how long ago fi was last modified: the liveness of leases and
// steal markers.
func mtimeAge(fi os.FileInfo) time.Duration {
	return time.Since(fi.ModTime()) //sammy:nondeterministic-ok: lease liveness is wall-clock by design (file mtimes); it gates only who runs a shard, never the shard's deterministic output
}

// Lease is a held shard lease: the handle the owner uses to heartbeat,
// detect theft, and release.
type Lease struct {
	dir        string
	shard      int
	owner      string
	configHash string
	attempt    int
	ttl        time.Duration

	mu sync.Mutex
	// guarded by mu
	lost bool
	// guarded by mu
	stopHB chan struct{}
	// guarded by mu
	hbDone chan struct{}
}

// Attempt reports which acquisition of the shard this lease is (1 = first).
func (l *Lease) Attempt() int { return l.attempt }

// Owner reports the lease's owner identity.
func (l *Lease) Owner() string { return l.owner }

func (l *Lease) path() string { return filepath.Join(l.dir, leaseFileName(l.shard)) }

// claimKind says how a claim succeeded.
type claimKind int

const (
	claimFresh  claimKind = iota // exclusive create of a new lease
	claimStolen                  // replaced an expired lease
)

// claimShardLease tries to acquire shard's lease for owner. It returns
// (nil, _, nil) when the shard is held by a live owner or the claim race
// was lost — both mean "move on to another shard".
func claimShardLease(dir string, shard int, owner, configHash string, ttl time.Duration) (*Lease, claimKind, error) {
	path := filepath.Join(dir, leaseFileName(shard))
	info := inspectLease(dir, shard, ttl)
	switch info.state {
	case leaseFresh:
		return nil, 0, nil
	case leaseNone:
		p := leasePayload{Schema: leaseSchema, ConfigHash: configHash, Shard: shard, Owner: owner, Attempt: 1}
		body, err := json.Marshal(p)
		if err != nil {
			return nil, 0, err
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			if os.IsExist(err) {
				return nil, 0, nil // someone beat us to the create
			}
			return nil, 0, err
		}
		_, werr := f.Write(body)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			// A torn lease we own: remove it so the shard stays claimable.
			os.Remove(path)
			if werr == nil {
				werr = cerr
			}
			return nil, 0, werr
		}
		return &Lease{dir: dir, shard: shard, owner: owner, configHash: configHash, attempt: 1, ttl: ttl}, claimFresh, nil
	default: // leaseExpired, leaseCorrupt past its TTL
		won, err := arbitrateSteal(dir, shard, info, ttl)
		if err != nil || !won {
			return nil, 0, err
		}
		p := leasePayload{Schema: leaseSchema, ConfigHash: configHash, Shard: shard, Owner: owner, Attempt: info.attempt + 1}
		body, err := json.Marshal(p)
		if err != nil {
			return nil, 0, err
		}
		tmp, err := os.CreateTemp(dir, leaseFileName(shard)+".tmp*")
		if err != nil {
			return nil, 0, err
		}
		tmpName := tmp.Name()
		defer os.Remove(tmpName)
		if _, err := tmp.Write(body); err != nil {
			tmp.Close()
			return nil, 0, err
		}
		if err := tmp.Close(); err != nil {
			return nil, 0, err
		}
		//sammy:durablerename: lease files are advisory TTL state; losing one to a crash costs a re-acquire, not data
		if err := os.Rename(tmpName, path); err != nil {
			return nil, 0, err
		}
		l := &Lease{dir: dir, shard: shard, owner: owner, configHash: configHash, attempt: p.Attempt, ttl: ttl}
		// Only a stealer stalled past a whole TTL after its own
		// arbitration can have renamed over us; verify before declaring
		// victory.
		if !l.ownedByMe() {
			return nil, 0, nil
		}
		return l, claimStolen, nil
	}
}

// stealMarkerName names the n-th arbitration marker for replacing the lease
// generation seen in info.
func stealMarkerName(shard int, info leaseInfo, n int) string {
	return fmt.Sprintf("%s.%d-%d-%d.steal", leaseFileName(shard), info.attempt, info.mtime.UnixNano(), n)
}

// arbitrateSteal decides which of the stealers that saw the same expired
// lease generation may replace it: the one whose exclusive create of the
// generation's steal marker succeeds. A marker older than the TTL whose
// generation is still in place belongs to a stealer that died before its
// rename, and arbitration moves on to the next marker.
func arbitrateSteal(dir string, shard int, info leaseInfo, ttl time.Duration) (bool, error) {
	for n := 0; ; n++ {
		path := filepath.Join(dir, stealMarkerName(shard, info, n))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			return true, f.Close()
		}
		if !os.IsExist(err) {
			return false, err
		}
		fi, err := os.Stat(path)
		if err != nil || mtimeAge(fi) < ttl {
			return false, nil
		}
		now := inspectLease(dir, shard, ttl)
		if now.attempt != info.attempt || !now.mtime.Equal(info.mtime) {
			return false, nil // the winner's lease is in place
		}
	}
}

// ownedByMe re-reads the lease file and reports whether it still names this
// holder (same owner, same attempt).
func (l *Lease) ownedByMe() bool {
	data, err := os.ReadFile(l.path())
	if err != nil {
		return false
	}
	var p leasePayload
	if err := json.Unmarshal(data, &p); err != nil {
		return false
	}
	return p.Schema == leaseSchema && p.Owner == l.owner && p.Attempt == l.attempt
}

// StartHeartbeat begins renewing the lease's mtime every TTL/3 in a
// background goroutine. If a renewal discovers the lease was stolen, the
// goroutine marks the lease lost and exits; the owner must check Lost()
// before trusting its hold (in particular before checkpointing).
func (l *Lease) StartHeartbeat() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopHB != nil {
		return
	}
	l.stopHB = make(chan struct{})
	l.hbDone = make(chan struct{})
	stop, done := l.stopHB, l.hbDone
	interval := l.ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !l.renew() {
					l.markLost()
					return
				}
			}
		}
	}()
}

// renew verifies ownership and bumps the lease mtime. The verify-then-touch
// pair can race a steal; the worst case is one extra mtime bump on the
// thief's lease, and the next renewal detects the loss.
func (l *Lease) renew() bool {
	if !l.ownedByMe() {
		return false
	}
	now := time.Now() //sammy:nondeterministic-ok: heartbeat bumps the lease file's wall-clock mtime; scheduling metadata, never experiment output
	return os.Chtimes(l.path(), now, now) == nil
}

func (l *Lease) markLost() {
	l.mu.Lock()
	l.lost = true
	l.mu.Unlock()
}

// Lost reports whether a heartbeat observed the lease stolen out from under
// its owner (e.g. this process was suspended past the TTL and resurrected).
func (l *Lease) Lost() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost
}

// stopHeartbeat stops the renewal goroutine and waits for it to exit.
func (l *Lease) stopHeartbeat() {
	l.mu.Lock()
	stop, done := l.stopHB, l.hbDone
	l.stopHB, l.hbDone = nil, nil
	l.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Release stops the heartbeat and removes the lease file if this holder
// still owns it. A lost lease is left alone — it belongs to the thief now.
func (l *Lease) Release() {
	l.stopHeartbeat()
	if l.Lost() || !l.ownedByMe() {
		return
	}
	os.Remove(l.path())
}

// VerifyOwnership is the pre-checkpoint gate: it reports whether the lease
// is still held (heartbeat has not flagged a loss and the file still names
// this owner).
func (l *Lease) VerifyOwnership() bool {
	return !l.Lost() && l.ownedByMe()
}

// poisonPayload is the on-disk quarantine marker for a shard whose every
// attempt died: the coordinator writes it instead of failing the run, and
// every worker treats the shard as resolved.
type poisonPayload struct {
	Schema     string `json:"schema"`
	ConfigHash string `json:"config_hash"`
	Shard      int    `json:"shard"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
	Attempts   int    `json:"attempts"`
	Reason     string `json:"reason"`
}

// writePoisonMarker quarantines a shard durably and atomically.
func writePoisonMarker(dir string, p poisonPayload) error {
	p.Schema = poisonSchema
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return atomicWriteFile(dir, poisonFileName(p.Shard), body)
}

// readPoisonMarker loads shard i's quarantine marker; (nil, nil) when none.
func readPoisonMarker(dir string, shard int) (*poisonPayload, error) {
	data, err := os.ReadFile(filepath.Join(dir, poisonFileName(shard)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var p poisonPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", poisonFileName(shard), err)
	}
	if p.Schema != poisonSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", poisonFileName(shard), p.Schema, poisonSchema)
	}
	return &p, nil
}

// hasFile reports plain existence; shard checkpoints and poison markers are
// written atomically, so existence is a meaningful signal (full validation
// happens at merge).
func hasFile(dir, name string) bool {
	_, err := os.Stat(filepath.Join(dir, name))
	return err == nil
}

// shardResolved reports whether shard i needs no further work: it has a
// checkpoint or a quarantine marker.
func shardResolved(dir string, i int) bool {
	return hasFile(dir, shardFileName(i)) || hasFile(dir, poisonFileName(i))
}
