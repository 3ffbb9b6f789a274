package abtest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// This file implements the on-disk side of crash-resumable population runs.
//
// Layout of a checkpoint directory:
//
//	manifest.json    — run identity (config hash, arm set, shard plan) and
//	                   the status ledger of completed shards
//	shard-NNNN.ckpt  — one file per completed shard: a checksummed header
//	                   line plus the shard's serialized arm sketches
//
// Every write is atomic (tmp file + fsync + rename + dir fsync), so a
// SIGKILL at any instant leaves either the old file, the new file, or a
// stray *.tmp that validation ignores — never a torn file that parses.
// Each shard file carries an FNV-64a checksum of its payload; on resume,
// any shard whose file is missing, truncated, corrupted, config-mismatched,
// or listed twice in the manifest is discarded and re-run rather than
// merged.

const (
	checkpointSchema = "sammy-ckpt/v1"
	manifestSchema   = "sammy-manifest/v1"
	manifestName     = "manifest.json"
)

// shardFileName names shard i's checkpoint file.
func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.ckpt", i) }

// shardPayload is the serialized result of one completed shard.
type shardPayload struct {
	Schema     string              `json:"schema"`
	ConfigHash string              `json:"config_hash"`
	Shard      int                 `json:"shard"`
	Lo         int                 `json:"lo"`
	Hi         int                 `json:"hi"`
	UserErrors int                 `json:"user_errors,omitempty"`
	Retries    int                 `json:"retries,omitempty"`
	Arms       []armSketchSnapshot `json:"arms"`
}

// Manifest records a sharded run's identity and progress. It is rewritten
// atomically after every completed shard (single-process) or by the
// coordinator (multi-process).
type Manifest struct {
	Schema     string   `json:"schema"`
	ConfigHash string   `json:"config_hash"`
	Arms       []string `json:"arms"`
	Users      int      `json:"users"`
	ShardSize  int      `json:"shard_size"`
	NumShards  int      `json:"num_shards"`
	// Config is the human-readable knob capture behind ConfigHash, so a
	// resume with a different configuration can say which knob changed
	// instead of just "hash differs". Keys sort deterministically in the
	// JSON encoding.
	Config map[string]string `json:"config,omitempty"`
	Shards []ManifestShard   `json:"shards"`
	// Quarantined lists poison shards a coordinator excluded from the
	// merge after their fleet attempt budget was exhausted.
	Quarantined []ManifestQuarantine `json:"quarantined,omitempty"`
}

// ManifestShard is one completed shard's ledger entry.
type ManifestShard struct {
	Index    int    `json:"index"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Checksum string `json:"checksum"`
	File     string `json:"file"`
}

// ManifestQuarantine is one quarantined shard's ledger entry: the shard was
// excluded from the merged tables instead of failing the run.
type ManifestQuarantine struct {
	Index    int    `json:"index"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason"`
}

// fnvHex returns the FNV-64a hash of data as 16 hex digits.
func fnvHex(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fsyncDir opens and fsyncs a directory, making its entry mutations
// (creates, renames, removes) durable against power loss.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ensureDurableDir creates dir (and parents) and fsyncs both the directory
// and its parent, so the directory itself survives a power-loss-style kill.
// Without the parent fsync, a crash right after MkdirAll can lose the whole
// checkpoint directory even though every file write inside it was synced.
func ensureDurableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := fsyncDir(dir); err != nil {
		return err
	}
	parent := filepath.Dir(dir)
	if parent == dir {
		return nil
	}
	// Best-effort on the parent: it may be outside our control (e.g. "/tmp"
	// on a platform that refuses directory fsync); the dir's own sync above
	// already covers the common case where the parent pre-existed.
	if err := fsyncDir(parent); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// atomicWriteFile writes the concatenation of parts to dir/name so that a
// completed write survives power-loss-style kills (not just process
// SIGKILL). The recipe is: write tmp, fsync tmp, rename, fsync dir. The
// tmp fsync puts the bytes on disk before they get a name, and the
// directory fsync makes the rename durable; a crash at any instant leaves
// either the old file, the new file, or a stray *.tmp that validation
// ignores.
func atomicWriteFile(dir, name string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	final := filepath.Join(dir, name)
	if err := os.Rename(tmpName, final); err != nil {
		return err
	}
	return fsyncDir(dir)
}

// writeShardCheckpoint persists one shard's payload and returns its ledger
// entry. File format: one header line "sammy-ckpt/v1 <fnv64a> <len>\n"
// followed by the JSON payload the checksum and length describe.
func writeShardCheckpoint(dir string, p shardPayload) (ManifestShard, error) {
	p.Schema = checkpointSchema
	body, err := json.Marshal(p)
	if err != nil {
		return ManifestShard{}, err
	}
	sum := fnvHex(body)
	header := fmt.Appendf(nil, "%s %s %d\n", checkpointSchema, sum, len(body))
	name := shardFileName(p.Shard)
	if err := atomicWriteFile(dir, name, header, body); err != nil {
		return ManifestShard{}, fmt.Errorf("abtest: checkpoint shard %d: %w", p.Shard, err)
	}
	return ManifestShard{Index: p.Shard, Lo: p.Lo, Hi: p.Hi, Checksum: sum, File: name}, nil
}

// readShardCheckpoint loads and fully validates dir/file: header shape,
// schema, payload length, checksum, and payload schema. Any mismatch is an
// error — the caller treats it as "shard not done" and re-runs the range.
// The verified payload checksum is returned for comparison against the
// manifest's ledger entry.
func readShardCheckpoint(dir, file string) (*shardPayload, string, error) {
	f, err := os.Open(filepath.Join(dir, file))
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, "", fmt.Errorf("%s: reading header: %w", file, err)
	}
	var schema, sum string
	var n int
	if _, err := fmt.Sscanf(header, "%s %s %d\n", &schema, &sum, &n); err != nil {
		return nil, "", fmt.Errorf("%s: malformed header %q", file, header)
	}
	if schema != checkpointSchema {
		return nil, "", fmt.Errorf("%s: schema %q, want %q", file, schema, checkpointSchema)
	}
	if n < 0 || n > 1<<30 {
		return nil, "", fmt.Errorf("%s: implausible payload length %d", file, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, "", fmt.Errorf("%s: truncated payload: %w", file, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, "", fmt.Errorf("%s: trailing bytes after payload", file)
	}
	if got := fnvHex(body); got != sum {
		return nil, "", fmt.Errorf("%s: checksum %s, header says %s", file, got, sum)
	}
	var p shardPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, "", fmt.Errorf("%s: %w", file, err)
	}
	if p.Schema != checkpointSchema {
		return nil, "", fmt.Errorf("%s: payload schema %q, want %q", file, p.Schema, checkpointSchema)
	}
	return &p, sum, nil
}

// writeManifest atomically rewrites the manifest with its entries sorted by
// shard index, so the on-disk bytes are a pure function of run progress.
func writeManifest(dir string, m Manifest) error {
	m.Schema = manifestSchema
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].Index < m.Shards[j].Index })
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(dir, manifestName, append(data, '\n'))
}

// readManifest loads dir's manifest; a missing file returns (nil, nil).
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestName, err)
	}
	if m.Schema != manifestSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", manifestName, m.Schema, manifestSchema)
	}
	return &m, nil
}

// loadCompletedShards validates a checkpoint directory against the planned
// run and returns the shards that can be trusted, keyed by shard index.
// Everything else — corrupt files, stale config hashes, ranges that do not
// match the plan, duplicate manifest entries — is reported in skipped (by
// reason) and will be re-run. A manifest from a different config discards
// the whole directory's contents.
func loadCompletedShards(dir, configHash string, plan []shardRange) (loaded map[int]*shardPayload, skipped []string, err error) {
	m, err := readManifest(dir)
	if err != nil {
		// An unreadable or torn manifest means no shard can be trusted
		// (entries may be missing); start clean rather than guess.
		return nil, []string{fmt.Sprintf("manifest unreadable (%v): re-running all shards", err)}, nil
	}
	if m == nil {
		return nil, nil, nil
	}
	if m.ConfigHash != configHash {
		return nil, []string{fmt.Sprintf("manifest config hash %s does not match run %s: re-running all shards", m.ConfigHash, configHash)}, nil
	}

	// Duplicate manifest entries for one shard index are a corruption
	// signal: drop every copy so the shard is re-run, never double-merged.
	count := make(map[int]int, len(m.Shards))
	for _, s := range m.Shards {
		count[s.Index]++
	}

	loaded = make(map[int]*shardPayload)
	for _, s := range m.Shards {
		if count[s.Index] > 1 {
			if loaded[s.Index] == nil { // report once
				skipped = append(skipped, fmt.Sprintf("shard %d: duplicate manifest entries", s.Index))
			}
			delete(loaded, s.Index)
			count[s.Index] = -1 // poison so later copies skip silently
			continue
		}
		if count[s.Index] < 0 {
			continue
		}
		if s.Index < 0 || s.Index >= len(plan) {
			skipped = append(skipped, fmt.Sprintf("shard %d: outside the planned %d shards", s.Index, len(plan)))
			continue
		}
		p, sum, rerr := readShardCheckpoint(dir, s.File)
		if rerr != nil {
			skipped = append(skipped, fmt.Sprintf("shard %d: %v", s.Index, rerr))
			continue
		}
		if p.ConfigHash != configHash {
			skipped = append(skipped, fmt.Sprintf("shard %d: config hash %s, want %s", s.Index, p.ConfigHash, configHash))
			continue
		}
		want := plan[s.Index]
		if p.Shard != s.Index || p.Lo != want.lo || p.Hi != want.hi {
			skipped = append(skipped, fmt.Sprintf("shard %d: covers users [%d,%d), plan says [%d,%d)", s.Index, p.Lo, p.Hi, want.lo, want.hi))
			continue
		}
		if sum != s.Checksum {
			// The file is internally consistent but is not the file the
			// manifest recorded (e.g. a stale shard from an older attempt
			// that the manifest rewrite raced with).
			skipped = append(skipped, fmt.Sprintf("shard %d: checksum does not match manifest", s.Index))
			continue
		}
		loaded[s.Index] = p
	}
	return loaded, skipped, nil
}
