package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"krad/internal/journal"
)

// ErrDegraded means the shard's journal hit a write failure (full or
// failing disk): nothing new can be made durable, so admissions and
// cancellations are refused while jobs already in flight keep scheduling
// from memory. The condition is sticky — it clears only by restarting the
// process against a healthy disk, which replays the journal's intact
// prefix.
var ErrDegraded = errors.New("server: journal degraded, admission suspended")

// JournalConfig enables write-ahead journaling of every committed engine
// mutation, one journal file per shard, making the service crash-safe:
// on startup each shard's journal is replayed through a fresh engine,
// reconstructing job IDs, virtual time and scheduler state exactly.
type JournalConfig struct {
	// Dir holds the per-shard journal files (shard-000.wal, ...). Created
	// if missing.
	Dir string
	// Sync is the fsync policy (the zero value, journal.SyncAlways, makes
	// every acknowledged admission durable).
	Sync journal.SyncPolicy
	// SyncInterval spaces fsyncs under journal.SyncInterval; 0 means 100ms.
	SyncInterval time.Duration
	// SnapshotEvery compacts a shard's journal to one snapshot record when
	// it exceeds this many records and the engine reaches an idle point.
	// 0 disables compaction (the journal grows until restart). Compaction
	// silently stays off for schedulers that cannot snapshot their state
	// (sim.ErrCheckpointUnsupported) — replay then runs the full log,
	// which is exact, just longer.
	SnapshotEvery int64
	// OpenAppend overrides how journal files are opened for writing. Tests
	// inject fault injectors (journal.FaultFile) here; nil means real files.
	OpenAppend func(path string) (journal.File, error)
}

// JournalStats aggregates per-shard journal state into Stats.
type JournalStats struct {
	// Dir is the journal directory.
	Dir string `json:"dir"`
	// Sync is the fsync policy's flag spelling.
	Sync string `json:"sync"`
	// Records, Appended, Compactions, SizeBytes, Syncs and SyncSeconds sum
	// the per-shard journal counters (see journal.Stats); SyncSeconds is
	// the durability overhead — wall time inside fsync — a load generator
	// subtracts to separate disk cost from scheduling cost.
	Records     int64   `json:"records"`
	Appended    int64   `json:"appended"`
	Compactions int64   `json:"compactions"`
	SizeBytes   int64   `json:"size_bytes"`
	Syncs       int64   `json:"syncs"`
	SyncSeconds float64 `json:"sync_seconds"`
	// Degraded counts shards whose journal latched a write failure.
	Degraded int `json:"degraded"`
	// Errors carries each degraded shard's sticky failure, in shard order.
	Errors []string `json:"errors,omitempty"`
}

// shardJournalPath names shard i's journal file inside dir.
func shardJournalPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", i))
}

// openJournals opens (and replays) one journal per shard, attaching each
// to its shard, and reports whether the directory's shape file is to be
// (re)written once the start succeeds. A directory replays only on the
// shape it recorded (a restart may turn fairness on), checked before any
// file changes; one without a shape file keeps the stray-journal scan.
// Any failure — unreadable file, corrupt non-tail record, replay
// divergence, another shape — is returned as a located error so the
// caller (cmd/kradd) can exit non-zero instead of serving silently
// forgotten state.
func (s *Service) openJournals(jc *JournalConfig) (record bool, err error) {
	recorded, err := journal.ReadShape(jc.Dir)
	if err != nil {
		return false, fmt.Errorf("server: %w", err)
	}
	if recorded != nil {
		given := s.shape
		if recorded.HalfLife == 0 {
			given.HalfLife = 0
		}
		if err := recorded.Compare(given, "recorded", "given"); err != nil {
			return false, fmt.Errorf("server: %s: %v; refusing to replay its journals on another shape (start with the recorded shape, or move the directory's files away to reshape it)", journal.ShapePath(jc.Dir), err)
		}
	}
	if err := os.MkdirAll(jc.Dir, 0o755); err != nil {
		return false, fmt.Errorf("server: journal dir %s: %w", jc.Dir, err)
	}
	if recorded == nil {
		// A journal dir written by a larger fleet means the missing shards'
		// acknowledged jobs would silently vanish: refuse to start.
		strays, err := filepath.Glob(filepath.Join(jc.Dir, "shard-*.wal"))
		if err != nil {
			return false, fmt.Errorf("server: scan journal dir %s: %w", jc.Dir, err)
		}
		for _, p := range strays {
			var idx int
			if _, err := fmt.Sscanf(filepath.Base(p), "shard-%d.wal", &idx); err == nil && idx >= len(s.shards) {
				return false, fmt.Errorf("server: journal %s belongs to shard %d but the service runs %d shard(s); refusing to drop its jobs (restart with the original -shards, or move the file away)", p, idx, len(s.shards))
			}
		}
	}
	// The shards replay in order on the caller's goroutine, the only one
	// that drives NewScheduler's schedulers and OpenAppend's files during
	// New (DESIGN §5.4).
	opts := journal.Options{Sync: jc.Sync, Interval: jc.SyncInterval, OpenAppend: jc.OpenAppend}
	for _, sh := range s.shards {
		if err := sh.attachJournal(jc, opts); err != nil {
			return false, err
		}
	}
	return recorded == nil || recorded.HalfLife != s.shape.HalfLife, nil
}

// attachJournal opens the shard's journal and replays each record through
// the shard's fresh engine as it decodes (journal.OpenStream) — down the
// same apply path a live mutation or a replicated record takes, a head
// snapshot through the same restore a follower's snapshot frame takes —
// then arms journaling for all future mutations. New runs it before any
// step loop exists, under the shard's lock.
func (sh *shard) attachJournal(jc *JournalConfig, opts journal.Options) error {
	path := shardJournalPath(jc.Dir, sh.idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	jn, err := journal.OpenStream(path, opts, func(rec *journal.Record) error {
		apply := sh.replayLocked
		if rec.Type == journal.TypeSnap {
			apply = sh.restoreLocked // a snapshot is only ever the head
		}
		if err := apply(rec); err != nil {
			return fmt.Errorf("replay %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: shard %d: %w", sh.idx, err)
	}
	// Steps are process-local (the replayed ones were another process's);
	// the job lifecycle counters, the response histogram and the replication
	// cursor are durable state and were rebuilt record by record — a snapshot
	// head resumes the cursor at its stamp (0 on journals written before
	// replication existed), every later record counts one.
	sh.steps = 0
	sh.jn = jn
	sh.compactEvery = jc.SnapshotEvery
	return nil
}

// journalHealthyLocked reports whether mutations may be acknowledged.
func (sh *shard) journalHealthyLocked() bool {
	return sh.jn == nil || sh.jn.Err() == nil
}

// maybeCompact rewrites the journal as one snapshot record when the
// engine is idle and the journal has grown past compactEvery records.
// Schedulers that cannot snapshot their cross-step state disable
// compaction on first refusal; anything else that fails latches the
// journal (a half-compacted log must stop acknowledging).
func (sh *shard) maybeCompact() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.jn == nil || sh.compactEvery <= 0 || sh.compactOff {
		return
	}
	if !sh.eng.Idle() || sh.jn.Err() != nil || sh.jn.RecordsSinceCompact() <= sh.compactEvery {
		return
	}
	cp, err := sh.eng.Checkpoint()
	if err != nil {
		// ErrCheckpointUnsupported (or a trace-enabled engine): full replay
		// stays exact, so just stop trying.
		sh.compactOff = true
		return
	}
	// The snapshot is stamped with the replication cursor it covers
	// through, so a follower catching up from the compacted journal knows
	// exactly which sequence numbers the snapshot subsumes.
	rec := journal.Record{Type: journal.TypeSnap, Snap: &cp, Seq: sh.repSeq}
	if sh.fair != nil {
		// The fair ledger rides the snapshot: compaction must not forget
		// decayed usage the dropped records accrued.
		st := sh.fairStateLocked()
		rec.Fair = &st
	}
	// Steal state rides the snapshot the same way: the dropped records held
	// the stolen-in count, the redirects that keep original IDs resolvable
	// and the origins that tell a peer's lone half of a pair this snapshot
	// settled from an orphan. Omitted while empty so a shard that never
	// took part in a steal keeps byte-identical snapshots.
	if redirs := sh.redirects(); sh.stolenIn > 0 || len(redirs) > 0 {
		rec.Steal = &journal.StealState{V: 1, In: sh.stolenIn, Redirects: redirs, Origins: sh.origins}
	}
	if err := sh.jn.Compact(rec); err == nil {
		sh.applied = 1 // the snapshot is now the whole logical sequence
	}
}

// Ready reports whether the service should receive traffic: not draining,
// every journal healthy. The bool is false with a reason otherwise. This
// backs GET /readyz; liveness (GET /healthz) stays unconditionally 200 —
// a degraded or draining service is still alive and still finishing
// in-flight work.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	closed, follower := s.closed, s.follower
	s.mu.Unlock()
	if closed {
		return false, "draining"
	}
	if follower {
		return false, "following (standby) — replicating from the primary; POST /v1/promote to take over"
	}
	for _, sh := range s.shards {
		if sh.jn != nil {
			if err := sh.jn.Err(); err != nil {
				return false, fmt.Sprintf("shard %d journal degraded: %v", sh.idx, err)
			}
		}
	}
	return true, ""
}

// journalStats aggregates journal state across shards, or nil when
// journaling is disabled (keeping Stats bit-identical to a journal-free
// build).
func (s *Service) journalStats() *JournalStats {
	if s.cfg.Journal == nil {
		return nil
	}
	js := &JournalStats{Dir: s.cfg.Journal.Dir, Sync: s.cfg.Journal.Sync.String()}
	for _, sh := range s.shards {
		if sh.jn == nil {
			continue
		}
		st := sh.jn.Stats()
		js.Records += st.Records
		js.Appended += st.Appended
		js.Compactions += st.Compactions
		js.SizeBytes += st.SizeBytes
		js.Syncs += st.Syncs
		js.SyncSeconds += st.SyncSeconds
		if st.Failed != "" {
			js.Degraded++
			js.Errors = append(js.Errors, fmt.Sprintf("shard %d: %s", sh.idx, st.Failed))
		}
	}
	return js
}
