package server

import (
	"errors"
	"fmt"

	"krad/internal/journal"
	"krad/internal/replicate"
)

// ErrFollower means this daemon is a warm standby: it tracks a primary's
// replication stream and refuses writes of its own until promoted (POST
// /v1/promote, or the -promote-after timeout).
var ErrFollower = errors.New("server: standby follower — replicating from the primary, not accepting writes")

// Replicator is the primary-side replication hook a Service drives: every
// record a shard journals wakes Committed under the shard lock (so it
// must be cheap and non-blocking — replicate.Sender notes the seq and
// reads the record from the WAL on its own goroutine), and WriteAllowed
// gates admissions behind epoch fencing and the follower liveness lease.
// In practice this is a *replicate.Sender.
type Replicator interface {
	// Committed reports that shard's journal now holds its seq-th mutation.
	Committed(shard int, seq int64)
	// WriteAllowed reports whether this daemon may still act as primary:
	// replicate.ErrFenced after a follower promoted past it,
	// replicate.ErrLeaseExpired while the follower lease is blown.
	WriteAllowed() error
}

// ReplicationStats is the replication slice of Stats: the daemon's role
// plus the sender-side or receiver-side summary, whichever applies.
type ReplicationStats struct {
	// Role is "primary" (streaming to a follower) or "follower" (tracking
	// a primary); a promoted follower reports "primary".
	Role     string                   `json:"role"`
	Primary  *replicate.SenderStats   `json:"primary,omitempty"`
	Follower *replicate.ReceiverStats `json:"follower,omitempty"`
}

// SetReplicator attaches the primary-side replication hook to every shard
// and reports how far each shard's journal already reaches (replayed
// history, the fairness head), so those records ship too. Call before
// Start and before serving traffic (cmd/kradd wires it right after New).
func (s *Service) SetReplicator(r Replicator) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.rep = r
		r.Committed(sh.idx, sh.repSeq)
		sh.mu.Unlock()
	}
}

// JournalPaths names each shard's journal file, in shard order: the WAL a
// replicate.Sender ships from. Nil without a journal.
func (s *Service) JournalPaths() []string {
	var paths []string
	for _, sh := range s.shards {
		if sh.jn != nil {
			paths = append(paths, sh.jn.Path())
		}
	}
	return paths
}

// SetReplicationStats registers the probe Stats and /metrics use to
// report replication state; nil keeps the replication-free encodings.
func (s *Service) SetReplicationStats(f func() *ReplicationStats) {
	s.mu.Lock()
	s.repStats = f
	s.mu.Unlock()
}

// SetPromote registers the callback POST /v1/promote triggers — the
// replication receiver's Promote, which bumps the epoch, fences the old
// primary and calls back into Service.Promote.
func (s *Service) SetPromote(f func() int64) {
	s.mu.Lock()
	s.promoteFn = f
	s.mu.Unlock()
}

// Promote flips a follower Service into a serving primary: the follower
// gate lifts and the shard step loops start (they were held down so the
// engines would mutate only through the replicated stream). Idempotent;
// a no-op on a Service that was never a follower. Callers normally reach
// it through replicate.Receiver's OnPromote, which owns the epoch bump
// and fencing.
func (s *Service) Promote() {
	s.mu.Lock()
	if !s.follower {
		s.mu.Unlock()
		return
	}
	s.follower = false
	started := s.started
	s.mu.Unlock()
	// Repair steals the primary's crash split mid-protocol (its victim
	// record streamed, its thief record did not, or vice versa) before any
	// step loop can race the fix. A repair failure means the replicated
	// journals diverged; latch it so the shards refuse to step.
	if err := s.reconcileSteals(); err != nil {
		for _, sh := range s.shards {
			sh.mu.Lock()
			if sh.stepErr == nil {
				sh.stepErr = err
			}
			sh.mu.Unlock()
		}
	}
	if started {
		for _, sh := range s.shards {
			sh.start()
		}
	}
}

// Following reports whether the Service is still a standby follower.
func (s *Service) Following() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.follower
}

// NextSeqs implements replicate.Applier: per shard, the next sequence
// number this follower needs — one past the last committed mutation record
// (what the journal covers right now).
func (s *Service) NextSeqs() []int64 {
	out := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.repSeq + 1
		sh.mu.Unlock()
	}
	return out
}

// ApplyReplicated implements replicate.Applier: journal the record, then
// apply it — the same record order, lock discipline and apply path a live
// mutation and a crash-restart use (apply.go), so the follower's engine
// tracks the primary bit-identically. The journal append comes first: a
// follower crash between append and apply replays the record on restart,
// while a crash before the append never acked it, so the primary re-sends.
// A record this follower cannot account for, or one that fails to apply,
// means it diverged (mismatched configuration or corrupt stream); that
// latches the shard so nothing further applies until an operator restarts
// against a clean journal.
func (s *Service) ApplyReplicated(shard int, seq int64, rec journal.Record) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("server: replicated record for shard %d but the service runs %d shard(s)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	err := sh.applyReplicatedLocked(seq, &rec)
	stepped := err == nil && (rec.Type == journal.TypeStep || rec.Type == journal.TypeSteps)
	var ev Event
	if stepped {
		ev = sh.stepEventLocked()
	}
	sh.mu.Unlock()
	if stepped {
		sh.fan.publish(ev)
	}
	return err
}

func (sh *shard) applyReplicatedLocked(seq int64, rec *journal.Record) error {
	switch {
	case sh.repErr != nil:
		return sh.repErr
	case sh.closed:
		return ErrClosed
	case seq != sh.repSeq+1:
		return fmt.Errorf("server: shard %d: replicated seq %d, want %d — stream out of order", sh.idx, seq, sh.repSeq+1)
	case rec.Type == journal.TypeSnap:
		return fmt.Errorf("server: shard %d: snapshot arrived as a sequenced record; snapshots reset via their own frame", sh.idx)
	}
	err := sh.replayLocked(rec)
	if err != nil && !errors.Is(err, ErrDegraded) {
		sh.repErr = fmt.Errorf("server: shard %d: replicated seq %d diverged from this follower: %w", sh.idx, seq, err)
		err = sh.repErr
	}
	return err
}

// ApplyReplicatedSnap implements replicate.Applier: primary compaction
// overtook this follower, so the shard resets wholesale to the snapshot —
// fresh engine restored from the checkpoint, journal compacted to the
// same record, counters and fair ledger rebuilt — exactly the state a
// restart against the primary's compacted journal would produce.
func (s *Service) ApplyReplicatedSnap(shard int, rec journal.Record) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("server: replicated snapshot for shard %d but the service runs %d shard(s)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.repErr != nil {
		return sh.repErr
	}
	if sh.closed {
		return ErrClosed
	}
	if rec.Seq < 1 {
		// A follower's frame must say which sequence numbers it subsumes;
		// only a journal's own pre-replication head may omit the cursor.
		return fmt.Errorf("server: shard %d: malformed replicated snapshot record", shard)
	}
	if err := sh.restoreLocked(&rec); err != nil {
		return fmt.Errorf("server: shard %d: replicated snapshot: %w", shard, err)
	}
	return nil
}
