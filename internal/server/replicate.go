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
// committed journal record is handed to Committed under the shard lock
// (so it must be cheap and non-blocking — replicate.Sender queues and
// returns), and WriteAllowed gates admissions behind epoch fencing and
// the follower liveness lease. In practice this is a *replicate.Sender.
type Replicator interface {
	// Committed reports that rec was journaled as shard's seq-th mutation.
	Committed(shard int, seq int64, rec journal.Record)
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

// SetReplicator attaches the primary-side replication hook to every
// shard. Call before Start and before serving traffic (cmd/kradd wires
// it right after New), so no committed record can slip past the hook —
// records committed earlier are covered by seeding the sender from
// ReplicationSeqs.
func (s *Service) SetReplicator(r Replicator) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.rep = r
		sh.mu.Unlock()
	}
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

// ReplicationSeqs reports, per shard, the sequence number of the last
// committed mutation record (what the journal covers right now). A
// primary seeds its replicate.Sender with this so the sender knows those
// records are servable from disk without having seen them via Committed.
func (s *Service) ReplicationSeqs() []int64 {
	out := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.repSeq
		sh.mu.Unlock()
	}
	return out
}

// NextSeqs implements replicate.Applier: per shard, the next sequence
// number this follower needs.
func (s *Service) NextSeqs() []int64 {
	out := s.ReplicationSeqs()
	for i := range out {
		out[i]++
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

// JournalCatchUp builds the replication catch-up source over a service's
// journal directory: when a follower's cursor has aged out of the
// sender's in-memory queue, the sender reads the shard's WAL file
// (torn-tail tolerant, safe on the live file — appends hit the page
// cache before any fsync) and reconstructs sequence numbers from the
// head snapshot's stamped cursor.
func JournalCatchUp(dir string) replicate.CatchUpFunc {
	return func(shard int, from int64) (*replicate.SeqRecord, []replicate.SeqRecord, error) {
		path := shardJournalPath(dir, shard)
		recs, err := journal.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		// A snapshot head resumes the cursor it was stamped with and takes no
		// number of its own; every later record counts one.
		var snap *replicate.SeqRecord
		var seq int64
		i := 0
		if len(recs) > 0 && recs[0].Type == journal.TypeSnap {
			if recs[0].Seq == 0 {
				// A snapshot compacted before replication existed carries no
				// cursor, so the records it subsumed cannot be numbered and
				// no follower can be seeded from it.
				return nil, nil, fmt.Errorf("server: %s is headed by a snapshot without a replication cursor (compacted by a pre-replication build); the next compaction re-stamps it, or move the journal away to start fresh", path)
			}
			seq = recs[0].Seq
			snap = &replicate.SeqRecord{Seq: seq, Rec: recs[0]}
			i = 1
		}
		var tail []replicate.SeqRecord
		for ; i < len(recs); i++ {
			seq++
			if seq >= from {
				tail = append(tail, replicate.SeqRecord{Seq: seq, Rec: recs[i]})
			}
		}
		return snap, tail, nil
	}
}
