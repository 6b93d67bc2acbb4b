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

// ReplicationStats is the replication slice of Stats: the daemon's role
// plus the sender-side or receiver-side summary, whichever applies.
type ReplicationStats struct {
	// Role is "primary" (streaming to a follower) or "follower" (tracking
	// a primary); a promoted follower reports "primary".
	Role     string                   `json:"role"`
	Primary  *replicate.SenderStats   `json:"primary,omitempty"`
	Follower *replicate.ReceiverStats `json:"follower,omitempty"`
}

// ReplicateTo makes the Service a primary that ships each shard's WAL to
// the follower at cfg.Addr, and starts the sender. The service fills in
// its shape, its WAL paths and the epoch file in its journal directory,
// over whatever cfg holds for them. Attaching reports how far each
// journal already reaches, so the records committed before it (replayed
// history included) ship too; attach before serving traffic, so every
// admission passes the sender's fence and lease gate. Close stops the
// sender after the shards drain.
func (s *Service) ReplicateTo(cfg replicate.SenderConfig) (*replicate.Sender, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch, err := s.attachLocked("ReplicateTo", false)
	if err != nil {
		return nil, err
	}
	cfg.Epoch, cfg.Shape, cfg.WAL = epoch, s.shape, make([]string, len(s.shards))
	for i, sh := range s.shards {
		cfg.WAL[i] = sh.jn.Path()
	}
	snd, err := replicate.NewSender(cfg)
	if err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.rep = snd
		snd.Committed(sh.idx, sh.repSeq)
		sh.mu.Unlock()
	}
	s.sender = snd
	snd.Start()
	return snd, nil
}

// Follow makes a Service built with Config.Follower a warm standby that
// applies the primary stream cfg.Listener accepts. The service fills in
// itself as the applier and the epoch file in its journal directory, over
// whatever cfg holds for them. A promotion, by POST /v1/promote or
// PromoteAfter, runs Service.Promote first and cfg.OnPromote second.
// Close closes the receiver without promoting. On an error the listener
// stays the caller's.
func (s *Service) Follow(cfg replicate.ReceiverConfig) (*replicate.Receiver, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch, err := s.attachLocked("Follow", true)
	if err != nil {
		return nil, err
	}
	onPromote := cfg.OnPromote
	cfg.Applier, cfg.Epoch = s, epoch
	cfg.OnPromote = func(epoch int64) {
		s.Promote()
		if onPromote != nil {
			onPromote(epoch)
		}
	}
	rcv, err := replicate.NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	s.receiver = rcv
	return rcv, nil
}

// attachLocked refuses an attach the Service cannot take and opens the
// epoch file the role records in: the replication epoch and fence are
// state in the journal directory.
func (s *Service) attachLocked(call string, follow bool) (*replicate.EpochFile, error) {
	switch {
	case s.closed:
		return nil, fmt.Errorf("server: %s: the service is closed", call)
	case s.cfg.Journal == nil:
		return nil, fmt.Errorf("server: %s: replication needs Config.Journal: the journal is both what the primary ships and the durable apply log (follower)", call)
	case s.sender != nil || s.receiver != nil:
		return nil, fmt.Errorf("server: %s: replication is already attached", call)
	case follow != s.cfg.Follower:
		return nil, fmt.Errorf("server: %s: the service has Config.Follower %v: a daemon is the primary or the standby, not both", call, s.cfg.Follower)
	}
	return replicate.OpenEpochFile(s.cfg.Journal.Dir)
}

// replicationStats reports the attached role, or nil when replication is
// not configured. A promoted follower reports "primary".
func (s *Service) replicationStats() *ReplicationStats {
	s.mu.Lock()
	snd, rcv := s.sender, s.receiver
	s.mu.Unlock()
	switch {
	case snd != nil:
		st := snd.Stats()
		return &ReplicationStats{Role: "primary", Primary: &st}
	case rcv != nil:
		st := rcv.Stats()
		role := "follower"
		if st.Promoted {
			role = "primary"
		}
		return &ReplicationStats{Role: role, Follower: &st}
	}
	return nil
}

// Promote flips a follower Service into a serving primary: the follower
// gate lifts and the shard step loops start (they were held down so the
// engines would mutate only through the replicated stream). Idempotent;
// a no-op on a Service that was never a follower. Callers normally reach
// it through the receiver Follow attached, which owns the epoch bump and
// fencing.
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
	stepped := err == nil && (rec.Type == journal.TypeStep || rec.Type == journal.TypeSteps) && sh.fan.subscribed()
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
