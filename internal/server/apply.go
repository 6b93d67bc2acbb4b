package server

import (
	"errors"
	"fmt"

	"krad/internal/journal"
	"krad/internal/metrics"
	"krad/internal/sim"
)

// The one mutation pipeline. A shard is a pure function of its committed
// record sequence, so every mutation — a client's admit or cancel, either
// half of a steal, a steal repair, the fair head record — takes a
// replication follower's order:
//
//	validate without mutating → build the journal.Record →
//	append + replicate (journalLocked) → apply (applyLocked)
//
// and startup replay and the follower enter the same pipeline at "append"
// with records somebody else built (replayLocked). Apply is journal.Apply
// over this shard as its Observer: the engine call lives there, everything
// a record does beyond the engine lives in the hooks below, each written
// once. Steps alone run engine-first — what a step does is only known by
// executing it — and share the Stepped hook. Nothing here unwinds: a record
// that is durable but fails to apply latches stepErr.

// applyOut is what the last apply handed back to the live path that
// committed the record, read under the same lock acquisition.
type applyOut struct {
	ids       []int         // Admitted: the engine-assigned IDs
	withdrawn []sim.JobSpec // Stolen: the specs the thief re-admits
	step      sim.StepInfo  // Stepped: engine-owned, valid until the next step
}

// journalLocked makes rec durable, advances the replication cursor past it
// and hands it to replication: the single append site. Without a journal
// (a journal-free service, or startup replay before the journal is armed)
// there is nothing to land and the cursor just counts. The first failure
// latches the journal (ErrDegraded from here on); the cursor only advances
// past records that landed, so a follower never holds a record a restarted
// primary would not re-derive. Both halves of a steal are forced to disk —
// a completed steal implies both are durable, which is what makes later
// victim-side compaction safe (best-effort under journal.SyncNever, like
// every other append).
func (sh *shard) journalLocked(rec *journal.Record) error {
	if sh.jn == nil {
		sh.repSeq++
		return nil
	}
	if err := sh.jn.Append(*rec); err != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	sh.repSeq++
	if sh.rep != nil {
		sh.rep.Committed(sh.idx, sh.repSeq, *rec)
	}
	if rec.Type == journal.TypeSteal || len(rec.From) != 0 {
		_ = sh.jn.Sync()
	}
	return nil
}

// applyLocked runs rec's transition: journal.Apply drives the engine and
// calls back into the hooks below. specs are an admission's decoded jobs
// when the caller has them (nil decodes from the record). Failure here
// means memory and the record sequence disagree, so the shard stops
// stepping.
func (sh *shard) applyLocked(rec *journal.Record, specs []sim.JobSpec) error {
	if err := journal.Apply(sh.eng, int(sh.applied), *rec, specs, sh); err != nil {
		if sh.stepErr == nil {
			sh.stepErr = fmt.Errorf("server: shard %d: %w", sh.idx, err)
		}
		return err
	}
	sh.applied++
	sh.syncGaugesLocked()
	return nil
}

// commitLocked is append-then-apply for a record the caller validated and
// built under this same lock acquisition.
func (sh *shard) commitLocked(rec *journal.Record, specs []sim.JobSpec) error {
	if err := sh.journalLocked(rec); err != nil {
		return err
	}
	return sh.applyLocked(rec, specs)
}

// replayLocked commits a record this shard did not build: its own journal
// at startup (no journal is attached yet, so nothing is re-appended) or the
// primary's stream on a follower (appended first, so the follower's WAL is
// a byte prefix of the primary's).
func (sh *shard) replayLocked(rec *journal.Record) error {
	if err := sh.refuseTags(rec); err != nil {
		return fmt.Errorf("record %d %w", sh.applied, err)
	}
	return sh.commitLocked(rec, nil)
}

// refuseTags rejects records this shard's configuration cannot account
// for: applying a steal-tagged record with stealing off would drop the
// redirects that keep stolen jobs' original IDs resolvable, and a
// fairness-tagged one with fairness off would drop the tenant ledger.
func (sh *shard) refuseTags(rec *journal.Record) error {
	if sh.ledger == nil && (rec.Type == journal.TypeSteal || len(rec.From) != 0 || rec.Steal != nil) {
		return errors.New("is steal-tagged but stealing is disabled; refusing to drop redirect state (restart with -steal, or move the journal away)")
	}
	if sh.fair == nil && (rec.Type == journal.TypeFair || rec.Fair != nil || rec.Tenant != "") {
		return errors.New("is fairness-tagged but fairness is disabled; refusing to drop tenant state (restart with -fairness, or move the journal away)")
	}
	return nil
}

// admitRecordLocked builds the record that admits specs at the engine's
// next ID. tenant is the fair-share leaf ("" outside the fair gate); from,
// when set, tags the thief half of a steal with the jobs' original
// namespaced IDs. A client admission on a shard no replication sender
// watches refills the per-shard scratch record — it only lives until
// Append encodes it, which keeps the steady-state submit path
// allocation-free; a sender retains committed records in its queue, so
// with rep attached each admission builds a fresh one. Without a journal
// nothing will ever encode the record, so it carries only what apply
// reads: jobs of any shape stay admissible on a journal-free service.
func (sh *shard) admitRecordLocked(specs []sim.JobSpec, tenant string, from []int) (*journal.Record, error) {
	base := sh.eng.NextID()
	rec := &sh.admitRec
	var err error
	switch {
	case sh.jn == nil:
		*rec = journal.Record{Type: journal.TypeBatch, Base: base, From: from}
	case from != nil:
		var fresh journal.Record
		fresh, err = journal.StealAdmitRecord(base, specs, from)
		rec = &fresh
	case sh.rep != nil:
		var fresh journal.Record
		fresh, err = journal.AdmitRecord(base, specs)
		rec = &fresh
	default:
		err = journal.AdmitRecordInto(rec, base, specs)
	}
	if err != nil {
		return nil, err
	}
	rec.Tenant = tenant
	return rec, nil
}

// Fair implements journal.Observer: the head fair record restores the
// ledger it declares.
func (sh *shard) Fair(st journal.FairState) error {
	if err := sh.checkFair(st); err != nil {
		return err
	}
	sh.setFairLocked(st)
	return nil
}

// checkFair refuses a ledger accumulated under another half-life.
func (sh *shard) checkFair(st journal.FairState) error {
	if st.HalfLife != sh.fair.halfLife {
		return fmt.Errorf("server: journal fair half-life %d does not match the configured %d — decayed usage would diverge (restart with the original half-life, or remove the journal)", st.HalfLife, sh.fair.halfLife)
	}
	return nil
}

// Admitted implements journal.Observer. The jobs are indexed before the
// lock drops, so a status query racing the submit response finds them
// (JobRef's Work aliases engine memory; put copies it into the stripe
// arena). The thief half of a steal counts as stolen-in, not submitted —
// external admission counters must survive replay — and an orphan repair,
// which re-admits on the victim itself, points the original ID back into
// this shard. A client admission is charged to its tenant strictly after
// it is durable, so the record sequence replays to the identical ledger;
// records from before fairness existed (and callers that bypass the fair
// gate) accrue to the default leaf.
func (sh *shard) Admitted(rec journal.Record, specs []sim.JobSpec, ids []int) {
	sh.out.ids = ids
	for _, id := range ids {
		st, _ := sh.eng.JobRef(id)
		sh.tab.put(id, st)
	}
	if len(rec.From) != 0 {
		sh.stolenIn += int64(len(ids))
		for k, src := range rec.From {
			if ShardOf(src) == sh.idx {
				sh.tab.setRedirect(LocalID(src), composeID(sh.idx, ids[k]))
			}
		}
		sh.ledger.admitted(sh.idx, rec.From, ids)
		return
	}
	sh.submitted += int64(len(ids))
	if sh.fair != nil {
		tenant := rec.Tenant
		if tenant == "" {
			tenant = sh.fair.defaultPath
		}
		sh.fairAccrueLocked(tenant, ids, specsCost(specs))
	}
}

// Cancelled implements journal.Observer.
func (sh *shard) Cancelled(id int) {
	sh.cancelled++
	sh.fairForgetLocked(id)
	sh.tab.setCancelled(id, sh.eng.Now())
	sh.retireLocked(id)
}

// Stolen implements journal.Observer: the victim half of a steal. Each
// withdrawn job's original ID redirects to its new home, so status and
// cancel keep resolving (Service.resolve follows the chain).
func (sh *shard) Stolen(rec journal.Record, specs []sim.JobSpec) {
	sh.out.withdrawn = specs
	for k, id := range rec.IDs {
		sh.tab.setRedirect(id, composeID(rec.To, rec.NBase+k))
		sh.retireLocked(id)
	}
	sh.ledger.stolen(sh.idx, rec, specs)
}

// Stepped implements journal.Observer, and is what the live step loop
// calls after its engine-first StepN: release and completion bookkeeping
// off the index and the engine's no-copy completion lookup, so the
// steady-state step path allocates nothing per completion.
func (sh *shard) Stepped(info sim.StepInfo) {
	sh.out.step = info
	sh.steps += info.Steps
	for _, id := range info.Released {
		sh.tab.setActive(id)
	}
	for _, id := range info.Completed {
		done, _ := sh.eng.Completion(id)
		rel, _ := sh.tab.release(id)
		sh.tab.setDone(id, done)
		sh.observeResponseLocked(done - rel)
		sh.completed++
		sh.fairForgetLocked(id)
		sh.retireLocked(id)
	}
}

// observeResponseLocked accounts one completed job's response time, for
// the Stats summary and the /metrics histogram alike.
func (sh *shard) observeResponseLocked(steps int64) {
	sh.resp.Observe(float64(steps))
}

// retireLocked releases a terminal job's engine state once the index holds
// its status (Config.RetireDone).
func (sh *shard) retireLocked(id int) {
	if sh.retireDone {
		_ = sh.eng.Retire(id)
	}
}

// stepEventLocked builds the subscriber event for the step the last apply
// executed. The engine owns info's slices and reuses them on its next step,
// while the event outlives the lock (async subscribers): copy here. Startup
// replay never calls this — nothing can be subscribed before New returns.
func (sh *shard) stepEventLocked() Event {
	info := sh.out.step
	ev := Event{
		Shard:     sh.idx,
		Step:      info.Step,
		Executed:  append([]int(nil), info.Executed...),
		Released:  sh.namespace(info.Released),
		Completed: sh.namespace(info.Completed),
		Active:    info.Active,
		Pending:   sh.eng.Snapshot().Pending,
	}
	if info.Steps > 1 {
		ev.Steps = info.Steps
	}
	return ev
}

// restoreLocked resets the shard wholesale to a snap record — the head of
// its own journal at startup, or the frame a primary sends a follower its
// compaction overtook; either way the state a restart against that
// snapshot produces. Everything that can refuse runs before anything
// changes: a refused snapshot leaves the ledger, the journal file and the
// engine exactly as they were, and later sequenced records still apply.
func (sh *shard) restoreLocked(rec *journal.Record) error {
	if rec.Type != journal.TypeSnap || rec.Snap == nil {
		return errors.New("malformed snapshot record")
	}
	if sh.applied > 0 && rec.Seq <= sh.repSeq {
		return fmt.Errorf("snapshot covers through seq %d but %d is already applied — refusing to rewind", rec.Seq, sh.repSeq)
	}
	if err := sh.refuseTags(rec); err != nil {
		return fmt.Errorf("snapshot %w", err)
	}
	if rec.Fair != nil {
		if err := sh.checkFair(*rec.Fair); err != nil {
			return err
		}
	}
	eng, err := sh.newEngine()
	if err != nil {
		return fmt.Errorf("rebuild engine for snapshot: %w", err)
	}
	if err := eng.Restore(*rec.Snap); err != nil {
		return fmt.Errorf("restore snapshot through seq %d: %w", rec.Seq, err)
	}
	if sh.jn != nil {
		if err := sh.jn.Compact(*rec); err != nil {
			return fmt.Errorf("%w: %v", ErrDegraded, err)
		}
	}

	sh.eng = eng
	sh.repSeq = rec.Seq
	sh.applied = 1
	if rec.Fair != nil {
		sh.setFairLocked(*rec.Fair)
	}
	sh.tab.reset()
	sh.stolenIn = 0
	if rec.Steal != nil {
		sh.stolenIn = rec.Steal.In
		for id, target := range rec.Steal.Redirects {
			sh.tab.setRedirect(id, target)
		}
	}
	// Lifecycle counters and the response histogram are durable state and
	// come back from the engine; stolen-in admissions were journaled by
	// steals, not clients. The index rebuilds from the same pass, and
	// RetireDone then releases each terminal job's engine state.
	snap := eng.Snapshot()
	sh.submitted = int64(snap.Admitted) - sh.stolenIn
	sh.completed = int64(snap.Completed)
	sh.cancelled = int64(snap.Cancelled)
	sh.resp = metrics.Hist{}
	for id := 0; id < snap.Admitted; id++ {
		st, ok := eng.JobRef(id)
		if !ok {
			continue // retired before the checkpoint: status is gone for good
		}
		if st.Phase != sim.JobStolen {
			// A stolen job's redirect is its status truth; the stale local
			// entry stays out of the index so lookups follow it.
			sh.tab.put(id, st)
		}
		if st.Phase == sim.JobDone {
			sh.observeResponseLocked(st.Completion - st.Release)
		}
		if st.Phase != sim.JobPending && st.Phase != sim.JobActive {
			sh.retireLocked(id)
		}
	}
	sh.syncGaugesLocked()
	return nil
}
