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
// half of a steal, a steal repair — takes a replication follower's order:
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
	tenants   []string      // Stolen: their fair-share leaves, nil if none
	step      sim.StepInfo  // Stepped: engine-owned, valid until the next step
}

// journalLocked makes rec durable, advances the replication cursor past it
// and wakes replication, which reads it back from the WAL: the single
// append site. Without a journal (a journal-free service, or startup
// replay before the journal is armed) there is nothing to land and the
// cursor just counts. The first failure
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
		sh.rep.Committed(sh.idx, sh.repSeq)
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
// for: a fairness-tagged one with fairness off would drop the tenant
// ledger. Only a directory without a shape file can get here with one —
// New refuses a fairness-off start on a directory recorded with fairness,
// and the hello a follower whose shape is not its primary's. Steal tags
// need no configuration — every shard keeps redirects and feeds the steal
// ledger, stealing or not.
func (sh *shard) refuseTags(rec *journal.Record) error {
	if sh.fair == nil && (rec.Type == journal.TypeFair || rec.Fair != nil || rec.Tenant != "") {
		return errors.New("is fairness-tagged but fairness is disabled; refusing to drop tenant state (restart with -fairness, or move the journal away)")
	}
	return nil
}

// admitRecordLocked builds the record that admits specs at the engine's
// next ID. tenant is the fair-share leaf ("" outside the fair gate); from
// and tenants, when set, tag the thief half of a steal with the jobs'
// original namespaced IDs and their leaves. The record is the per-shard
// scratch record — it only lives until Append encodes it (replication
// reads the record back from the WAL), which keeps the steady-state submit
// path allocation-free. Without a journal nothing will ever encode the
// record, so it carries only what apply reads: jobs of any shape stay
// admissible on a journal-free service.
func (sh *shard) admitRecordLocked(specs []sim.JobSpec, tenant string, from []int, tenants []string) (*journal.Record, error) {
	base := sh.eng.NextID()
	rec := &sh.admitRec
	if sh.jn == nil {
		*rec = journal.Record{Type: journal.TypeBatch, Base: base, From: from, Tenants: tenants}
	} else if err := journal.AdmitRecordInto(rec, base, specs, from, tenants); err != nil {
		return nil, err
	}
	rec.Tenant = tenant
	return rec, nil
}

// Fair implements journal.Observer: it restores the ledger a fair record
// declares, the head record earlier builds wrote on every fresh
// fairness-enabled journal.
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

// Admitted implements journal.Observer. The engine has written the jobs'
// statuses, so a status query racing the submit response finds them. The
// thief half of a steal counts as stolen-in, not submitted, and remembers
// each job's origin; an orphan repair, which re-admits on the victim
// itself, points the original ID back into this shard. The fair ledger
// accounts the admission strictly after it is durable, so the record
// sequence replays to the identical ledger (fairAdmittedLocked).
func (sh *shard) Admitted(rec journal.Record, specs []sim.JobSpec, ids []int) {
	sh.out.ids = ids
	if len(rec.From) != 0 {
		sh.stolenIn += int64(len(ids))
		if sh.origins == nil {
			sh.origins = make(map[int]int)
		}
		for k, src := range rec.From {
			sh.origins[ids[k]] = src
			if ShardOf(src) == sh.idx {
				sh.redir.Store(LocalID(src), composeID(sh.idx, ids[k]))
			}
		}
		sh.ledger.admitted(sh.idx, rec.From, ids)
	}
	if sh.fair != nil {
		sh.fairAdmittedLocked(rec, specs, ids)
	}
}

// Cancelled implements journal.Observer.
func (sh *shard) Cancelled(id int) {
	sh.fairForgetLocked(id)
}

// Stolen implements journal.Observer: the victim half of a steal. Each
// withdrawn job's original ID redirects to its new home, so status and
// cancel keep resolving (Service.resolve follows the chain). The job
// leaves this shard's in-flight ledger, and the leaf it was in flight
// under goes to the thief with it (out.tenants); its usage stays here.
func (sh *shard) Stolen(rec journal.Record, specs []sim.JobSpec) {
	sh.out.withdrawn, sh.out.tenants = specs, nil
	for k, id := range rec.IDs {
		sh.redir.Store(id, composeID(rec.To, rec.NBase+k))
		if leaf := sh.fairForgetLocked(id); leaf != nil {
			if sh.out.tenants == nil {
				sh.out.tenants = make([]string, len(rec.IDs))
			}
			sh.out.tenants[k] = leaf.Path
		}
	}
	sh.ledger.stolen(sh.idx, rec, specs, sh.out.tenants)
}

// Stepped implements journal.Observer, and is what the live step loop
// calls after its engine-first StepN: completion bookkeeping off the
// engine's no-copy status lookup, so the steady-state step path allocates
// nothing per completion.
func (sh *shard) Stepped(info sim.StepInfo) {
	sh.out.step = info
	sh.steps += info.Steps
	for _, id := range info.Completed {
		st, _ := sh.eng.JobRef(id)
		sh.resp.Observe(float64(st.Completion - st.Release))
		sh.fairForgetLocked(id)
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
		Pending:   sh.eng.Remaining() - info.Active, // Remaining = pending + active
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
	sh.statuses.Store(eng)
	sh.repSeq = rec.Seq
	sh.applied = 1
	if rec.Fair != nil {
		sh.setFairLocked(*rec.Fair)
	}
	sh.redir.Range(func(id, _ any) bool {
		sh.redir.Delete(id)
		return true
	})
	sh.stolenIn, sh.origins = 0, nil
	if rec.Steal != nil {
		sh.stolenIn, sh.origins = rec.Steal.In, rec.Steal.Origins
		for id, target := range rec.Steal.Redirects {
			sh.redir.Store(id, target)
		}
	}
	// The response histogram is durable state and comes back from the
	// engine.
	sh.resp = metrics.Hist{}
	for id := 0; id < eng.NextID(); id++ {
		if st, ok := eng.JobRef(id); ok && st.Phase == sim.JobDone {
			sh.resp.Observe(float64(st.Completion - st.Release))
		}
	}
	sh.syncGaugesLocked()
	return nil
}
