package journal

import (
	"fmt"

	"krad/internal/sim"
)

// Replay drives a freshly constructed engine through a journal's records,
// re-committing every mutation in its original order. Because the engine
// is deterministic — job runtime seeds derive from job IDs, scheduler
// state from the mutation sequence — the result is bit-identical to the
// engine that wrote the journal: same job IDs, same virtual clock, same
// per-job completions.
//
// Replay cross-checks what it can (assigned IDs against admit records,
// the clock against step records) and fails with a located error on the
// first divergence: a divergent replay means the journal belongs to a
// different configuration (scheduler, capacities, seed) and continuing
// would silently corrupt state.
func Replay(eng *sim.Engine, recs []Record) error {
	for i, rec := range recs {
		if err := Apply(eng, i, rec, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// Observer receives what a record did to the engine, so the owner of the
// engine can keep the state the engine does not model — job-status index,
// lifecycle counters, fair-share ledger, steal redirects — in step with
// it. internal/server's shard is the implementation: its live mutation
// paths, its startup replay and its replication follower all reach these
// hooks through Apply, which is what makes the three bit-identical. Every
// hook runs after the engine committed the corresponding mutation.
type Observer interface {
	// Fair restores a journaled fair-share ledger (the head fair record).
	// An error aborts the apply — e.g. the journal's half-life does not
	// match the server's configuration.
	Fair(st FairState) error
	// Admitted runs after an admit/batch record applied: specs are the
	// admitted jobs and ids the engine-assigned IDs (ids[0] cross-checked
	// against rec.Base). ids is the observer's to keep.
	Admitted(rec Record, specs []sim.JobSpec, ids []int)
	// Cancelled runs after a cancel record applied.
	Cancelled(id int)
	// Stolen runs after a steal record applied: the record's jobs were
	// withdrawn from this engine. specs are their original specs (specs[k]
	// belongs to rec.IDs[k]), exactly what the thief re-admits; the slice is
	// the observer's to keep.
	Stolen(rec Record, specs []sim.JobSpec)
	// Stepped runs after a step/steps record applied; info's slices are
	// engine-owned and valid until the engine's next step.
	Stepped(info sim.StepInfo)
}

// Apply commits a single record to the engine and reports it to obs (nil
// for a bare engine) — the one transition per record type that a full
// Replay, a replication follower tracking a live primary, and a live server
// that has just made the record durable all share. pos is the record's
// position in the logical record sequence since the engine's birth: snap
// and fair records are only valid at position 0. specs, when non-nil, are
// an admit/batch record's jobs already decoded — the live admission path
// hands over what it validated instead of re-deriving them from the
// record; nil decodes them here. A snap record restores the engine only:
// the fair and steal state it carries belong to the server's own restore.
// The determinism and cross-checking contract is Replay's.
func Apply(eng *sim.Engine, pos int, rec Record, specs []sim.JobSpec, obs Observer) error {
	switch rec.Type {
	case TypeSnap:
		if pos != 0 {
			return fmt.Errorf("journal: replay record %d: snapshot not at journal head", pos)
		}
		if err := eng.Restore(*rec.Snap); err != nil {
			return fmt.Errorf("journal: replay record %d (snap): %w", pos, err)
		}
	case TypeFair:
		if pos != 0 {
			return fmt.Errorf("journal: replay record %d: fair ledger not at journal head", pos)
		}
		if obs != nil {
			if err := obs.Fair(*rec.Fair); err != nil {
				return fmt.Errorf("journal: replay record %d (fair): %w", pos, err)
			}
		}
	case TypeAdmit, TypeBatch:
		if specs == nil {
			specs = make([]sim.JobSpec, len(rec.Jobs))
			for k, j := range rec.Jobs {
				spec, err := j.spec()
				if err != nil {
					return fmt.Errorf("journal: replay record %d (%s) job %d: %w", pos, rec.Type, k, err)
				}
				specs[k] = spec
			}
		}
		ids, err := eng.AdmitBatch(specs)
		if err != nil {
			return fmt.Errorf("journal: replay record %d (%s): %w", pos, rec.Type, err)
		}
		if ids[0] != rec.Base {
			return fmt.Errorf("journal: replay record %d (%s): engine assigned job %d, journal says %d — journal does not match this configuration", pos, rec.Type, ids[0], rec.Base)
		}
		if obs != nil {
			obs.Admitted(rec, specs, ids)
		}
	case TypeCancel:
		if err := eng.Cancel(rec.ID); err != nil {
			return fmt.Errorf("journal: replay record %d (cancel %d): %w", pos, rec.ID, err)
		}
		if obs != nil {
			obs.Cancelled(rec.ID)
		}
	case TypeSteal:
		withdrawn := make([]sim.JobSpec, len(rec.IDs))
		for k, id := range rec.IDs {
			spec, err := eng.Withdraw(id)
			if err != nil {
				return fmt.Errorf("journal: replay record %d (steal %d): %w", pos, id, err)
			}
			withdrawn[k] = spec
		}
		if obs != nil {
			obs.Stolen(rec, withdrawn)
		}
	case TypeStep, TypeSteps:
		n := rec.N
		if rec.Type == TypeStep {
			n = 1
		}
		info, err := eng.StepN(n)
		if err != nil {
			return fmt.Errorf("journal: replay record %d (%s): %w", pos, rec.Type, err)
		}
		if info.Idle {
			return fmt.Errorf("journal: replay record %d (%s): engine is idle but the journal recorded a step to %d — journal does not match this configuration", pos, rec.Type, rec.Now)
		}
		if info.Steps != n {
			return fmt.Errorf("journal: replay record %d (%s): engine executed %d of %d recorded steps — journal does not match this configuration", pos, rec.Type, info.Steps, n)
		}
		if info.Step != rec.Now {
			return fmt.Errorf("journal: replay record %d (%s): engine stepped to %d, journal says %d — journal does not match this configuration", pos, rec.Type, info.Step, rec.Now)
		}
		if obs != nil {
			obs.Stepped(info)
		}
	default:
		return fmt.Errorf("journal: replay record %d: unknown type %q", pos, rec.Type)
	}
	return nil
}
