package journal

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
	"krad/internal/workload"
)

// Type discriminates journal records. The five kinds mirror the engine's
// committed mutations exactly: an engine driven through the same sequence
// of admits, cancels and steps is bit-identical to the one that wrote the
// journal (internal/sim's seeds are derived from job IDs, which replay in
// order).
type Type string

const (
	// TypeAdmit is a single-job admission (sim.Engine.Admit).
	TypeAdmit Type = "admit"
	// TypeBatch is an all-or-nothing burst admission (Engine.AdmitBatch).
	TypeBatch Type = "batch"
	// TypeCancel withdraws a pending or active job (Engine.Cancel).
	TypeCancel Type = "cancel"
	// TypeStep is one executed engine step; Now is the virtual clock after
	// it ran, recorded so replay divergence is detected immediately.
	TypeStep Type = "step"
	// TypeSteps is an aggregated batch of N ≥ 2 consecutive executed steps
	// (one Engine.StepN call); Now is the clock after the last of them.
	// Replay re-executes the batch with StepN, which is bit-identical to N
	// single steps, so one record replaces N without weakening the
	// cross-checks. Written by servers batching ticker catch-up; a journal
	// may freely mix step and steps records.
	TypeSteps Type = "steps"
	// TypeSnap is an idle-point checkpoint written by compaction; it is
	// only valid as the first record of a journal.
	TypeSnap Type = "snap"
	// TypeSteal is the victim half of a cross-shard work steal: the listed
	// pending jobs were withdrawn from this engine and re-admitted on shard
	// To at local IDs NBase, NBase+1, … (internal/server's two-lock steal
	// protocol). Replay withdraws the same jobs, so the victim engine stays
	// bit-identical; the thief's journal carries the matching admit record
	// tagged with From. Steal records are version-2: pre-steal readers fail
	// loudly instead of misreplaying.
	TypeSteal Type = "steal"
	// TypeFair carries a fair-share ledger (usage accumulators, in-flight
	// job→tenant map, half-life). Earlier builds wrote one as the head
	// record of every fresh fairness-enabled journal, to declare the
	// half-life; the directory's fleet shape (Shape) records it now, and
	// nothing writes fair records any more. They are still read: the
	// server's replay observer checks the half-life and restores the
	// ledger. Compaction attaches the ledger to the snap record instead.
	// The engine ignores fair records.
	TypeFair Type = "fair"
)

// FairState is the fair-share ledger payload of fair and snap records.
// V versions the encoding so future ledger shapes can evolve without
// breaking old journals.
type FairState struct {
	// V is the payload format version (currently 1).
	V int `json:"v"`
	// HalfLife is the usage decay half-life the ledger was accumulated
	// under, in virtual steps. Replaying under a different half-life would
	// silently change decay math, so replay cross-checks it.
	HalfLife int64 `json:"half_life"`
	// Usage maps leaf paths to their decayed usage accumulators.
	Usage map[string]fairshare.Usage `json:"usage,omitempty"`
	// Jobs maps in-flight engine-local job IDs to their leaf paths.
	Jobs map[int]string `json:"jobs,omitempty"`
}

// StealState is the work-stealing bookkeeping a snap record carries for
// the server: compaction drops the steal/admit records the live state was
// built from, so the checkpoint must carry what survives them.
type StealState struct {
	// V is the payload format version (currently 1).
	V int `json:"v"`
	// In counts jobs this shard admitted via steals rather than client
	// submissions; the server rebuilds its submitted counter as the
	// engine's admitted total minus In.
	In int64 `json:"in,omitempty"`
	// Redirects maps shard-local IDs of jobs stolen from this shard to the
	// namespaced IDs they now live under, preserving status/cancel by the
	// original ID across a restart that replays from this snapshot.
	Redirects map[int]int `json:"redirects,omitempty"`
	// Origins maps shard-local IDs of jobs this shard admitted by a steal to
	// their original namespaced IDs: the thief-side pairs the snapshot
	// settled, so a victim whose steal record outlived the compaction is
	// not mistaken for an orphan.
	Origins map[int]int `json:"origins,omitempty"`
}

// JobRecord is one admitted job inside an admit/batch record. Release is
// the absolute virtual release time after the server normalized "now"
// releases, so replay does not depend on the clock at decode time.
//
// Exactly one of Graph, Mold and Rigid is set. Graph-backed jobs omit
// Fam — the original record shape — so journals from family-less builds
// decode and re-encode byte-identically. Non-graph jobs carry their
// runtime-family tag in Fam and need the enclosing Record's V to be
// recordVersion or later. The graph is in the JSON form in records before
// csrVersion and in the record form from it on.
type JobRecord struct {
	Release int64 `json:"release"`
	// Fam is the runtime-family tag ("moldable" for moldable specs,
	// "profile" for rigid specs); empty means graph-backed (the legacy
	// encoding, implicitly family "dag").
	Fam   string             `json:"fam,omitempty"`
	Graph *dag.Graph         `json:"graph,omitempty"`
	Mold  *moldable.Spec     `json:"mold,omitempty"`
	Rigid *profile.RigidSpec `json:"rigid,omitempty"`
}

// spec reconstructs the admitted sim.JobSpec through the job text's own
// conversion (workload.JobText.Spec), so a record and a submit body
// become an engine job alike: graph-backed records are a field copy, and
// moldable and rigid records re-validate through their packages' FromSpec
// constructors, so a corrupt-but-CRC-valid payload fails here with a
// located error instead of panicking inside the engine.
func (j JobRecord) spec() (sim.JobSpec, error) {
	text := workload.JobText{Graph: j.Graph, Mold: j.Mold, Release: j.Release}
	if j.Rigid != nil {
		text.Rigid = *j.Rigid
	}
	return text.Spec()
}

// recordVersion is the version stamped on admit/batch records that carry
// non-graph jobs. Version 0 (the field omitted) is the original all-graph
// encoding; bumping the version on the new shape makes old readers fail
// loudly on journals they cannot replay instead of misdecoding them.
const recordVersion = 2

// tenantsVersion is the version of a steal admission that carries its
// jobs' tenants: a reader that predates the field refuses the record
// instead of dropping the tenants.
const tenantsVersion = 3

// csrVersion is the version of every admit and batch record this build
// writes, whatever its jobs and tags: its graphs are in the record form
// (dag.Graph.AppendRecord). A reader that predates the form refuses the
// record instead of skipping the form's keys and admitting an edgeless
// graph, so an older follower refuses such frames loudly.
const csrVersion = 4

// Record is one journaled engine mutation.
type Record struct {
	Type Type `json:"t"`
	// V is the record encoding version: 0 (omitted) for the original
	// shapes, recordVersion for admit/batch records carrying non-graph
	// jobs or steal origins and for steal records, tenantsVersion for
	// admissions carrying steal tenants, and csrVersion for every admit
	// and batch record this build writes. The first three are read and
	// written as they were.
	V int `json:"v,omitempty"`
	// Base is the engine-assigned ID of the first admitted job (admit and
	// batch records); replay cross-checks it against the IDs the engine
	// re-assigns.
	Base int `json:"base,omitempty"`
	// Jobs carries the admitted specs (admit: exactly one; batch: one or
	// more).
	Jobs []JobRecord `json:"jobs,omitempty"`
	// ID is the cancelled job's engine-local ID (cancel records).
	ID int `json:"id,omitempty"`
	// Now is the virtual clock after the step executed (step and steps
	// records).
	Now int64 `json:"now,omitempty"`
	// N is the number of steps covered by a steps record (≥ 2; plain step
	// records omit it).
	N int64 `json:"n,omitempty"`
	// Snap is the engine checkpoint (snap records).
	Snap *sim.EngineCheckpoint `json:"snap,omitempty"`
	// Seq is the replication sequence cursor a snap record carries: the
	// number of mutation records the checkpoint covers, counted from the
	// engine's birth. A record's sequence number is its 1-based position in
	// that count, so a journal headed by a snap with Seq=s continues at
	// s+1. Zero (omitted) on journals written before replication existed —
	// their snapshots simply cannot seed a follower and catch-up falls back
	// to full replay.
	Seq int64 `json:"seq,omitempty"`
	// Tenant is the fair-share leaf path the admission was accounted
	// against (admit and batch records under a fairness-enabled server).
	// Empty on fairness-off journals, keeping their encoding byte-identical
	// to pre-fairness builds.
	Tenant string `json:"tenant,omitempty"`
	// Fair is the fair-share ledger (fair records, and snap records written
	// by a fairness-enabled server).
	Fair *FairState `json:"fair,omitempty"`
	// IDs lists the shard-local IDs withdrawn by a steal record, in the
	// order they were re-admitted on the thief.
	IDs []int `json:"ids,omitempty"`
	// To is the thief's shard index (steal records).
	To int `json:"to,omitempty"`
	// NBase is the first thief-local ID the stolen jobs were re-admitted
	// at (steal records): IDs[i] moved to thief-local NBase+i.
	NBase int `json:"nbase,omitempty"`
	// From tags a thief-side admit/batch record as the re-admission half of
	// a steal: From[i] is job i's original namespaced ID on the victim.
	// Needs V ≥ recordVersion. Empty on client admissions.
	From []int `json:"from,omitempty"`
	// Tenants, beside From, names the fair-share leaf each stolen job was in
	// flight under on the victim ("" for none); written only when one of
	// them has a tenant. Needs V ≥ tenantsVersion, and a tenantsVersion
	// record has them.
	Tenants []string `json:"tenants,omitempty"`
	// Steal is the server's work-stealing bookkeeping (snap records written
	// by a steal-enabled server that has stolen at least once).
	Steal *StealState `json:"steal,omitempty"`
}

// Validate pins the per-type record shape. Both codec directions run it,
// so a corrupt-but-CRC-valid record (impossible from torn writes, possible
// from software bugs) is caught at the earliest boundary.
func (r Record) Validate() error {
	switch r.Type {
	case TypeAdmit:
		if len(r.Jobs) != 1 {
			return fmt.Errorf("journal: admit record has %d jobs, want 1", len(r.Jobs))
		}
	case TypeBatch:
		if len(r.Jobs) == 0 {
			return fmt.Errorf("journal: batch record has no jobs")
		}
	case TypeCancel, TypeStep:
		if len(r.Jobs) != 0 || r.Snap != nil || r.N != 0 || r.Tenant != "" || r.Fair != nil || r.Seq != 0 {
			return fmt.Errorf("journal: %s record carries stray fields", r.Type)
		}
	case TypeSteps:
		if len(r.Jobs) != 0 || r.Snap != nil || r.Tenant != "" || r.Fair != nil || r.Seq != 0 {
			return fmt.Errorf("journal: steps record carries stray fields")
		}
		if r.N < 2 {
			return fmt.Errorf("journal: steps record covers %d steps, want ≥ 2", r.N)
		}
	case TypeSnap:
		if r.Snap == nil {
			return fmt.Errorf("journal: snap record has no checkpoint")
		}
		if r.Tenant != "" {
			return fmt.Errorf("journal: snap record carries stray fields")
		}
		if r.Seq < 0 {
			return fmt.Errorf("journal: snap record has negative sequence cursor %d", r.Seq)
		}
	case TypeFair:
		if len(r.Jobs) != 0 || r.Snap != nil || r.N != 0 || r.Tenant != "" || r.Seq != 0 {
			return fmt.Errorf("journal: fair record carries stray fields")
		}
		if r.Fair == nil {
			return fmt.Errorf("journal: fair record has no ledger")
		}
	case TypeSteal:
		if len(r.Jobs) != 0 || r.Snap != nil || r.N != 0 || r.Tenant != "" || r.Fair != nil || r.Seq != 0 {
			return fmt.Errorf("journal: steal record carries stray fields")
		}
		if len(r.IDs) == 0 {
			return fmt.Errorf("journal: steal record withdraws no jobs")
		}
		for i, id := range r.IDs {
			if id < 0 {
				return fmt.Errorf("journal: steal record ID %d is negative (%d)", i, id)
			}
		}
		if r.To < 0 || r.NBase < 0 {
			return fmt.Errorf("journal: steal record has negative destination (to %d, nbase %d)", r.To, r.NBase)
		}
		if r.V != recordVersion {
			return fmt.Errorf("journal: steal record version %d, want %d", r.V, recordVersion)
		}
	default:
		return fmt.Errorf("journal: unknown record type %q", r.Type)
	}
	if r.Type != TypeSteal && (len(r.IDs) != 0 || r.To != 0 || r.NBase != 0) {
		return fmt.Errorf("journal: %s record carries steal fields", r.Type)
	}
	if r.Steal != nil {
		if r.Type != TypeSnap {
			return fmt.Errorf("journal: %s record carries steal state", r.Type)
		}
		if r.Steal.V != 1 {
			return fmt.Errorf("journal: steal state version %d, want 1", r.Steal.V)
		}
		if r.Steal.In < 0 {
			return fmt.Errorf("journal: steal state has negative stolen-in count %d", r.Steal.In)
		}
	}
	if r.Fair != nil {
		if r.Type != TypeFair && r.Type != TypeSnap {
			return fmt.Errorf("journal: %s record carries a fair ledger", r.Type)
		}
		if r.Fair.V != 1 {
			return fmt.Errorf("journal: fair ledger version %d, want 1", r.Fair.V)
		}
		if r.Fair.HalfLife < 1 {
			return fmt.Errorf("journal: fair ledger half-life %d, want ≥ 1", r.Fair.HalfLife)
		}
	}
	if r.Type == TypeAdmit || r.Type == TypeBatch {
		if r.Base < 0 {
			return fmt.Errorf("journal: %s record has negative base ID %d", r.Type, r.Base)
		}
		if r.Seq != 0 {
			return fmt.Errorf("journal: %s record carries a sequence cursor", r.Type)
		}
		if r.V != 0 && r.V != recordVersion && r.V != tenantsVersion && r.V != csrVersion {
			return fmt.Errorf("journal: %s record version %d, want 0, %d, %d or %d", r.Type, r.V, recordVersion, tenantsVersion, csrVersion)
		}
		if len(r.Tenants) != 0 && len(r.Tenants) != len(r.From) {
			return fmt.Errorf("journal: %s record has %d steal tenants for %d origin IDs", r.Type, len(r.Tenants), len(r.From))
		}
		if r.V == tenantsVersion && len(r.Tenants) == 0 || r.V < tenantsVersion && len(r.Tenants) != 0 {
			return fmt.Errorf("journal: %s record has version %d and %d steal tenants; version %d goes with tenants", r.Type, r.V, len(r.Tenants), tenantsVersion)
		}
		if len(r.From) != 0 {
			if len(r.From) != len(r.Jobs) {
				return fmt.Errorf("journal: %s record has %d origin IDs for %d jobs", r.Type, len(r.From), len(r.Jobs))
			}
			if r.V < recordVersion {
				return fmt.Errorf("journal: %s record carries steal origins but version is %d, want %d", r.Type, r.V, recordVersion)
			}
			if r.Tenant != "" {
				return fmt.Errorf("journal: %s record carries both a tenant and steal origins", r.Type)
			}
			for i, id := range r.From {
				if id < 0 {
					return fmt.Errorf("journal: %s record origin ID %d is negative (%d)", r.Type, i, id)
				}
			}
		}
		for i, j := range r.Jobs {
			payloads := 0
			if j.Graph != nil {
				payloads++
			}
			if j.Mold != nil {
				payloads++
			}
			if j.Rigid != nil {
				payloads++
			}
			switch {
			case payloads > 1:
				return fmt.Errorf("journal: %s record job %d has %d job payloads, want exactly one of graph/mold/rigid", r.Type, i, payloads)
			case j.Graph != nil:
				if j.Fam != "" {
					return fmt.Errorf("journal: %s record job %d is graph-backed but tagged family %q", r.Type, i, j.Fam)
				}
			case j.Mold != nil:
				if j.Fam != sim.FamilyMoldable.String() {
					return fmt.Errorf("journal: %s record job %d carries a moldable spec but family tag %q", r.Type, i, j.Fam)
				}
				if r.V < recordVersion {
					return fmt.Errorf("journal: %s record job %d is moldable but record version is %d, want %d", r.Type, i, r.V, recordVersion)
				}
			case j.Rigid != nil:
				if j.Fam != sim.FamilyProfile.String() {
					return fmt.Errorf("journal: %s record job %d carries a rigid spec but family tag %q", r.Type, i, j.Fam)
				}
				if r.V < recordVersion {
					return fmt.Errorf("journal: %s record job %d is rigid but record version is %d, want %d", r.Type, i, r.V, recordVersion)
				}
			default:
				return fmt.Errorf("journal: %s record job %d has no graph", r.Type, i)
			}
			if j.Release < 0 {
				return fmt.Errorf("journal: %s record job %d has negative release %d", r.Type, i, j.Release)
			}
		}
	} else if r.V != 0 && r.Type != TypeSteal {
		return fmt.Errorf("journal: %s record carries stray fields", r.Type)
	} else if len(r.From) != 0 || len(r.Tenants) != 0 {
		return fmt.Errorf("journal: %s record carries steal origins", r.Type)
	}
	return nil
}

// AdmitRecord builds the journal record for a committed admission: one
// job as TypeAdmit, several as TypeBatch. base is the first assigned
// engine-local ID; specs must carry a replayable description — a dag
// graph, a moldable spec or a rigid spec — with normalized (absolute)
// release times. The record is csrVersion, whatever its jobs.
func AdmitRecord(base int, specs []sim.JobSpec) (Record, error) {
	var rec Record
	if err := AdmitRecordInto(&rec, base, specs, nil, nil); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// AdmitRecordInto builds the same record as AdmitRecord but in place,
// recycling rec's Jobs backing array and the per-slot spec boxes from the
// previous call. The record's payload only lives until the caller encodes
// it, so a server journaling every admission through one scratch Record
// writes the steady-state submit path without per-admission allocation.
// from and tenants, when set, tag the thief half of a steal (see From and
// Tenants); the record refers to them, so they must outlive its encoding.
// On error rec is left in an unspecified state and must not be encoded.
func AdmitRecordInto(rec *Record, base int, specs []sim.JobSpec, from []int, tenants []string) error {
	jobs := rec.Jobs
	if cap(jobs) < len(specs) {
		jobs = make([]JobRecord, len(specs))
	} else {
		jobs = jobs[:len(specs)]
	}
	typ := TypeBatch
	if len(specs) == 1 {
		typ = TypeAdmit
	}
	for i, s := range specs {
		// Pointer boxes from the previous use of this slot, read before the
		// slot is overwritten so they can be refilled instead of reallocated.
		moldBox, rigidBox := jobs[i].Mold, jobs[i].Rigid
		switch src := s.Source.(type) {
		case nil:
			if s.Graph == nil {
				return fmt.Errorf("journal: job %d is not journalable; need a dag graph, a moldable spec or a rigid spec", base+i)
			}
			jobs[i] = JobRecord{Release: s.Release, Graph: s.Graph}
		case *moldable.Job:
			if moldBox == nil {
				moldBox = new(moldable.Spec)
			}
			*moldBox = src.Spec()
			jobs[i] = JobRecord{Release: s.Release, Fam: sim.FamilyMoldable.String(), Mold: moldBox}
		case *profile.Rigid:
			if rigidBox == nil {
				rigidBox = new(profile.RigidSpec)
			}
			*rigidBox = src.Spec()
			jobs[i] = JobRecord{Release: s.Release, Fam: sim.FamilyProfile.String(), Rigid: rigidBox}
		default:
			return fmt.Errorf("journal: job %d (family %q) is not journalable; need a dag graph, a moldable spec or a rigid spec", base+i, sim.FamilyOf(src))
		}
	}
	*rec = Record{Type: typ, V: csrVersion, Base: base, Jobs: jobs, From: from, Tenants: tenants}
	return nil
}

// CancelRecord builds the record for a committed cancellation.
func CancelRecord(id int) Record { return Record{Type: TypeCancel, ID: id} }

// StealRecord builds the victim-side record for a committed cross-shard
// steal: the shard-local jobs ids were withdrawn and re-admitted on shard
// `to` at local IDs nbase, nbase+1, …. The IDs are copied so the journal
// payload never aliases the caller's scratch.
func StealRecord(ids []int, to, nbase int) Record {
	return Record{Type: TypeSteal, V: recordVersion, IDs: append([]int(nil), ids...), To: to, NBase: nbase}
}

// StepsRecord builds the record for n consecutive executed steps ending at
// virtual time now. n == 1 degrades to a plain step record, so journals
// written by batching servers stay byte-compatible with single-step
// readers whenever no batching actually happened.
func StepsRecord(n, now int64) Record {
	if n == 1 {
		return Record{Type: TypeStep, Now: now}
	}
	return Record{Type: TypeSteps, Now: now, N: n}
}
