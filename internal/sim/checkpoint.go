package sim

import (
	"errors"
	"fmt"

	"krad/internal/sched"
)

// ErrCheckpointUnsupported reports that the configured scheduler cannot
// serialize its cross-step state (it does not implement
// sched.Snapshotter), so idle-point checkpoints of this engine would not
// reproduce the pre-checkpoint process bit-for-bit. Journal compaction
// treats it as "keep the full journal" rather than as a failure.
var ErrCheckpointUnsupported = errors.New("sim: scheduler does not support state snapshots")

// CheckpointJob is one terminal (done, cancelled or stolen) job's record
// inside an EngineCheckpoint: enough to keep status queries and response
// accounting working across a restore, with no runtime state — every
// engine releases a job's runtime at the step the job ends.
type CheckpointJob struct {
	ID      int      `json:"id"`
	Release int64    `json:"release"`
	Phase   JobPhase `json:"phase"`
	// Family is the job's runtime family; omitted for FamilyUnknown, as
	// in checkpoints written before it was carried.
	Family      RuntimeFamily `json:"family,omitempty"`
	Completion  int64         `json:"completion,omitempty"`
	CancelledAt int64         `json:"cancelled_at,omitempty"`
	Work        []int         `json:"work"`
	Span        int           `json:"span"`
}

// EngineCheckpoint is the complete state of an idle engine: the clock, the
// terminal job table, cumulative counters, and the scheduler's serialized
// cross-step state. An idle engine (no pending, no active jobs) is fully
// described by these — every runtime object has been consumed — which is
// what makes checkpoints exact rather than approximate: restoring one
// into a fresh engine and driving it forward is bit-identical to having
// kept the original engine.
type EngineCheckpoint struct {
	Now        int64           `json:"now"`
	Makespan   int64           `json:"makespan"`
	TotalWork  int64           `json:"total_work"`
	MaxRelease int64           `json:"max_release"`
	ExecTotal  []int64         `json:"exec_total"`
	Overloaded []bool          `json:"overloaded,omitempty"`
	SchedState []byte          `json:"sched_state,omitempty"`
	Jobs       []CheckpointJob `json:"jobs,omitempty"`
	// NextID is the ID the next admission receives. Retired jobs are
	// omitted from Jobs, so the table alone no longer determines it.
	// Checkpoints from engines that never retired (and all pre-retirement
	// checkpoints) omit the field; it then defaults to len(Jobs).
	NextID int `json:"next_id,omitempty"`
	// Completed, Cancelled and Stolen carry the aggregate terminal
	// counters, which include retired jobs. When omitted (pre-retirement
	// checkpoints) they are derived from the Jobs table.
	Completed int `json:"completed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
	Stolen    int `json:"stolen,omitempty"`
}

// Checkpoint captures the engine's state at an idle instant. It fails if
// the engine still has pending or active jobs (their runtime state is not
// serializable) or with ErrCheckpointUnsupported if the scheduler cannot
// snapshot its own state. Engines recording traces cannot be checkpointed:
// the trace is not carried across a restore.
func (e *Engine) Checkpoint() (EngineCheckpoint, error) {
	if !e.Idle() {
		return EngineCheckpoint{}, fmt.Errorf("sim: checkpoint requires an idle engine (%d pending, %d active)", e.pendingLen(), e.live)
	}
	if e.cfg.Trace != TraceNone {
		return EngineCheckpoint{}, fmt.Errorf("sim: checkpoint requires TraceNone (trace state is not restorable)")
	}
	snap, ok := e.cfg.Scheduler.(sched.Snapshotter)
	if !ok {
		return EngineCheckpoint{}, fmt.Errorf("%w: %s", ErrCheckpointUnsupported, e.cfg.Scheduler.Name())
	}
	state, err := snap.SnapshotState()
	if err != nil {
		// Composite schedulers discover mid-snapshot that a member cannot
		// serialize; either way the checkpoint cannot be taken, and callers
		// (journal compaction) should fall back to full replay.
		return EngineCheckpoint{}, fmt.Errorf("%w: %q: %v", ErrCheckpointUnsupported, e.cfg.Scheduler.Name(), err)
	}
	cp := EngineCheckpoint{
		Now:        e.now,
		Makespan:   e.makespan,
		TotalWork:  e.totalWork,
		MaxRelease: e.maxRelease,
		ExecTotal:  append([]int64(nil), e.execTotal...),
		Overloaded: append([]bool(nil), e.overloaded...),
		SchedState: state,
		Jobs:       make([]CheckpointJob, 0, e.NextID()),
		NextID:     e.NextID(),
		Completed:  e.completedN,
		Cancelled:  e.cancelledN,
		Stolen:     e.stolenN,
	}
	for id := 0; id < e.NextID(); id++ {
		st, ok := e.recs.Get(id)
		if !ok {
			continue // retired: only the aggregate counters carry over
		}
		cp.Jobs = append(cp.Jobs, CheckpointJob{
			ID:          id,
			Release:     st.Release,
			Phase:       st.Phase,
			Family:      st.Family,
			Completion:  st.Completion,
			CancelledAt: st.CancelledAt,
			Work:        append([]int(nil), st.Work...),
			Span:        st.Span,
		})
	}
	return cp, nil
}

// Restore loads a checkpoint into a freshly constructed engine: the clock,
// counters, terminal job table and scheduler state become exactly what
// Checkpoint saw. Job IDs continue from the checkpointed table, so
// admissions after a restore receive the same IDs the pre-checkpoint
// process would have assigned.
func (e *Engine) Restore(cp EngineCheckpoint) error {
	if e.now != 0 || e.NextID() != 0 {
		return fmt.Errorf("sim: restore requires a fresh engine (clock %d, %d jobs admitted)", e.now, e.NextID())
	}
	if cp.Now < 0 {
		return fmt.Errorf("sim: checkpoint clock %d is negative", cp.Now)
	}
	if cp.ExecTotal != nil && len(cp.ExecTotal) != e.cfg.K {
		return fmt.Errorf("sim: checkpoint has %d exec totals for K=%d", len(cp.ExecTotal), e.cfg.K)
	}
	if cp.Overloaded != nil && len(cp.Overloaded) != e.cfg.K {
		return fmt.Errorf("sim: checkpoint has %d overload flags for K=%d", len(cp.Overloaded), e.cfg.K)
	}
	nextID := cp.NextID
	if nextID == 0 {
		nextID = len(cp.Jobs) // pre-retirement checkpoints: dense table
	}
	if nextID < len(cp.Jobs) {
		return fmt.Errorf("sim: checkpoint next ID %d below its %d-job table", nextID, len(cp.Jobs))
	}
	for i, j := range cp.Jobs {
		if i > 0 && j.ID <= cp.Jobs[i-1].ID {
			return fmt.Errorf("sim: checkpoint job %d has ID %d after ID %d, want ascending IDs", i, j.ID, cp.Jobs[i-1].ID)
		}
		if j.ID < 0 || j.ID >= nextID {
			return fmt.Errorf("sim: checkpoint job %d has ID %d outside 0..%d", i, j.ID, nextID-1)
		}
		if j.Phase != JobDone && j.Phase != JobCancelled && j.Phase != JobStolen {
			return fmt.Errorf("sim: checkpoint job %d is %s; only terminal jobs can be checkpointed", j.ID, j.Phase)
		}
		if len(j.Work) != e.cfg.K {
			return fmt.Errorf("sim: checkpoint job %d has %d work categories for K=%d", j.ID, len(j.Work), e.cfg.K)
		}
		// A status keeps one end step, chosen by the phase.
		if j.Phase == JobDone && (j.Completion < 1 || j.CancelledAt != 0) {
			return fmt.Errorf("sim: checkpoint job %d is done with completion %d and cancelled_at %d, want completion ≥ 1 and no cancel", j.ID, j.Completion, j.CancelledAt)
		}
		if j.Phase != JobDone && j.Completion != 0 {
			return fmt.Errorf("sim: checkpoint job %d is %s with completion %d, want 0", j.ID, j.Phase, j.Completion)
		}
	}
	tableDone, tableCancelled, tableStolen := 0, 0, 0
	for _, j := range cp.Jobs {
		switch j.Phase {
		case JobDone:
			tableDone++
		case JobStolen:
			tableStolen++
		default:
			tableCancelled++
		}
	}
	completedN, cancelledN, stolenN := cp.Completed, cp.Cancelled, cp.Stolen
	if completedN == 0 && cancelledN == 0 && stolenN == 0 {
		completedN, cancelledN, stolenN = tableDone, tableCancelled, tableStolen // pre-retirement
	}
	if completedN < tableDone || cancelledN < tableCancelled || stolenN < tableStolen {
		return fmt.Errorf("sim: checkpoint counters %d done/%d cancelled/%d stolen below its job table (%d/%d/%d)",
			completedN, cancelledN, stolenN, tableDone, tableCancelled, tableStolen)
	}
	if completedN+cancelledN+stolenN != nextID {
		return fmt.Errorf("sim: checkpoint counters %d done + %d cancelled + %d stolen don't cover %d admitted jobs",
			completedN, cancelledN, stolenN, nextID)
	}
	if cp.SchedState != nil {
		snap, ok := e.cfg.Scheduler.(sched.Snapshotter)
		if !ok {
			return fmt.Errorf("%w: %s (checkpoint carries scheduler state)", ErrCheckpointUnsupported, e.cfg.Scheduler.Name())
		}
		if err := snap.RestoreState(cp.SchedState); err != nil {
			return fmt.Errorf("sim: restore scheduler %q: %w", e.cfg.Scheduler.Name(), err)
		}
	}
	e.now = cp.Now
	e.makespan = cp.Makespan
	e.totalWork = cp.TotalWork
	e.maxRelease = cp.MaxRelease
	if cp.ExecTotal != nil {
		copy(e.execTotal, cp.ExecTotal)
	}
	if cp.Overloaded != nil {
		copy(e.overloaded, cp.Overloaded)
	}
	for _, j := range cp.Jobs {
		e.recs.Put(j.ID, JobStatus{
			Release:     j.Release,
			Phase:       j.Phase,
			Family:      j.Family,
			Completion:  j.Completion,
			CancelledAt: j.CancelledAt,
			Work:        j.Work,
			Span:        j.Span,
		})
	}
	e.recs.grow(nextID)
	e.completedN = completedN
	e.cancelledN = cancelledN
	e.stolenN = stolenN
	return nil
}
