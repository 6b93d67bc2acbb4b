package sim

import (
	"krad/internal/dag"
)

// JobSource describes a job's static shape and mints runtime instances for
// a run. Three implementations ship with the library: K-DAG jobs (JobSpec's
// Graph field, wrapping internal/dag), compact parallelism-profile jobs
// (internal/profile) for very large simulations, and moldable jobs
// (internal/moldable), which also run duration-annotated K-DAGs.
type JobSource interface {
	// Name labels the job in traces and errors.
	Name() string
	// K returns the number of resource categories the job was built for.
	K() int
	// WorkVector returns T1(Ji, α) per category (indexed α−1).
	WorkVector() []int
	// Span returns T∞(Ji).
	Span() int
	// TotalTasks returns the total unit-task count (Σ WorkVector).
	TotalTasks() int
	// NewRuntime creates a fresh runtime instance. pick applies to
	// representations where ready tasks are distinguishable; seed feeds
	// randomized pickers.
	NewRuntime(pick dag.PickPolicy, seed int64) RuntimeJob
}

// RuntimeJob is the engine's view of one executing job: report desires,
// execute allotted tasks, advance at step boundaries.
//
// The idle-step law: a job that executes nothing in a step does not change
// in that step. Between two Execute calls that ran at least one task,
// Desire, Done and RemainingWork — and Floor and the hold window of the
// runtimes that have them — return what they returned before, however many
// step boundaries (Advance calls) passed. The engine relies on it: it
// caches each active job's desires and floors and re-reads them, calls
// Advance and checks Done only for jobs it handed processors that step, so
// a job the scheduler passed over is not called at all.
type RuntimeJob interface {
	// Desire returns d(Ji, α, t), the count of ready α-tasks.
	Desire(c dag.Category) int
	// Execute runs up to n ready α-tasks during the current step and
	// returns how many ran. Completions take effect at Advance.
	Execute(c dag.Category, n int) int
	// Advance ends the time step, releasing successors of completed tasks.
	Advance()
	// Done reports whether all tasks have executed.
	Done() bool
	// RemainingWork returns unexecuted task counts per category (used by
	// the clairvoyant oracle only).
	RemainingWork() []int
}

// WorkAppender is an optional JobSource extension for allocation-free
// admission: sources that can write their work vector into a
// caller-provided buffer let the engine recycle a retired job's slice
// instead of allocating through WorkVector. AppendWork appends T1(Ji, α)
// per category (indexed α−1) to dst and returns the extended slice.
type WorkAppender interface {
	JobSource
	// AppendWork appends the job's work vector to dst.
	AppendWork(dst []int) []int
}

// RuntimeReuser is an optional JobSource extension for allocation-free
// admission: sources that can reset a previously-minted runtime in place
// let the engine recycle a retired job's runtime allocation. ReuseRuntime
// reports false when rt is not a matching runtime of this source's shape;
// the engine then falls back to NewRuntime.
type RuntimeReuser interface {
	JobSource
	// ReuseRuntime resets rt for a fresh run of this job if possible.
	ReuseRuntime(rt RuntimeJob, pick dag.PickPolicy, seed int64) (RuntimeJob, bool)
}

// TaskRuntime is implemented by runtimes that can report which concrete
// tasks ran — required for TraceTasks-level recording (Gantt charts and
// schedule re-validation).
type TaskRuntime interface {
	RuntimeJob
	// ExecuteTasks is Execute returning the executed task IDs.
	ExecuteTasks(c dag.Category, n int) []dag.TaskID
}

// LeapRuntime is implemented by runtimes whose state after several
// consecutive steps is computable from the aggregate tasks executed — the
// job-side half of the engine's event-leap (the scheduler-side half is
// sched.Stable). Profile-backed jobs always qualify: mid-phase, executing
// tasks over n steps just subtracts the totals from the phase's remaining
// counts. DAG-backed runtimes qualify conditionally — their ready sets
// evolve only at promoting step boundaries — so they additionally
// implement StableRuntime to report when the next promotion can be.
type LeapRuntime interface {
	RuntimeJob
	// LeapTasks applies the aggregate of several consecutive steps that
	// together executed total[α−1] α-tasks (with the usual Advance at
	// every step boundary), leaving the runtime in the state those single
	// steps would have produced. The engine guarantees total[α−1] > 0
	// only where Desire(α) > 0, and Desire(α) > total[α−1] — no phase
	// boundary or completion is crossed mid-leap, so the intermediate
	// Advance calls would have been state-preserving.
	LeapTasks(total []int)
}

// StableRuntime is implemented by LeapRuntimes whose leap eligibility is
// state-dependent and must be re-established every round. The engine
// consults StableFor after the scheduler reports a stable horizon and
// takes the minimum across jobs; runtimes that do not implement the
// interface (profiles) are covered by the scheduler's horizon alone, which
// already keeps them mid-phase.
type StableRuntime interface {
	LeapRuntime
	// StableFor reports how many additional steps after the current one
	// the runtime stays leapable when at most perStep[α−1] α-tasks execute
	// per covered step. 0 disables leaping this round. perStep is
	// engine-owned and reused; implementations must not retain it.
	StableFor(perStep []int) int64
}

// FloorRuntime is implemented by non-preemptive runtimes whose in-flight
// multi-step tasks pin processors: Floor reports how many α-processors
// the job must keep this step. The engine forwards floors to the
// scheduler through sched.JobView; pair such jobs with a floor-respecting
// scheduler (sched.WithFloors).
type FloorRuntime interface {
	RuntimeJob
	Floor(c dag.Category) int
}

// graphSource adapts a *dag.Graph to JobSource.
type graphSource struct {
	g *dag.Graph
}

// GraphSource wraps a K-DAG as a JobSource. JobSpec.Graph does this
// implicitly; the explicit form exists for mixed-source job sets.
func GraphSource(g *dag.Graph) JobSource { return graphSource{g} }

func (s graphSource) Name() string          { return s.g.Name() }
func (s graphSource) K() int                { return s.g.K() }
func (s graphSource) WorkVector() []int     { return s.g.WorkVector() }
func (s graphSource) Span() int             { return s.g.Span() }
func (s graphSource) TotalTasks() int       { return s.g.NumTasks() }
func (s graphSource) Family() RuntimeFamily { return FamilyDAG }

func (s graphSource) NewRuntime(pick dag.PickPolicy, seed int64) RuntimeJob {
	return &graphRuntime{inst: dag.NewInstance(s.g, pick, seed)}
}

// graphRuntime adapts *dag.Instance to TaskRuntime.
type graphRuntime struct {
	inst *dag.Instance
}

func (r *graphRuntime) Desire(c dag.Category) int { return r.inst.Desire(c) }
func (r *graphRuntime) Execute(c dag.Category, n int) int {
	return r.inst.ExecuteCount(c, n)
}
func (r *graphRuntime) ExecuteTasks(c dag.Category, n int) []dag.TaskID {
	return r.inst.Execute(c, n)
}
func (r *graphRuntime) Advance()             { r.inst.Advance() }
func (r *graphRuntime) Done() bool           { return r.inst.Done() }
func (r *graphRuntime) RemainingWork() []int { return r.inst.RemainingWork() }
func (r *graphRuntime) RemainingSpan() int   { return r.inst.RemainingSpan() }

// LeapTasks implements LeapRuntime: each category's window total drains in
// one ExecuteLeap call, then the single deferred Advance consumes the
// completed tasks' out-edges. The engine only leaps a DAG runtime inside
// the promotion-free window StableFor vouched for, so that Advance
// promotes nothing and the state matches per-step execution exactly.
func (r *graphRuntime) LeapTasks(total []int) {
	for a, n := range total {
		if n > 0 {
			r.inst.ExecuteLeap(dag.Category(a+1), n)
		}
	}
	r.inst.Advance()
}

// StableFor implements StableRuntime via the instance's frontier-level
// lookahead.
func (r *graphRuntime) StableFor(perStep []int) int64 { return r.inst.StableFor(perStep) }

var (
	_ JobSource     = graphSource{}
	_ FamilySource  = graphSource{}
	_ TaskRuntime   = (*graphRuntime)(nil)
	_ StableRuntime = (*graphRuntime)(nil)
)
