// Package profile implements the compact parallelism-profile job
// representation used throughout the DEQ/round-robin literature (McCann,
// Vaswani, Zahorjan; Edmonds et al.): a job is a sequence of phases, each
// holding a count of identical, mutually independent unit tasks per
// category, with a full barrier between phases. A profile job is
// semantically identical to a dense Layered K-DAG (dag.Layered with
// dense=true) — the equivalence is tested — but stores O(phases·K) state
// instead of O(tasks), so simulations with millions of tasks stay cheap.
//
// Profile jobs plug into the engine through sim.JobSource. They cannot
// report individual task IDs, so TraceTasks-level recording requires
// DAG-backed jobs instead.
package profile

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/sim"
)

// Phase is one barrier-delimited stage: Tasks[α−1] unit tasks of category
// α, all independent, all of which must finish before the next phase
// starts.
type Phase struct {
	Tasks []int
}

// total returns the phase's task count.
func (p Phase) total() int {
	n := 0
	for _, v := range p.Tasks {
		n += v
	}
	return n
}

// Job is an immutable profile-job description.
type Job struct {
	name   string
	k      int
	phases []Phase
	work   []int
}

// New builds a profile job for k categories. Every phase must have
// category counts shaped [k] with non-negative entries and at least one
// task (an empty phase would make the span ill-defined).
func New(k int, name string, phases []Phase) (*Job, error) {
	if k < 1 {
		return nil, fmt.Errorf("profile: k=%d, need ≥ 1", k)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("profile: job %q has no phases", name)
	}
	work := make([]int, k)
	for i, ph := range phases {
		if len(ph.Tasks) != k {
			return nil, fmt.Errorf("profile: job %q phase %d has %d categories, want %d", name, i, len(ph.Tasks), k)
		}
		tot := 0
		for a, v := range ph.Tasks {
			if v < 0 {
				return nil, fmt.Errorf("profile: job %q phase %d category %d has negative count %d", name, i, a+1, v)
			}
			work[a] += v
			tot += v
		}
		if tot == 0 {
			return nil, fmt.Errorf("profile: job %q phase %d is empty", name, i)
		}
	}
	cp := make([]Phase, len(phases))
	for i, ph := range phases {
		cp[i] = Phase{Tasks: append([]int(nil), ph.Tasks...)}
	}
	return &Job{name: name, k: k, phases: cp, work: work}, nil
}

// MustNew is New panicking on error, for literals in tests and examples.
func MustNew(k int, name string, phases []Phase) *Job {
	j, err := New(k, name, phases)
	if err != nil {
		panic(err)
	}
	return j
}

// Name implements sim.JobSource.
func (j *Job) Name() string { return j.name }

// Family implements sim.FamilySource.
func (j *Job) Family() sim.RuntimeFamily { return sim.FamilyProfile }

// K implements sim.JobSource.
func (j *Job) K() int { return j.k }

// WorkVector implements sim.JobSource.
func (j *Job) WorkVector() []int { return append([]int(nil), j.work...) }

// AppendWork implements sim.WorkAppender.
func (j *Job) AppendWork(dst []int) []int { return append(dst, j.work...) }

// Span implements sim.JobSource: each phase contributes exactly one level
// to the critical path, so T∞ equals the phase count.
func (j *Job) Span() int { return len(j.phases) }

// TotalTasks implements sim.JobSource.
func (j *Job) TotalTasks() int {
	n := 0
	for _, w := range j.work {
		n += w
	}
	return n
}

// Phases returns the number of phases.
func (j *Job) Phases() int { return len(j.phases) }

// PhaseTasks returns a deep copy of the per-phase per-category task
// counts (row = phase, column = category α−1).
func (j *Job) PhaseTasks() [][]int {
	out := make([][]int, len(j.phases))
	for i, ph := range j.phases {
		out[i] = append([]int(nil), ph.Tasks...)
	}
	return out
}

// ToGraph expands the profile into its equivalent dense Layered K-DAG —
// used by the equivalence tests and by anyone needing task-level traces of
// a profile workload. Task counts explode for big profiles; intended for
// small jobs.
func (j *Job) ToGraph() *dag.Graph {
	g := dag.New(j.k).Named(j.name + "-expanded")
	var prev []dag.TaskID
	for _, ph := range j.phases {
		var cur []dag.TaskID
		for a, count := range ph.Tasks {
			cur = append(cur, g.AddTasks(dag.Category(a+1), count)...)
		}
		for _, u := range prev {
			for _, v := range cur {
				g.MustEdge(u, v)
			}
		}
		prev = cur
	}
	return g
}

// NewRuntime implements sim.JobSource. pick and seed are ignored: tasks
// within a phase are indistinguishable, so there is nothing for a pick
// policy to choose between.
func (j *Job) NewRuntime(pick dag.PickPolicy, seed int64) sim.RuntimeJob {
	rem := make([]int, j.k)
	copy(rem, j.phases[0].Tasks)
	return &runtime{job: j, phase: 0, remaining: rem, ran: make([]int, j.k)}
}

// ReuseRuntime implements sim.RuntimeReuser: a general profile runtime of
// the same category count resets in place.
func (j *Job) ReuseRuntime(rt sim.RuntimeJob, pick dag.PickPolicy, seed int64) (sim.RuntimeJob, bool) {
	r, ok := rt.(*runtime)
	if !ok || len(r.remaining) != j.k {
		return nil, false
	}
	r.job = j
	r.phase = 0
	copy(r.remaining, j.phases[0].Tasks)
	for a := range r.ran {
		r.ran[a] = 0
	}
	r.executed = 0
	r.advanced = false
	return r, true
}

// runtime executes a profile job: remaining counts for the current phase,
// with completions buffered until Advance (unit-time semantics).
type runtime struct {
	job   *Job
	phase int
	// remaining[α−1] counts the current phase's unexecuted, unstarted
	// tasks; ran buffers this step's executions until Advance.
	remaining []int
	ran       []int
	executed  int
	advanced  bool // true once phase < len(phases) is exhausted and moved
}

// Desire implements sim.RuntimeJob: the instantaneous α-parallelism is the
// remaining α-count of the current phase (independent tasks).
func (r *runtime) Desire(c dag.Category) int {
	if c < 1 || int(c) > r.job.k {
		return 0
	}
	return r.remaining[c-1]
}

// Execute implements sim.RuntimeJob.
func (r *runtime) Execute(c dag.Category, n int) int {
	if n <= 0 || c < 1 || int(c) > r.job.k {
		return 0
	}
	a := int(c) - 1
	if n > r.remaining[a] {
		n = r.remaining[a]
	}
	r.remaining[a] -= n
	r.ran[a] += n
	r.executed += n
	return n
}

// Advance implements sim.RuntimeJob: if the phase is exhausted, the next
// phase's tasks become ready at the next step (the barrier).
func (r *runtime) Advance() {
	any := false
	for a := range r.ran {
		if r.ran[a] != 0 {
			any = true
			r.ran[a] = 0
		}
	}
	if !any {
		return
	}
	exhausted := true
	for _, v := range r.remaining {
		if v != 0 {
			exhausted = false
			break
		}
	}
	if exhausted && r.phase+1 < len(r.job.phases) {
		r.phase++
		copy(r.remaining, r.job.phases[r.phase].Tasks)
	}
}

// LeapTasks implements sim.LeapRuntime: several consecutive steps that
// together executed total[α−1] α-tasks collapse to one subtraction per
// category. The engine guarantees no phase boundary is crossed (remaining
// stays positive wherever total is), so the intermediate Advance calls
// would have been no-ops beyond clearing the per-step ran counters —
// which stay zero here, exactly as the single steps would leave them.
func (r *runtime) LeapTasks(total []int) {
	for a, v := range total {
		if v == 0 {
			continue
		}
		r.remaining[a] -= v
		r.executed += v
	}
}

// Park implements sim.ReusableRuntime.
func (r *runtime) Park() { r.job = nil }

// Done implements sim.RuntimeJob.
func (r *runtime) Done() bool { return r.executed == r.job.TotalTasks() }

// RemainingSpan returns T∞ of the job's unexecuted portion: the number of
// phases that still hold unexecuted tasks. Valid at step boundaries (after
// Advance).
func (r *runtime) RemainingSpan() int {
	if r.Done() {
		return 0
	}
	return len(r.job.phases) - r.phase
}

// RemainingWork implements sim.RuntimeJob.
func (r *runtime) RemainingWork() []int {
	out := append([]int(nil), r.remaining...)
	for p := r.phase + 1; p < len(r.job.phases); p++ {
		for a, v := range r.job.phases[p].Tasks {
			out[a] += v
		}
	}
	return out
}

var (
	_ sim.JobSource       = (*Job)(nil)
	_ sim.FamilySource    = (*Job)(nil)
	_ sim.WorkAppender    = (*Job)(nil)
	_ sim.RuntimeReuser   = (*Job)(nil)
	_ sim.LeapRuntime     = (*runtime)(nil)
	_ sim.ReusableRuntime = (*runtime)(nil)
)
