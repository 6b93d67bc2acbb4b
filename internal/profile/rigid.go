package profile

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/sim"
	"krad/internal/wire"
)

// Rigid is the O(1) encoding of the classic rigid job from the SWF /
// supercomputing-log literature: procs processors of a single category held
// for steps unit time steps. It is semantically identical to the profile
// job with steps phases of procs cat-tasks each — the equivalence is
// tested — but stores five words regardless of size, which is what lets a
// load generator stream millions of trace jobs through the admission path.
//
// Rigid implements sim.JobSource and reports sim.FamilyProfile: it IS a
// profile job, just compactly encoded, so journal records, metrics and
// status JSON need no new family.
type Rigid struct {
	name  string
	k     int
	cat   dag.Category
	procs int
	steps int
}

// NewRigid builds a rigid job for k categories: procs unit tasks of
// category cat per step, for steps steps.
func NewRigid(k int, name string, cat dag.Category, procs, steps int) (*Rigid, error) {
	if k < 1 {
		return nil, fmt.Errorf("profile: k=%d, need ≥ 1", k)
	}
	if cat < 1 || int(cat) > k {
		return nil, fmt.Errorf("profile: rigid job %q category %d out of range 1..%d", name, cat, k)
	}
	if procs < 1 {
		return nil, fmt.Errorf("profile: rigid job %q needs ≥ 1 processor, got %d", name, procs)
	}
	if steps < 1 {
		return nil, fmt.Errorf("profile: rigid job %q needs ≥ 1 step, got %d", name, steps)
	}
	return &Rigid{name: name, k: k, cat: cat, procs: procs, steps: steps}, nil
}

// MustNewRigid is NewRigid panicking on error, for literals in tests.
func MustNewRigid(k int, name string, cat dag.Category, procs, steps int) *Rigid {
	j, err := NewRigid(k, name, cat, procs, steps)
	if err != nil {
		panic(err)
	}
	return j
}

// RigidSpec is the serializable form of a Rigid job, used by the journal
// and the HTTP wire format. FromRigidSpec(j.Spec()) reproduces j.
type RigidSpec struct {
	K     int    `json:"k"`
	Name  string `json:"name,omitempty"`
	Cat   int    `json:"cat"`
	Procs int    `json:"procs"`
	Steps int    `json:"steps"`
}

var rigidFields = []string{"k", "name", "cat", "procs", "steps"}

// ReadJSON decodes the spec at s into sp as encoding/json decoded the
// struct: a key present overwrites its field, an absent key or a null
// leaves it as it was.
func (sp *RigidSpec) ReadJSON(s *wire.Scanner) error {
	err := s.Object("rigid", func(key []byte) error {
		switch wire.Field(key, rigidFields) {
		case "k":
			return wire.ReadInt(s, "k", &sp.K)
		case "name":
			return wire.ReadString(s, "name", &sp.Name)
		case "cat":
			return wire.ReadInt(s, "cat", &sp.Cat)
		case "procs":
			return wire.ReadInt(s, "procs", &sp.Procs)
		case "steps":
			return wire.ReadInt(s, "steps", &sp.Steps)
		}
		return s.SkipValue()
	})
	if err != nil {
		return fmt.Errorf("profile: decode: %w", err)
	}
	return nil
}

// AppendJSON appends the spec's JSON encoding, the bytes encoding/json
// writes for the struct.
func (sp *RigidSpec) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"k":`...)
	dst = wire.AppendInt(dst, int64(sp.K))
	if sp.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = wire.AppendString(dst, sp.Name)
	}
	dst = append(dst, `,"cat":`...)
	dst = wire.AppendInt(dst, int64(sp.Cat))
	dst = append(dst, `,"procs":`...)
	dst = wire.AppendInt(dst, int64(sp.Procs))
	dst = append(dst, `,"steps":`...)
	dst = wire.AppendInt(dst, int64(sp.Steps))
	return append(dst, '}')
}

// Spec returns the job's serializable description.
func (j *Rigid) Spec() RigidSpec {
	return RigidSpec{K: j.k, Name: j.name, Cat: int(j.cat), Procs: j.procs, Steps: j.steps}
}

// FromRigidSpec validates sp and builds the job it describes.
func FromRigidSpec(sp RigidSpec) (*Rigid, error) {
	return NewRigid(sp.K, sp.Name, dag.Category(sp.Cat), sp.Procs, sp.Steps)
}

// Name implements sim.JobSource.
func (j *Rigid) Name() string { return j.name }

// Family implements sim.FamilySource.
func (j *Rigid) Family() sim.RuntimeFamily { return sim.FamilyProfile }

// K implements sim.JobSource.
func (j *Rigid) K() int { return j.k }

// Cat returns the single category the job occupies.
func (j *Rigid) Cat() dag.Category { return j.cat }

// Procs returns the per-step processor count.
func (j *Rigid) Procs() int { return j.procs }

// Steps returns the job's duration in unit steps.
func (j *Rigid) Steps() int { return j.steps }

// WorkVector implements sim.JobSource.
func (j *Rigid) WorkVector() []int {
	w := make([]int, j.k)
	w[j.cat-1] = j.procs * j.steps
	return w
}

// AppendWork implements sim.WorkAppender.
func (j *Rigid) AppendWork(dst []int) []int {
	for a := 1; a <= j.k; a++ {
		if dag.Category(a) == j.cat {
			dst = append(dst, j.procs*j.steps)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Span implements sim.JobSource.
func (j *Rigid) Span() int { return j.steps }

// TotalTasks implements sim.JobSource.
func (j *Rigid) TotalTasks() int { return j.procs * j.steps }

// Profile expands the rigid job into its equivalent general profile job
// (steps phases of procs cat-tasks). Used by the equivalence tests; big
// jobs allocate O(steps·K), so prefer Rigid itself elsewhere.
func (j *Rigid) Profile() *Job {
	tasks := make([]int, j.k)
	tasks[j.cat-1] = j.procs
	phases := make([]Phase, j.steps)
	for i := range phases {
		phases[i] = Phase{Tasks: tasks}
	}
	return MustNew(j.k, j.name, phases)
}

// NewRuntime implements sim.JobSource. pick and seed are ignored, as for
// general profile jobs: tasks within a step are indistinguishable.
func (j *Rigid) NewRuntime(pick dag.PickPolicy, seed int64) sim.RuntimeJob {
	return &rigidRuntime{job: j, remaining: j.procs}
}

// ReuseRuntime implements sim.RuntimeReuser: any rigid runtime resets in
// place, whatever job it previously ran.
func (j *Rigid) ReuseRuntime(rt sim.RuntimeJob, pick dag.PickPolicy, seed int64) (sim.RuntimeJob, bool) {
	r, ok := rt.(*rigidRuntime)
	if !ok {
		return nil, false
	}
	*r = rigidRuntime{job: j, remaining: j.procs}
	return r, true
}

// rigidRuntime executes a rigid job with exactly the semantics of the
// general profile runtime specialized to one category and identical
// phases: remaining counts the current step's unexecuted tasks, ran
// buffers this step's executions until Advance (the barrier).
type rigidRuntime struct {
	job       *Rigid
	phase     int
	remaining int
	ran       int
	executed  int
	// work is the lazily-built RemainingWork buffer (oracle-only path).
	work []int
}

// Desire implements sim.RuntimeJob.
func (r *rigidRuntime) Desire(c dag.Category) int {
	if c != r.job.cat {
		return 0
	}
	return r.remaining
}

// Execute implements sim.RuntimeJob.
func (r *rigidRuntime) Execute(c dag.Category, n int) int {
	if n <= 0 || c != r.job.cat {
		return 0
	}
	if n > r.remaining {
		n = r.remaining
	}
	r.remaining -= n
	r.ran += n
	r.executed += n
	return n
}

// Advance implements sim.RuntimeJob: when the step's tasks are exhausted,
// the next step's become ready (the barrier between identical phases).
func (r *rigidRuntime) Advance() {
	if r.ran == 0 {
		return
	}
	r.ran = 0
	if r.remaining == 0 && r.phase+1 < r.job.steps {
		r.phase++
		r.remaining = r.job.procs
	}
}

// LeapTasks implements sim.LeapRuntime, mirroring the general profile
// runtime: the engine guarantees no phase boundary is crossed, so the
// aggregate collapses to one subtraction.
func (r *rigidRuntime) LeapTasks(total []int) {
	v := total[r.job.cat-1]
	r.remaining -= v
	r.executed += v
}

// Park implements sim.ReusableRuntime.
func (r *rigidRuntime) Park() { r.job = nil }

// Done implements sim.RuntimeJob.
func (r *rigidRuntime) Done() bool { return r.executed == r.job.procs*r.job.steps }

// RemainingSpan mirrors the general profile runtime: phases that still hold
// unexecuted tasks. Valid at step boundaries.
func (r *rigidRuntime) RemainingSpan() int {
	if r.Done() {
		return 0
	}
	return r.job.steps - r.phase
}

// RemainingWork implements sim.RuntimeJob (clairvoyant-oracle only; the
// buffer is reused across calls).
func (r *rigidRuntime) RemainingWork() []int {
	if r.work == nil {
		r.work = make([]int, r.job.k)
	}
	for a := range r.work {
		r.work[a] = 0
	}
	r.work[r.job.cat-1] = r.job.procs*r.job.steps - r.executed
	return r.work
}

var (
	_ sim.JobSource       = (*Rigid)(nil)
	_ sim.FamilySource    = (*Rigid)(nil)
	_ sim.WorkAppender    = (*Rigid)(nil)
	_ sim.RuntimeReuser   = (*Rigid)(nil)
	_ sim.LeapRuntime     = (*rigidRuntime)(nil)
	_ sim.ReusableRuntime = (*rigidRuntime)(nil)
)
