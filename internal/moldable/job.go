package moldable

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/sim"
)

// maxTaskProcs bounds a task's declared processor maximum. The per-task
// duration table is precomputed up to the molding cap, so an absurd
// maximum must not translate into an absurd allocation.
const maxTaskProcs = 1 << 16

// TaskSpec is one moldable task on the wire: its processor category,
// serial work (steps on one processor), the most processors it can use,
// and its speedup curve.
type TaskSpec struct {
	Cat   int       `json:"cat"`
	Work  int       `json:"work"`
	Max   int       `json:"max"`
	Curve CurveSpec `json:"curve"`
}

// Spec is the wire form of a moldable job: the JSON body kradd accepts,
// the payload the journal replays, and the only way to construct a Job —
// one canonical, fully validated path for every entry point. Edges are
// precedence pairs [from, to] over task indices.
type Spec struct {
	K     int        `json:"k"`
	Name  string     `json:"name,omitempty"`
	Tasks []TaskSpec `json:"tasks"`
	Edges [][2]int   `json:"edges,omitempty"`
}

// Job is a validated moldable job: tasks under precedence, each with a
// concave speedup curve. It implements sim.JobSource; every derived
// quantity (duration tables, molding caps, critical-path heights) is
// precomputed here so Instance hot paths do no float math.
type Job struct {
	spec  Spec
	name  string
	k     int
	cats  []dag.Category // per task
	works []int          // per task: serial work
	// useful[v] is the molding cap: the largest allotment the ½-efficiency
	// policy will start task v on (see usefulProcs).
	useful []int
	// dur[v][p-1] = ceil(works[v] / s(p)) for p in 1..useful[v].
	dur [][]int32
	// optDur[v] = ceil(works[v] / s(Max)): the fastest any valid execution
	// can run the task, which is what makes Span a true lower bound.
	optDur []int32
	// heights[v] is the optimistic critical-path length from v inclusive
	// to a sink, in optDur units (CP pick policies sort by it).
	heights []int32
	succ    [][]int32
	npred   []int32
	work    []int // per category: Σ serial work
	span    int
	total   int
}

// FromSpec validates s and builds the Job. Errors locate the offending
// task or edge by index, so API callers can return them verbatim.
func FromSpec(s Spec) (*Job, error) {
	if s.K < 1 {
		return nil, fmt.Errorf("moldable: k = %d, need ≥ 1", s.K)
	}
	if len(s.Tasks) == 0 {
		return nil, fmt.Errorf("moldable: job has no tasks")
	}
	j := &Job{
		name:    s.Name,
		k:       s.K,
		cats:    make([]dag.Category, len(s.Tasks)),
		works:   make([]int, len(s.Tasks)),
		useful:  make([]int, len(s.Tasks)),
		dur:     make([][]int32, len(s.Tasks)),
		optDur:  make([]int32, len(s.Tasks)),
		heights: make([]int32, len(s.Tasks)),
		succ:    make([][]int32, len(s.Tasks)),
		npred:   make([]int32, len(s.Tasks)),
		work:    make([]int, s.K),
	}
	for v, ts := range s.Tasks {
		if ts.Cat < 1 || ts.Cat > s.K {
			return nil, fmt.Errorf("moldable: task %d: category %d out of range 1..%d", v, ts.Cat, s.K)
		}
		if ts.Work < 1 {
			return nil, fmt.Errorf("moldable: task %d: work %d, need ≥ 1", v, ts.Work)
		}
		if ts.Max < 1 {
			return nil, fmt.Errorf("moldable: task %d: max processors %d, need ≥ 1", v, ts.Max)
		}
		if ts.Max > maxTaskProcs {
			return nil, fmt.Errorf("moldable: task %d: max processors %d exceeds the %d limit", v, ts.Max, maxTaskProcs)
		}
		curve, err := ts.Curve.Curve()
		if err != nil {
			return nil, fmt.Errorf("moldable: task %d: curve: %w", v, err)
		}
		if err := CheckCurve(curve, ts.Max); err != nil {
			return nil, fmt.Errorf("moldable: task %d: curve: %w", v, err)
		}
		j.cats[v] = dag.Category(ts.Cat)
		j.works[v] = ts.Work
		j.useful[v] = usefulProcs(curve, ts.Max)
		tab := make([]int32, j.useful[v])
		for p := 1; p <= j.useful[v]; p++ {
			tab[p-1] = int32(steps(ts.Work, curve, p))
		}
		j.dur[v] = tab
		j.optDur[v] = int32(steps(ts.Work, curve, ts.Max))
		j.work[ts.Cat-1] += ts.Work
		j.total += ts.Work
	}
	for i, e := range s.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= len(s.Tasks) || v < 0 || v >= len(s.Tasks) {
			return nil, fmt.Errorf("moldable: edge %d: endpoints [%d, %d] out of range 0..%d", i, u, v, len(s.Tasks)-1)
		}
		if u == v {
			return nil, fmt.Errorf("moldable: edge %d: self-loop on task %d", i, u)
		}
		j.succ[u] = append(j.succ[u], int32(v))
		j.npred[v]++
	}
	if err := j.computeHeights(); err != nil {
		return nil, err
	}
	j.spec = cloneSpec(s)
	return j, nil
}

// FromTimedGraph expresses a duration-annotated K-DAG as a moldable job:
// a task that holds one processor for d steps is the model's Max = 1
// point (serial work d on the linear curve), so non-preemptive execution
// of g — desire = pinned + ready, the floor, pick order, ID-ordered
// release, held-phase leaping — is Instance's. The job is named
// g.Name()+"-timed"; work and span are duration-weighted.
func FromTimedGraph(g *dag.Graph) (*Job, error) {
	s := Spec{K: g.K(), Name: g.Name() + "-timed", Tasks: make([]TaskSpec, g.NumTasks())}
	linear := CurveSpec{Type: CurvePowerLaw, Alpha: 1}
	for v := range s.Tasks {
		id := dag.TaskID(v)
		s.Tasks[v] = TaskSpec{Cat: int(g.Category(id)), Work: g.Duration(id), Max: 1, Curve: linear}
		for _, w := range g.Successors(id) {
			s.Edges = append(s.Edges, [2]int{v, int(w)})
		}
	}
	return FromSpec(s)
}

// computeHeights runs one Kahn pass to reject cycles and assigns each
// task its optimistic critical-path height (optDur-weighted longest path
// from the task, inclusive, to a sink). The job's Span is the maximum
// height — a true makespan lower bound, since no execution can run any
// path faster than its optDur sum.
func (j *Job) computeHeights() error {
	n := len(j.cats)
	indeg := make([]int32, n)
	copy(indeg, j.npred)
	order := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, v := range j.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("moldable: precedence edges form a cycle (%d of %d tasks unreachable from the sources)", n-len(order), n)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		h := int32(0)
		for _, w := range j.succ[v] {
			if j.heights[w] > h {
				h = j.heights[w]
			}
		}
		j.heights[v] = h + j.optDur[v]
		if int(j.heights[v]) > j.span {
			j.span = int(j.heights[v])
		}
	}
	return nil
}

// cloneSpec deep-copies a spec so Job.Spec never aliases caller slices.
func cloneSpec(s Spec) Spec {
	out := Spec{K: s.K, Name: s.Name}
	out.Tasks = append([]TaskSpec(nil), s.Tasks...)
	if s.Edges != nil {
		out.Edges = append([][2]int(nil), s.Edges...)
	}
	return out
}

// Spec returns the job's canonical wire form (a deep copy) — what the
// journal records and what reconstructs the identical Job on replay.
func (j *Job) Spec() Spec { return cloneSpec(j.spec) }

// NumTasks returns the task count.
func (j *Job) NumTasks() int { return len(j.cats) }

// Useful returns the molding policy's processor cap for task v: the most
// processors the ½-efficiency rule will start it on.
func (j *Job) Useful(v int) int { return j.useful[v] }

// Name implements sim.JobSource.
func (j *Job) Name() string {
	if j.name == "" {
		return "moldable"
	}
	return j.name
}

// K implements sim.JobSource.
func (j *Job) K() int { return j.k }

// WorkVector implements sim.JobSource: per-category serial work. Any
// execution of a task on p processors consumes p·ceil(w/s(p)) ≥ w
// processor-steps (s(p) ≤ p), so the serial work is a valid area lower
// bound for the metrics package.
func (j *Job) WorkVector() []int { return append([]int(nil), j.work...) }

// AppendWork implements sim.WorkAppender.
func (j *Job) AppendWork(dst []int) []int { return append(dst, j.work...) }

// Span implements sim.JobSource: the optDur-weighted critical path.
func (j *Job) Span() int { return j.span }

// TotalTasks implements sim.JobSource: total serial work, which is what
// the engine's runaway guard and throughput accounting need (each task
// runs at most its serial work in steps, since s is nondecreasing).
func (j *Job) TotalTasks() int { return j.total }

// Family implements sim.FamilySource.
func (j *Job) Family() sim.RuntimeFamily { return sim.FamilyMoldable }

// NewRuntime implements sim.JobSource.
func (j *Job) NewRuntime(pick dag.PickPolicy, seed int64) sim.RuntimeJob {
	return NewInstance(j, pick, seed)
}

var _ sim.WorkAppender = (*Job)(nil)
