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
// precomputed here so Instance hot paths do no float math. The per-task
// tables are flat: FromSpec makes the same few allocations however many
// tasks and edges the job has.
type Job struct {
	spec Spec
	name string
	k    int
	// One []int holds, per task, cats (the category) and works (the serial
	// work); then durAt; then work, per category: Σ serial work.
	cats, works, durAt, work []int
	// durs holds every task's duration table: task v on p processors, for
	// p in 1..Useful(v), takes durs[durAt[v]+p-1] = ceil(works[v] / s(p))
	// steps. durAt is the prefix sum of the molding caps, with n+1 entries.
	durs []int32
	// One []int32 holds the rest, per task. optDur[v] = ceil(works[v] /
	// s(Max)) is the fastest any valid execution can run the task, which
	// is what makes Span a true lower bound. heights[v] is the optimistic
	// critical-path length from v inclusive to a sink, in optDur units (CP
	// pick policies sort by it). npred[v] counts v's edges in, and v's
	// successors are adj[off[v]:off[v+1]] in edge order, a duplicate edge
	// once per copy.
	optDur, heights, npred, off []int32
	adj                         []int32
	span                        int
	total                       int
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
	n := len(s.Tasks)
	ints := make([]int, 3*n+1+s.K)
	mem := make([]int32, 4*n+1)
	j := &Job{
		name:    s.Name,
		k:       s.K,
		cats:    ints[:n:n],
		works:   ints[n : 2*n : 2*n],
		durAt:   ints[2*n : 3*n+1 : 3*n+1],
		work:    ints[3*n+1:],
		optDur:  mem[:n:n],
		heights: mem[n : 2*n : 2*n],
		npred:   mem[2*n : 3*n : 3*n],
		off:     mem[3*n:],
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
		if err := ts.Curve.validate(); err != nil {
			return nil, fmt.Errorf("moldable: task %d: curve: %w", v, err)
		}
		if err := checkCurve(ts.Curve, ts.Max); err != nil {
			return nil, fmt.Errorf("moldable: task %d: curve: %w", v, err)
		}
		j.cats[v] = ts.Cat
		j.works[v] = ts.Work
		j.durAt[v+1] = j.durAt[v] + usefulProcs(ts.Curve, ts.Max)
		j.optDur[v] = int32(steps(ts.Work, ts.Curve, ts.Max))
		j.work[ts.Cat-1] += ts.Work
		j.total += ts.Work
	}
	j.durs = make([]int32, j.durAt[n])
	for v, ts := range s.Tasks {
		tab := j.durs[j.durAt[v]:j.durAt[v+1]]
		for p := range tab {
			tab[p] = int32(steps(ts.Work, ts.Curve, p+1))
		}
	}
	// Out-degrees into the offsets, shifted by one, then their prefix sums;
	// the successors are placed in edge order behind cursors that start at
	// each task's offset.
	for i, e := range s.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("moldable: edge %d: endpoints [%d, %d] out of range 0..%d", i, u, v, n-1)
		}
		if u == v {
			return nil, fmt.Errorf("moldable: edge %d: self-loop on task %d", i, u)
		}
		j.off[u+1]++
		j.npred[v]++
	}
	for u := range n {
		j.off[u+1] += j.off[u]
	}
	j.adj = make([]int32, len(s.Edges))
	next := make([]int32, 2*n) // the cursors, then computeHeights' scratch
	copy(next, j.off[:n])
	for _, e := range s.Edges {
		j.adj[next[e[0]]] = int32(e[1])
		next[e[0]]++
	}
	if err := j.computeHeights(next); err != nil {
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
// path faster than its optDur sum. scratch holds 2n values.
func (j *Job) computeHeights(scratch []int32) error {
	n := len(j.cats)
	indeg, order := scratch[:n], scratch[n:n]
	copy(indeg, j.npred)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, v := range j.successors(u) {
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
		for _, w := range j.successors(v) {
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

// successors returns task v's successors, in edge order.
func (j *Job) successors(v int32) []int32 { return j.adj[j.off[v]:j.off[v+1]] }

// dur returns task v's duration on p processors, 1 ≤ p ≤ Useful(v).
func (j *Job) dur(v int32, p int) int32 { return j.durs[j.durAt[v]+p-1] }

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
func (j *Job) Useful(v int) int { return j.durAt[v+1] - j.durAt[v] }

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

// ReuseRuntime implements sim.RuntimeReuser: any moldable runtime resets
// in place, whatever job it previously ran.
func (j *Job) ReuseRuntime(rt sim.RuntimeJob, pick dag.PickPolicy, seed int64) (sim.RuntimeJob, bool) {
	in, ok := rt.(*Instance)
	if !ok {
		return nil, false
	}
	return in.Reset(j, pick, seed), true
}

var (
	_ sim.WorkAppender  = (*Job)(nil)
	_ sim.RuntimeReuser = (*Job)(nil)
)
