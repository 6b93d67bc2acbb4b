package dag

import "fmt"

// Durations: the paper's model has unit-time tasks. Real tasks run for
// many steps, and two deployment interpretations exist:
//
//   - preemptive (a task's progress can pause and resume each step):
//     exactly equivalent to Stretch — replace the task with a chain — so
//     it needs no new machinery;
//   - non-preemptive (a started task holds its processor for its whole
//     duration): the scheduler loses per-step reallocation freedom. This
//     file adds optional per-task durations to Graph; such a graph runs
//     as a moldable job whose tasks take at most one processor
//     (moldable.FromTimedGraph), which exposes in-flight tasks as
//     allotment floors (see sched.WithFloors); experiment E16 measures
//     the cost.
//
// A Graph without SetDuration calls behaves exactly as before.

// SetDuration declares that task id needs d ≥ 1 processor-steps. Tasks
// default to duration 1.
func (g *Graph) SetDuration(id TaskID, d int) {
	if err := g.checkID(id); err != nil {
		panic(err)
	}
	if d < 1 {
		panic(fmt.Sprintf("dag: SetDuration(%d, %d): durations must be ≥ 1", id, d))
	}
	if g.durs == nil {
		g.durs = make([]int32, len(g.cats))
		for i := range g.durs {
			g.durs[i] = 1
		}
	}
	// Tasks added after an earlier SetDuration call default to 1.
	for len(g.durs) < len(g.cats) {
		g.durs = append(g.durs, 1)
	}
	g.durs[id] = int32(d)
}

// Duration returns task id's duration (1 unless SetDuration was called).
func (g *Graph) Duration(id TaskID) int {
	if g.durs == nil || int(id) >= len(g.durs) {
		return 1
	}
	return int(g.durs[id])
}

// ExpandDurations converts a duration-annotated graph into its unit-task
// equivalent under PREEMPTIVE semantics: each task of duration d becomes a
// chain of d unit tasks (like Stretch, but honoring per-task durations).
// Scheduling the expansion with ordinary K-RAD models tasks whose progress
// can be paused and resumed; contrast with moldable.FromTimedGraph, which
// models non-preemptive execution of the same graph.
func ExpandDurations(g *Graph) *Graph {
	out := New(g.k).Named(g.name + "-expanded")
	heads := make([]TaskID, g.NumTasks())
	tails := make([]TaskID, g.NumTasks())
	for id := 0; id < g.NumTasks(); id++ {
		c := g.cats[id]
		d := g.Duration(TaskID(id))
		head := out.AddTask(c)
		tail := head
		for i := 1; i < d; i++ {
			next := out.AddTask(c)
			out.MustEdge(tail, next)
			tail = next
		}
		heads[id] = head
		tails[id] = tail
	}
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range g.succ[u] {
			out.MustEdge(tails[u], heads[v])
		}
	}
	return out
}
