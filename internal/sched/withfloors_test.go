package sched_test

import (
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/sched"
	"krad/internal/sim"
)

// An external test package: the floors are granted by the engine, and sim
// imports sched.

// greedy grants each job its desire in ID order until a category runs out,
// and records the capacity it is handed each step.
type greedy struct{ caps []int }

func (*greedy) Name() string { return "greedy" }
func (g *greedy) Allot(_ int64, jobs []sched.JobView, caps []int) [][]int {
	g.caps = append(g.caps, caps[0])
	left := caps[0]
	out := make([][]int, len(jobs))
	for i, j := range jobs {
		out[i] = make([]int, len(caps))
		out[i][0] = min(j.Desire[0], left)
		left -= out[i][0]
	}
	return out
}

// TestWithFloorsGrantsFloorsFirst: under the deprecated wrapper, a job whose
// three started tasks pin three of four processors keeps them, and the
// wrapped scheduler partitions only the one processor the floor leaves.
func TestWithFloorsGrantsFloorsFirst(t *testing.T) {
	g, err := dag.Parallel(dag.Singleton(1, 1), dag.Singleton(1, 1), dag.Singleton(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		g.SetDuration(dag.TaskID(v), 3)
	}
	pinned, err := moldable.FromTimedGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := dag.Parallel(dag.UniformChain(1, 4, 1), dag.UniformChain(1, 4, 1), dag.UniformChain(1, 4, 1), dag.UniformChain(1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	specs := []sim.JobSpec{{Source: pinned}, {Graph: wide}}
	held := 0
	observe := func(step int64, jobs []sched.JobView, allot [][]int) {
		for i, j := range jobs {
			if j.Floor == nil {
				continue
			}
			held++
			if allot[i][0] < j.Floor[0] {
				t.Errorf("step %d: floor %d not granted: %v", step, j.Floor[0], allot[i])
			}
		}
	}
	inner := &greedy{}
	cfg := sim.Config{K: 1, Caps: []int{4}, Scheduler: sched.WithFloors(inner), ValidateAllotments: true, Observer: observe}
	res, err := sim.Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Started at step 1, the tasks pin their processors at steps 2 and 3.
	if held != 2 || res.Jobs[0].Completion != 3 {
		t.Errorf("the floor was granted %d times and the job completed at step %d; want 2 and step 3", held, res.Jobs[0].Completion)
	}
	if len(inner.caps) < 3 || inner.caps[0] != 4 || inner.caps[1] != 1 || inner.caps[2] != 1 {
		t.Errorf("the wrapped scheduler was handed capacities %v; want 4, then 1 at steps 2 and 3", inner.caps)
	}
}
