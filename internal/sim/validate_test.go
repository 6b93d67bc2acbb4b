package sim_test

import (
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/sched"
	"krad/internal/sim"
)

// An external test package: the job that pins a processor is a moldable
// one, and moldable imports sim.

// floorStarver is a broken scheduler that serves job 0 at step 1 only and
// every other job always — so once job 0's multi-step task is in flight,
// the job that pins a processor is handed a row of zeros.
type floorStarver struct{}

func (floorStarver) Name() string { return "floor-starver" }
func (floorStarver) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	out := make([][]int, len(jobs))
	for i, j := range jobs {
		out[i] = make([]int, len(caps))
		if j.ID != 0 || t == 1 {
			out[i][0] = 1
		}
	}
	return out
}

// TestValidateAllotmentsNamesStarvedFloor: the engine executes, and hands
// the validator, only the rows a round wrote — but a job that pins
// processors and was passed over must still be named.
func TestValidateAllotmentsNamesStarvedFloor(t *testing.T) {
	g := dag.Singleton(1, 1)
	g.SetDuration(0, 3)
	pinned, err := moldable.FromTimedGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	specs := []sim.JobSpec{
		{Source: pinned},
		{Graph: dag.UniformChain(1, 5, 1)},
		{Graph: dag.UniformChain(1, 5, 1)},
	}
	cfg := sim.Config{K: 1, Caps: []int{3}, Scheduler: floorStarver{}, ValidateAllotments: true}
	_, err = sim.Run(cfg, specs)
	if err == nil || !strings.Contains(err.Error(), "job 0 category 1 allotment 0 below non-preemptive floor 1") {
		t.Errorf("starved floor not caught: %v", err)
	}
}
