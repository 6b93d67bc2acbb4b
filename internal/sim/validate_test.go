package sim_test

import (
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/sched"
	"krad/internal/sim"
)

// An external test package: the job that pins a processor is a moldable
// one, and moldable imports sim.

// floorStarver is a scheduler that knows nothing of floors: it serves job 0
// at step 1 only and every other job always, so once job 0's multi-step
// task is in flight it passes the job that pins a processor over. It
// records the capacity it is handed each step.
type floorStarver struct{ caps []int }

func (*floorStarver) Name() string { return "floor-starver" }
func (f *floorStarver) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	f.caps = append(f.caps, caps[0])
	out := make([][]int, len(jobs))
	for i, j := range jobs {
		out[i] = make([]int, len(caps))
		if j.ID != 0 || t == 1 {
			out[i][0] = 1
		}
	}
	return out
}

// pinnedSpecs is job 0, whose one task runs three steps on one processor —
// started at step 1, it pins that processor at steps 2 and 3 — beside two
// unit-task chains.
func pinnedSpecs(t *testing.T) []sim.JobSpec {
	t.Helper()
	g := dag.Singleton(1, 1)
	g.SetDuration(0, 3)
	pinned, err := moldable.FromTimedGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return []sim.JobSpec{
		{Source: pinned},
		{Graph: dag.UniformChain(1, 5, 1)},
		{Graph: dag.UniformChain(1, 5, 1)},
	}
}

// TestEngineGrantsFloors: a job whose started task pins a processor keeps
// it every step under schedulers that know nothing of floors — a dense one
// that passes the job over, and K-RAD, whose round-robin would — and the
// scheduler is handed only the capacity the floor leaves.
func TestEngineGrantsFloors(t *testing.T) {
	starver := &floorStarver{}
	for _, tc := range []struct {
		name string
		caps int
		s    sched.Scheduler
	}{
		{"dense scheduler", 3, starver},
		{"k-rad round-robin", 1, core.NewKRAD(1)},
	} {
		held := 0
		observe := func(step int64, jobs []sched.JobView, allot [][]int) {
			for i, j := range jobs {
				if j.Floor == nil {
					continue
				}
				held++
				if allot[i][0] != j.Floor[0] {
					t.Errorf("%s: step %d: job %d pins %d, allotted %d", tc.name, step, j.ID, j.Floor[0], allot[i][0])
				}
			}
		}
		cfg := sim.Config{K: 1, Caps: []int{tc.caps}, Scheduler: tc.s, ValidateAllotments: true, Observer: observe}
		res, err := sim.Run(cfg, pinnedSpecs(t))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Started at step 1, the task pins its processor at steps 2 and 3.
		if held != 2 || res.Jobs[0].Completion != 3 {
			t.Errorf("%s: the floor was granted %d times and the job completed at step %d; want 2 and step 3", tc.name, held, res.Jobs[0].Completion)
		}
	}
	if len(starver.caps) < 3 || starver.caps[1] != 2 || starver.caps[2] != 2 {
		t.Errorf("the dense scheduler was handed capacities %v; want 2 at steps 2 and 3", starver.caps)
	}
}

// TestValidateAllotmentsNamesStarvedFloor: the engine hands the validator
// only the rows a round touched, so a job that pins processors must be among
// them even when its scheduler granted it nothing. An observer that zeroes
// the pinned job's row after the grants stands in for an engine that dropped
// the floor, and validation must name it.
func TestValidateAllotmentsNamesStarvedFloor(t *testing.T) {
	namesStarvedFloor(t, 3, &floorStarver{})
}

// TestValidateAllotmentsNamesStarvedFloorOnDeltaPath: the same under K-RAD,
// whose grants reach the engine through its own delta form rather than the
// dense adapter, and whose round-robin passes the pinned job over.
func TestValidateAllotmentsNamesStarvedFloorOnDeltaPath(t *testing.T) {
	namesStarvedFloor(t, 1, core.NewKRAD(1))
}

func namesStarvedFloor(t *testing.T, caps int, s sched.Scheduler) {
	t.Helper()
	starve := func(_ int64, jobs []sched.JobView, allot [][]int) {
		for i, j := range jobs {
			if j.Floor != nil {
				clear(allot[i])
			}
		}
	}
	cfg := sim.Config{K: 1, Caps: []int{caps}, Scheduler: s, ValidateAllotments: true, Observer: starve}
	_, err := sim.Run(cfg, pinnedSpecs(t))
	if err == nil || !strings.Contains(err.Error(), "job 0 category 1 allotment 0 below non-preemptive floor 1") {
		t.Errorf("starved floor not caught: %v", err)
	}
}

// TestEngineRefusesFloorsAboveCapacity: floors that pin more processors
// than a category has — here two external runtimes that report a floor
// before any grant, on a one-processor machine — fail the round with an
// error that names the category, where the engine used to panic. (An
// over-granting scheduler can no longer pin them: the engine's validation
// refuses the over-grant itself first.)
func TestEngineRefusesFloorsAboveCapacity(t *testing.T) {
	specs := []sim.JobSpec{{Source: &pinJob{left: 5, started: true}}, {Source: &pinJob{left: 5, started: true}}}
	eng := admitAll(t, sim.Config{K: 1, Caps: []int{1}, Scheduler: core.NewKRAD(1)}, specs)
	_, err := eng.Step()
	if err == nil || !strings.Contains(err.Error(), "category 1 floors pin 2 processors, capacity 1") {
		t.Errorf("floors above capacity: %v", err)
	}
}
