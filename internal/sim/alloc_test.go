package sim_test

import (
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sim"
)

// TestEngineStepAllocsZero pins the engine's steady-state scheduling round
// at zero allocations: profile jobs mid-run, K-RAD, no tracing — the
// configuration long online simulations and the kradd service run in, the
// latter with allotment validation on. Any regression here multiplies across
// millions of steps.
func TestEngineStepAllocsZero(t *testing.T) {
	const k = 3
	phases := []profile.Phase{{Tasks: []int{1 << 28, 1 << 28, 1 << 28}}}
	var specs []sim.JobSpec
	for j := 0; j < 16; j++ {
		specs = append(specs, sim.JobSpec{Source: profile.MustNew(k, "p", phases)})
	}
	for _, validate := range []bool{false, true} {
		eng, err := sim.NewEngine(sim.Config{
			K: k, Caps: []int{13, 7, 5}, Scheduler: core.NewKRAD(k),
			Pick: dag.PickFIFO, MaxSteps: 1 << 40, ValidateAllotments: validate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AdmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		// Warm every reused buffer (views, desire backing, allot matrix, RAD
		// scratch) past its steady-state capacity.
		for i := 0; i < 8; i++ {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("steady-state Engine.Step (ValidateAllotments %v) allocates %.1f per call; want 0", validate, avg)
		}
	}
}

// dagAllocSpecs builds dense-layered barrier jobs wide enough that the
// alloc measurements below stay inside one level: no promotions, no
// completions, just the steady-state frontier drain.
func dagAllocSpecs(jobs, width int) []sim.JobSpec {
	specs := make([]sim.JobSpec, 0, jobs)
	for j := 0; j < jobs; j++ {
		g := dag.New(2)
		var join dag.TaskID
		for l := 0; l < 2; l++ {
			wide := g.AddTasks(dag.Category(1+(l+j)%2), width)
			if l > 0 {
				for _, v := range wide {
					g.MustEdge(join, v)
				}
			}
			join = g.AddTasks(dag.Category(1+(l+j+1)%2), 1)[0]
			for _, u := range wide {
				g.MustEdge(u, join)
			}
		}
		specs = append(specs, sim.JobSpec{Graph: g})
	}
	return specs
}

// TestDAGEngineStepAllocsZero pins the DAG single-step hot path — Desire,
// ExecuteCount (take), Advance — at zero steady-state allocations, the
// DAG analogue of TestEngineStepAllocsZero. kradd runs exactly this shape:
// graph jobs, K-RAD, no tracing.
func TestDAGEngineStepAllocsZero(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{
		K: 2, Caps: []int{8, 8}, Scheduler: core.NewKRAD(2),
		Pick: dag.PickFIFO, MaxSteps: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AdmitBatch(dagAllocSpecs(4, 8192)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state DAG Engine.Step allocates %.1f per call; want 0", avg)
	}
}

// TestDAGEngineStepNLeapAllocsZero pins the DAG event-leap round — the
// StableFor frontier scan, the closed-form LeapTotals, ExecuteLeap's bulk
// take and the single deferred Advance — at zero steady-state allocations.
func TestDAGEngineStepNLeapAllocsZero(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{
		K: 2, Caps: []int{8, 8}, Scheduler: core.NewKRAD(2),
		Pick: dag.PickFIFO, MaxSteps: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AdmitBatch(dagAllocSpecs(4, 1<<15)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.StepN(64); err != nil {
			t.Fatal(err)
		}
	}
	var leaps int64
	if avg := testing.AllocsPerRun(100, func() {
		info, err := eng.StepN(64)
		if err != nil {
			t.Fatal(err)
		}
		leaps += info.LeapSteps
	}); avg != 0 {
		t.Fatalf("steady-state DAG Engine.StepN allocates %.1f per call; want 0", avg)
	}
	if leaps == 0 {
		t.Fatal("StepN(64) rounds never leaped on the dense-layered DAG; the test is not exercising the leap path")
	}
}

// TestEngineStepNLeapAllocsZero pins the event-leap round itself at zero
// steady-state allocations: each StepN call below covers many steps via
// LeapTotals, and must not allocate while doing so.
func TestEngineStepNLeapAllocsZero(t *testing.T) {
	const k = 2
	phases := []profile.Phase{{Tasks: []int{1 << 29, 1 << 29}}}
	var specs []sim.JobSpec
	for j := 0; j < 9; j++ {
		specs = append(specs, sim.JobSpec{Source: profile.MustNew(k, "p", phases)})
	}
	eng, err := sim.NewEngine(sim.Config{
		K: k, Caps: []int{16, 11}, Scheduler: core.NewKRAD(k),
		Pick: dag.PickFIFO, MaxSteps: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AdmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.StepN(64); err != nil {
			t.Fatal(err)
		}
	}
	var leaps int64
	if avg := testing.AllocsPerRun(100, func() {
		info, err := eng.StepN(64)
		if err != nil {
			t.Fatal(err)
		}
		leaps += info.LeapSteps
	}); avg != 0 {
		t.Fatalf("steady-state Engine.StepN allocates %.1f per call; want 0", avg)
	}
	if leaps == 0 {
		t.Fatal("StepN(64) rounds never leaped; the test is not exercising the leap path")
	}
}
