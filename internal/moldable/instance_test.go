package moldable_test

import (
	"reflect"
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
)

// mustJob builds a job or fails the test.
func mustJob(t *testing.T, s moldable.Spec) *moldable.Job {
	t.Helper()
	j, err := moldable.FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestInstanceMoldsGreedily walks one hand-checked step: two independent
// linear tasks (work 8, useful 4) offered 6 processors — the first molds
// to its cap, the second squeezes into the leftover 2 slots and commits
// to the longer duration non-preemptively.
func TestInstanceMoldsGreedily(t *testing.T) {
	j := mustJob(t, moldable.Spec{K: 1, Tasks: []moldable.TaskSpec{
		{Cat: 1, Work: 8, Max: 4, Curve: pl(1)},
		{Cat: 1, Work: 8, Max: 4, Curve: pl(1)},
	}})
	in := moldable.NewInstance(j, dag.PickFIFO, 0)
	if got := in.Desire(1); got != 8 {
		t.Fatalf("initial Desire = %d, want 8 (two molding caps)", got)
	}
	if got := in.Floor(1); got != 0 {
		t.Fatalf("initial Floor = %d, want 0", got)
	}
	if used := in.Execute(1, 6); used != 6 {
		t.Fatalf("Execute(6) used %d, want 6", used)
	}
	in.Advance()
	// Task 0 runs on 4 procs for 2 steps (1 left), task 1 on 2 procs for
	// 4 steps (3 left): both pinned, nothing ready.
	if got := in.Floor(1); got != 6 {
		t.Fatalf("Floor after starts = %d, want 6", got)
	}
	if got := in.Desire(1); got != 6 {
		t.Fatalf("Desire after starts = %d, want 6 (pinned only)", got)
	}
	if got := in.RemainingWork(); got[0] != 4 {
		t.Fatalf("RemainingWork = %v, want [4] (1 + 3 lease steps)", got)
	}
	// Next step finishes task 0; its 4 processors come back at the
	// boundary, so this step still uses all 6.
	if used := in.Execute(1, 6); used != 6 {
		t.Fatalf("Execute used %d, want 6", used)
	}
	in.Advance()
	if got := in.Floor(1); got != 2 {
		t.Fatalf("Floor after first finish = %d, want 2", got)
	}
	for i := 0; i < 2; i++ {
		if in.Done() {
			t.Fatalf("Done after %d trailing steps, want 2", i)
		}
		in.Execute(1, 2)
		in.Advance()
	}
	if !in.Done() {
		t.Fatal("job not done after the last lease drained")
	}
}

// TestExecuteBelowFloorPanics pins the setup-bug guard: once a lease is in
// flight, offering fewer processors than the floor must panic with a
// message that names the engine's floor contract.
func TestExecuteBelowFloorPanics(t *testing.T) {
	j := mustJob(t, chainSpec(1, 1, 1, 16, 4))
	in := moldable.NewInstance(j, dag.PickFIFO, 0)
	in.Execute(1, 4) // start: 4 procs pinned for 4 steps
	in.Advance()
	for _, n := range []int{3, 0} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Execute(%d) below floor 4 did not panic", n)
				}
				if !strings.Contains(r.(string), "below floor") || !strings.Contains(r.(string), "grant every floor") {
					t.Fatalf("panic %q does not explain the floor contract", r)
				}
			}()
			in.Execute(1, n)
		}()
	}
}

// TestHoldWindow pins HoldFor's arithmetic on a single long lease: held
// windows must end two steps before the finish (a leap may never cross a
// completion), and any ready task cancels the hold.
func TestHoldWindow(t *testing.T) {
	j := mustJob(t, chainSpec(1, 1, 2, 64, 4)) // two chained tasks, 16 steps each
	in := moldable.NewInstance(j, dag.PickFIFO, 0)
	if got := in.HoldFor(); got != 0 {
		t.Fatalf("HoldFor with a ready task = %d, want 0", got)
	}
	in.Execute(1, 4)
	in.Advance()
	// Lease has 15 steps left: held for 13 more after the current one.
	if got := in.HoldFor(); got != 13 {
		t.Fatalf("HoldFor after start = %d, want 13", got)
	}
	in.Execute(1, 4)
	in.Advance()
	if got := in.HoldFor(); got != 12 {
		t.Fatalf("HoldFor one step later = %d, want 12", got)
	}
	// Drained instance: nothing in flight, nothing held.
	done := moldable.NewInstance(mustJob(t, chainSpec(1, 1, 1, 1, 1)), dag.PickFIFO, 0)
	done.Execute(1, 1)
	done.Advance()
	if got := done.HoldFor(); got != 0 {
		t.Fatalf("HoldFor on a finished instance = %d, want 0", got)
	}
}

// TestLeapHoldEquivalence is the hold-law contract: LeapHold(n) must leave
// the instance in exactly the state n rounds of Execute(floor)+Advance
// would — compared field by field via reflect on two instances of the
// same job.
func TestLeapHoldEquivalence(t *testing.T) {
	spec := moldable.Spec{K: 2, Name: "held", Tasks: []moldable.TaskSpec{
		{Cat: 1, Work: 120, Max: 4, Curve: pl(1)},   // 30 steps on 4
		{Cat: 2, Work: 90, Max: 16, Curve: pl(0.5)}, // useful 4: 45 steps
		{Cat: 1, Work: 40, Max: 2, Curve: moldable.CurveSpec{Type: moldable.CurveAmdahl, Serial: 0.2}},
	}, Edges: [][2]int{{0, 2}, {1, 2}}}
	j := mustJob(t, spec)
	leap := moldable.NewInstance(j, dag.PickFIFO, 0)
	step := moldable.NewInstance(j, dag.PickFIFO, 0)
	start := func(in *moldable.Instance) {
		for c := 1; c <= 2; c++ {
			in.Execute(dag.Category(c), in.Desire(dag.Category(c)))
		}
		in.Advance()
	}
	start(leap)
	start(step)
	hf := leap.HoldFor()
	if hf <= 0 {
		t.Fatalf("HoldFor = %d after starting both sources; want a long held window", hf)
	}
	// The engine's maximum window: HoldFor()+1 steps, ending one step
	// before the earliest completion.
	n := hf + 1
	leap.LeapHold(n)
	for i := int64(0); i < n; i++ {
		for c := 1; c <= 2; c++ {
			if fl := step.Floor(dag.Category(c)); fl > 0 {
				step.Execute(dag.Category(c), fl)
			}
		}
		step.Advance()
	}
	if !reflect.DeepEqual(leap, step) {
		t.Fatalf("LeapHold(%d) diverged from %d held rounds:\nleap: rem %v hold %d\nstep: rem %v hold %d",
			n, n, leap.RemainingWork(), leap.HoldFor(), step.RemainingWork(), step.HoldFor())
	}
	// Both must agree the window is exhausted: next finish too close.
	if got := leap.HoldFor(); got > 0 {
		t.Fatalf("HoldFor after a maximal leap = %d, want ≤ 0", got)
	}
}
