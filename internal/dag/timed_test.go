package dag_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"krad/internal/dag"
	"krad/internal/moldable"
)

// Duration graphs execute non-preemptively as moldable jobs with Max = 1
// (moldable.FromTimedGraph); this file holds that runtime to the
// hand-computed duration-graph cases. It is an external test package
// because moldable imports dag.

// runTimed mints the non-preemptive runtime of a duration graph.
func runTimed(t testing.TB, g *dag.Graph, pick dag.PickPolicy, seed int64) (*moldable.Job, *moldable.Instance) {
	t.Helper()
	job, err := moldable.FromTimedGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return job, moldable.NewInstance(job, pick, seed)
}

func TestSetDurationAndAccessors(t *testing.T) {
	g := dag.New(2)
	a := g.AddTask(1)
	b := g.AddTask(2)
	g.MustEdge(a, b)
	if g.Duration(a) != 1 {
		t.Errorf("default duration %d", g.Duration(a))
	}
	g.SetDuration(a, 3)
	if g.Duration(a) != 3 || g.Duration(b) != 1 {
		t.Error("SetDuration not reflected")
	}
	// Tasks added after SetDuration default to 1.
	c := g.AddTask(1)
	g.SetDuration(c, 2)
	if g.Duration(b) != 1 || g.Duration(c) != 2 {
		t.Error("late task durations wrong")
	}
	job, _ := runTimed(t, g, dag.PickFIFO, 0)
	if job.Name() != g.Name()+"-timed" {
		t.Errorf("job name %q", job.Name())
	}
	if tw := job.WorkVector(); tw[0] != 5 || tw[1] != 1 {
		t.Errorf("duration-weighted work = %v, want [5 1]", tw)
	}
	// a(3) → b(1): weighted span 4 (c is parallel, weight 2).
	if job.Span() != 4 {
		t.Errorf("duration-weighted span = %d, want 4", job.Span())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetDuration(0) accepted")
			}
		}()
		g.SetDuration(a, 0)
	}()
}

func TestCloneCopiesDurations(t *testing.T) {
	g := dag.UniformChain(1, 3, 1)
	g.SetDuration(0, 4)
	c := g.Clone()
	if c.Duration(0) != 4 {
		t.Error("clone lost durations")
	}
	c.SetDuration(1, 9)
	if g.Duration(1) != 1 {
		t.Error("clone shares duration slice")
	}
}

func TestTimedGraphNonPreemptiveExecution(t *testing.T) {
	// Chain a(2) → b(3), category 1, one processor.
	g := dag.New(1)
	a, b := g.AddTask(1), g.AddTask(1)
	g.MustEdge(a, b)
	g.SetDuration(a, 2)
	g.SetDuration(b, 3)
	_, in := runTimed(t, g, dag.PickFIFO, 0)
	if in.Desire(1) != 1 || in.Floor(1) != 0 {
		t.Fatalf("initial desire/floor %d/%d", in.Desire(1), in.Floor(1))
	}
	// Step 1: start a.
	if used := in.Execute(1, 1); used != 1 {
		t.Fatalf("step 1 used %d", used)
	}
	in.Advance()
	if in.Floor(1) != 1 {
		t.Fatalf("a in flight: floor %d", in.Floor(1))
	}
	// Step 2: a finishes its 2nd step; b not ready until Advance.
	in.Execute(1, 1)
	in.Advance()
	if in.Floor(1) != 0 || in.Desire(1) != 1 {
		t.Fatalf("after a: floor %d desire %d", in.Floor(1), in.Desire(1))
	}
	// Steps 3–5: b.
	for s := 0; s < 3; s++ {
		in.Execute(1, 1)
		in.Advance()
	}
	if !in.Done() {
		t.Fatal("not done after 5 steps (weighted span)")
	}
}

// TestTimedGraphPicksAndRelease: sources 0, 1, 2 of durations 1, 3, 2;
// task 3 follows 1 and task 4 follows 0; one category, floor + 1
// processors offered every step, so the pick policy decides which ready
// task starts. desire and floor are read before the step, used is what
// Execute returns.
func TestTimedGraphPicksAndRelease(t *testing.T) {
	build := func() *dag.Graph {
		g := dag.New(1)
		s := g.AddTasks(1, 3)
		g.SetDuration(s[1], 3)
		g.SetDuration(s[2], 2)
		g.MustEdge(s[1], g.AddTask(1)) // 3
		g.MustEdge(s[0], g.AddTask(1)) // 4
		return g
	}
	cases := []struct {
		pick                dag.PickPolicy
		desire, floor, used []int
	}{
		// Starts 0, 1, 2 in ID order, then 4 beside the two in flight.
		{dag.PickFIFO, []int{3, 3, 3, 3, 1}, []int{0, 0, 1, 2, 0}, []int{1, 1, 2, 3, 1}},
		// The queue is reversed in place at every start: 2, then 0 out of
		// [1 0], then 4 out of [1 4], and the 3-step task 1 last.
		{dag.PickLIFO, []int{3, 3, 2, 1, 1, 1, 1}, []int{0, 1, 0, 0, 1, 1, 0}, []int{1, 2, 1, 1, 1, 1, 1}},
		// Task 1 (height 4) first, then 0 and 2 (height 2, queue order).
		{dag.PickCPFirst, []int{3, 3, 3, 3, 1}, []int{0, 1, 1, 1, 0}, []int{1, 2, 2, 2, 1}},
	}
	for _, tc := range cases {
		_, in := runTimed(t, build(), tc.pick, 0)
		for i := range tc.used {
			if d, f := in.Desire(1), in.Floor(1); d != tc.desire[i] || f != tc.floor[i] {
				t.Fatalf("pick %v step %d: desire/floor %d/%d, want %d/%d", tc.pick, i+1, d, f, tc.desire[i], tc.floor[i])
			}
			if used := in.Execute(1, in.Floor(1)+1); used != tc.used[i] {
				t.Fatalf("pick %v step %d: used %d, want %d", tc.pick, i+1, used, tc.used[i])
			}
			in.Advance()
		}
		if !in.Done() {
			t.Fatalf("pick %v: not done after %d steps", tc.pick, len(tc.used))
		}
	}
}

// TestTimedGraphReleasesInIDOrder: LIFO on two processors finishes unit
// sources 1 then 0 in one step; their successors must become ready as
// 0's (task 3, four steps) then 1's (task 2, one step) — ascending
// finished ID, not finish order — so the next LIFO start is task 2.
func TestTimedGraphReleasesInIDOrder(t *testing.T) {
	g := dag.New(1)
	s := g.AddTasks(1, 2)
	g.MustEdge(s[1], g.AddTask(1)) // 2
	g.MustEdge(s[0], g.AddTask(1)) // 3
	g.SetDuration(3, 4)
	_, in := runTimed(t, g, dag.PickLIFO, 0)
	in.Execute(1, 2)
	in.Advance()
	in.Execute(1, 1)
	in.Advance()
	if f, rw := in.Floor(1), in.RemainingWork(); f != 0 || rw[0] != 4 {
		t.Fatalf("floor %d remaining %v: task 3 started before task 2", f, rw)
	}
}

func TestTimedGraphPanicsBelowFloor(t *testing.T) {
	g := dag.New(1)
	g.SetDuration(g.AddTask(1), 5)
	_, in := runTimed(t, g, dag.PickFIFO, 0)
	in.Execute(1, 1)
	in.Advance()
	defer func() {
		if recover() == nil {
			t.Error("allotment below floor accepted")
		}
	}()
	in.Execute(1, 0)
}

func TestTimedGraphRemainingWork(t *testing.T) {
	g := dag.New(1)
	a := g.AddTask(1)
	b := g.AddTask(1)
	g.MustEdge(a, b)
	g.SetDuration(a, 3)
	g.SetDuration(b, 2)
	_, in := runTimed(t, g, dag.PickFIFO, 0)
	if rw := in.RemainingWork(); rw[0] != 5 {
		t.Fatalf("initial remaining %v", rw)
	}
	in.Execute(1, 1)
	in.Advance()
	if rw := in.RemainingWork(); rw[0] != 4 {
		t.Fatalf("after 1 step remaining %v", rw)
	}
}

func TestExpandDurationsEquivalence(t *testing.T) {
	g := dag.ForkJoin(2, 3, 1, 2, 1)
	g.SetDuration(0, 2) // fork
	g.SetDuration(2, 4) // one body task
	e := dag.ExpandDurations(g)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	job, _ := runTimed(t, g, dag.PickFIFO, 0)
	if e.Span() != job.Span() {
		t.Errorf("expanded span %d != duration-weighted span %d", e.Span(), job.Span())
	}
	if ew, tw := e.WorkVector(), job.WorkVector(); !reflect.DeepEqual(ew, tw) {
		t.Errorf("expanded work %v != duration-weighted work %v", ew, tw)
	}
}

// TestQuickTimedUnlimitedProcessors: with caps covering every floor and
// desire, the non-preemptive run finishes in exactly the
// duration-weighted span.
func TestQuickTimedUnlimitedProcessors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dag.Random(2, dag.RandomOpts{Tasks: 1 + rng.Intn(30), EdgeProb: 0.2, Window: 6}, rng)
		for id := 0; id < g.NumTasks(); id++ {
			g.SetDuration(dag.TaskID(id), 1+rng.Intn(4))
		}
		job, in := runTimed(t, g, dag.PickFIFO, seed)
		steps := 0
		for !in.Done() {
			steps++
			if steps > job.Span()+1 {
				return false
			}
			for c := 1; c <= 2; c++ {
				in.Execute(dag.Category(c), g.NumTasks())
			}
			in.Advance()
		}
		return steps == job.Span()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickTimedDeterminism: two identical runs take identical step counts
// even with constrained processors.
func TestQuickTimedDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() int {
			rng := rand.New(rand.NewSource(seed))
			g := dag.Random(1, dag.RandomOpts{Tasks: 1 + rng.Intn(25), EdgeProb: 0.2, Window: 5}, rng)
			for id := 0; id < g.NumTasks(); id++ {
				g.SetDuration(dag.TaskID(id), 1+rng.Intn(3))
			}
			job, in := runTimed(t, g, dag.PickFIFO, seed)
			steps := 0
			for !in.Done() {
				steps++
				if steps > 10*job.Span()*g.NumTasks()+10 {
					return -1
				}
				// Grant floor + up to 2 extra slots.
				in.Execute(1, in.Floor(1)+2)
				in.Advance()
			}
			return steps
		}
		a, b := run(), run()
		return a == b && a > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
