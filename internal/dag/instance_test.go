package dag

import (
	"math/rand"
	"slices"
	"testing"
)

func TestInstanceInitialReadySet(t *testing.T) {
	g := Figure1()
	in := NewInstance(g, PickFIFO, 0)
	if in.Desire(1) != 1 {
		t.Errorf("initial Desire(1) = %d, want 1 (the root)", in.Desire(1))
	}
	if in.Desire(2) != 0 || in.Desire(3) != 0 {
		t.Error("non-root tasks ready at start")
	}
	if in.Done() {
		t.Error("fresh instance reports Done")
	}
	if in.TotalDesire() != 1 {
		t.Errorf("TotalDesire = %d, want 1", in.TotalDesire())
	}
}

func TestInstanceExecuteRespectsPrecedence(t *testing.T) {
	g := UniformChain(1, 5, 1)
	in := NewInstance(g, PickFIFO, 0)
	for step := 0; step < 5; step++ {
		if d := in.Desire(1); d != 1 {
			t.Fatalf("step %d: desire %d, want 1", step, d)
		}
		run := in.Execute(1, 3) // over-allotment: only 1 ready
		if len(run) != 1 {
			t.Fatalf("step %d: executed %d tasks, want 1", step, len(run))
		}
		// Successor must not be ready until Advance.
		if in.Desire(1) != 0 {
			t.Fatalf("step %d: successor ready before Advance", step)
		}
		in.Advance()
	}
	if !in.Done() {
		t.Error("chain not done after 5 steps")
	}
	if in.Executed() != 5 {
		t.Errorf("Executed = %d, want 5", in.Executed())
	}
}

func TestInstanceExecuteZeroOrBadCategory(t *testing.T) {
	in := NewInstance(Figure1(), PickFIFO, 0)
	if got := in.Execute(1, 0); got != nil {
		t.Error("Execute n=0 returned tasks")
	}
	if got := in.Execute(0, 5); got != nil {
		t.Error("Execute cat=0 returned tasks")
	}
	if got := in.Execute(9, 5); got != nil {
		t.Error("Execute cat=9 returned tasks")
	}
	if got := in.Desire(0); got != 0 {
		t.Error("Desire(0) nonzero")
	}
}

// drain runs the instance to completion with unlimited processors,
// returning the number of steps taken.
func drain(t *testing.T, in *Instance) int {
	t.Helper()
	steps := 0
	for !in.Done() {
		steps++
		if steps > in.Graph().NumTasks()+1 {
			t.Fatalf("instance did not finish in %d steps", steps)
		}
		for c := 1; c <= in.Graph().K(); c++ {
			in.Execute(Category(c), in.Graph().NumTasks())
		}
		in.Advance()
	}
	return steps
}

func TestInstanceGreedyDrainTakesSpanSteps(t *testing.T) {
	for _, g := range []*Graph{
		Figure1(),
		UniformChain(2, 9, 2),
		ForkJoin(3, 12, 1, 2, 3),
		MapReduce(2, 8, 4, 1, 1, 2, 2),
	} {
		in := NewInstance(g, PickFIFO, 0)
		if steps := drain(t, in); steps != g.Span() {
			t.Errorf("%v: greedy drain took %d steps, span is %d", g, steps, g.Span())
		}
	}
}

func TestInstanceAllPoliciesExecuteEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := Random(3, RandomOpts{Tasks: 60, EdgeProb: 0.1, Window: 12}, rng)
	for _, p := range []PickPolicy{PickFIFO, PickLIFO, PickRandom, PickCPFirst, PickCPLast} {
		in := NewInstance(g, p, 1)
		steps := 0
		for !in.Done() {
			steps++
			if steps > g.NumTasks()+1 {
				t.Fatalf("policy %v: stuck", p)
			}
			// Tight allotment of 2 per category exercises the pickers.
			for c := 1; c <= 3; c++ {
				in.Execute(Category(c), 2)
			}
			in.Advance()
		}
		if in.Remaining() != 0 {
			t.Errorf("policy %v: %d tasks remaining", p, in.Remaining())
		}
	}
}

func TestPickCPFirstPrefersCriticalChain(t *testing.T) {
	// Graph: a long chain plus many independent singles, all category 1.
	g := New(1)
	var prev TaskID = -1
	var chain []TaskID
	for i := 0; i < 5; i++ {
		id := g.AddTask(1)
		chain = append(chain, id)
		if prev >= 0 {
			g.MustEdge(prev, id)
		}
		prev = id
	}
	for i := 0; i < 10; i++ {
		g.AddTask(1)
	}
	in := NewInstance(g, PickCPFirst, 0)
	run := in.Execute(1, 1)
	if len(run) != 1 || run[0] != chain[0] {
		t.Fatalf("CPFirst picked %v, want chain head %d", run, chain[0])
	}

	in2 := NewInstance(g, PickCPLast, 0)
	run2 := in2.Execute(1, 1)
	if len(run2) != 1 || run2[0] == chain[0] {
		t.Fatalf("CPLast picked the chain head")
	}
}

func TestInstanceRemainingWork(t *testing.T) {
	g := Figure1()
	in := NewInstance(g, PickFIFO, 0)
	rw := in.RemainingWork()
	for a, w := range g.WorkVector() {
		if rw[a] != w {
			t.Errorf("initial remaining work cat %d = %d, want %d", a+1, rw[a], w)
		}
	}
	in.Execute(1, 1)
	in.Advance()
	rw = in.RemainingWork()
	if rw[0] != g.WorkVector()[0]-1 {
		t.Errorf("after one cat-1 task: remaining %d, want %d", rw[0], g.WorkVector()[0]-1)
	}
}

func TestPickPolicyString(t *testing.T) {
	names := map[PickPolicy]string{
		PickFIFO: "fifo", PickLIFO: "lifo", PickRandom: "random",
		PickCPFirst: "cp-first", PickCPLast: "cp-last", PickPolicy(99): "PickPolicy(99)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestPickRandomIsDeterministicPerSeed(t *testing.T) {
	g := ForkJoin(1, 20, 1, 1, 1)
	run := func(seed int64) []TaskID {
		in := NewInstance(g, PickRandom, seed)
		in.Execute(1, 1)
		in.Advance()
		return in.Execute(1, 5)
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatal("different lengths for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// TestResetMatchesNewInstance leaves an instance mid-run on one graph,
// parks it and resets it onto the next: under every pick policy its state
// is field for field what NewInstance builds, and stepping both in lockstep
// gives the same executed tasks and the same StableFor answers.
func TestResetMatchesNewInstance(t *testing.T) {
	graphs := []*Graph{
		ForkJoin(2, 9, 1, 2, 1), Figure1(), BinaryReduction(2, 12, 2, 1),
		RoundRobinChain(2, 5), ForkJoin(2, 4, 2, 1, 2), BinaryReduction(3, 7, 3, 1),
	}
	for _, pick := range []PickPolicy{PickFIFO, PickLIFO, PickRandom, PickCPFirst, PickCPLast} {
		in := NewInstance(graphs[len(graphs)-1], pick, 99)
		for i, g := range graphs {
			// Leave the previous run mid-body: tasks executed, some still
			// blocked, completions pending.
			in.Execute(1, 1)
			in.Execute(2, 2)
			in.Park()
			if in.g != nil || in.heights != nil {
				t.Fatalf("%s: parked instance keeps its graph", pick)
			}
			seed := int64(i)
			in.Reset(g, pick, seed)
			fresh := NewInstance(g, pick, seed)
			for step := 0; ; step++ {
				if d := instanceDiff(in, fresh); d != "" {
					t.Fatalf("%s, graph %d, step %d: reset instance differs from a new one in %s", pick, i, step, d)
				}
				per := []int{1 + step%3, 2, 1}
				if a, b := in.StableFor(per), fresh.StableFor(per); a != b {
					t.Fatalf("%s, graph %d, step %d: StableFor %d, fresh %d", pick, i, step, a, b)
				}
				if in.Done() || (i%2 == 1 && step == 2) {
					break
				}
				for c := Category(1); int(c) <= g.K(); c++ {
					a, b := in.Execute(c, per[c-1]), fresh.Execute(c, per[c-1])
					if !slices.Equal(a, b) {
						t.Fatalf("%s, graph %d, step %d: executed %v, fresh %v", pick, i, step, a, b)
					}
				}
				in.Advance()
				fresh.Advance()
			}
		}
	}
}

// instanceDiff names the first field in which a and b differ, or "".
func instanceDiff(a, b *Instance) string {
	switch {
	case a.g != b.g || a.pick != b.pick || a.executed != b.executed:
		return "graph, policy or executed count"
	case a.nblocked != b.nblocked || a.minBlocked != b.minBlocked:
		return "frontier counters"
	case !slices.Equal(a.indeg, b.indeg):
		return "indeg"
	case !slices.Equal(a.bindeg, b.bindeg):
		return "bindeg"
	case !slices.Equal(a.fblocked, b.fblocked):
		return "fblocked"
	case !slices.Equal(a.heights, b.heights):
		return "heights"
	case !slices.Equal(a.pending, b.pending):
		return "pending"
	case len(a.ready) != len(b.ready):
		return "ready categories"
	}
	for c := range a.ready {
		if !slices.Equal(a.ready[c], b.ready[c]) {
			return "ready"
		}
	}
	return ""
}
