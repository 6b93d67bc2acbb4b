package moldable_test

import (
	"fmt"
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
)

// meanMold returns a job of n tasks drawn as kdag_mix draws its moldable
// jobs (K = 3, the generator's default work, processor and edge mix);
// at n = 25 it is that workload's mean mold.
func meanMold(n int) moldable.Spec {
	specs := moldable.Generate(moldable.GenOpts{K: 3, Jobs: 1, MinTasks: n, MaxTasks: n, Seed: 20070910})
	return specs[0].Source.(*moldable.Job).Spec()
}

// TestFromSpecAllocs pins FromSpec's allocations: the per-task tables are
// flat arrays, so a job costs the same few allocations whatever its size.
func TestFromSpecAllocs(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{8, 25, 40} {
		spec := meanMold(n)
		counts[n] = testing.AllocsPerRun(50, func() {
			if _, err := moldable.FromSpec(spec); err != nil {
				t.Fatal(err)
			}
		})
		if counts[n] > 16 {
			t.Errorf("%d tasks, %d edges: %v allocations, want ≤ 16", n, len(spec.Edges), counts[n])
		}
	}
	if counts[8] != counts[25] || counts[25] != counts[40] {
		t.Errorf("allocations grow with the task count: %v", counts)
	}
}

// dupEdgeSpec has two edges 0→2: a duplicate is accepted and counts twice
// toward task 2's predecessors.
var dupEdgeSpec = moldable.Spec{K: 2, Name: "dup", Tasks: []moldable.TaskSpec{
	{Cat: 1, Work: 4, Max: 3, Curve: pl(0.7)},
	{Cat: 2, Work: 3, Max: 2, Curve: moldable.CurveSpec{Type: moldable.CurveAmdahl, Serial: 0.2}},
	{Cat: 1, Work: 6, Max: 4, Curve: pl(1)},
	{Cat: 2, Work: 2, Max: 1, Curve: moldable.CurveSpec{Type: moldable.CurveAmdahl}},
	{Cat: 1, Work: 5, Max: 2, Curve: moldable.CurveSpec{Type: moldable.CurveAmdahl, Serial: 0.5}},
	{Cat: 2, Work: 7, Max: 5, Curve: pl(0.4)},
}, Edges: [][2]int{{0, 2}, {1, 3}, {0, 2}, {1, 4}, {2, 5}, {3, 5}, {0, 4}, {4, 5}}}

// moldTrace runs j on a fresh instance and on in reset onto j, offering
// each category its floor and two or three more slots every step, and
// writes each step's desire/floor/used per category. It fails unless the
// two runs write the same.
func moldTrace(t *testing.T, j *moldable.Job, in *moldable.Instance, pick dag.PickPolicy) string {
	t.Helper()
	run := func(in *moldable.Instance) string {
		var b []byte
		for step := 0; !in.Done() && step < 200; step++ {
			for c := dag.Category(1); int(c) <= j.K(); c++ {
				d, fl := in.Desire(c), in.Floor(c)
				b = fmt.Appendf(b, "%d/%d/%d ", d, fl, in.Execute(c, min(d, fl+2+step%2)))
			}
			in.Advance()
			b = append(b, "| "...)
		}
		return string(b)
	}
	fresh := run(moldable.NewInstance(j, pick, 7))
	if reused := run(in.Reset(j, pick, 7)); reused != fresh {
		t.Fatalf("%s: a reset instance ran\n%s\na fresh one\n%s", pick, reused, fresh)
	}
	return fresh
}

// TestDuplicateEdgeTrace pins a job with a duplicate edge to the trace the
// per-task successor lists and duration tables gave, step for step, for a
// fresh instance and one reset from another job.
func TestDuplicateEdgeTrace(t *testing.T) {
	j, err := moldable.FromSpec(dupEdgeSpec)
	if err != nil {
		t.Fatal(err)
	}
	var useful []int
	for v := 0; v < j.NumTasks(); v++ {
		useful = append(useful, j.Useful(v))
	}
	if got, want := fmt.Sprintf("span %d total %d work %v useful %v", j.Span(), j.TotalTasks(), j.WorkVector(), useful),
		"span 10 total 27 work [15 12] useful [3 2 4 1 2 3]"; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	other := mustJob(t, chainSpec(3, 2, 9, 3, 4))
	want := map[dag.PickPolicy]string{
		dag.PickFIFO:    "3/0/2 2/0/2 | 2/2/2 2/2/2 | 2/2/2 1/0/1 | 6/0/3 1/1/1 | 5/3/5 0/0/0 | 2/2/2 0/0/0 | 2/2/2 0/0/0 | 2/2/2 0/0/0 | 0/0/0 3/0/2 | 0/0/0 2/2/2 | 0/0/0 2/2/2 | 0/0/0 2/2/2 | 0/0/0 2/2/2 | 0/0/0 2/2/2 | ",
		dag.PickCPFirst: "3/0/2 2/0/2 | 2/2/2 2/2/2 | 2/2/2 1/0/1 | 6/0/3 1/1/1 | 3/3/3 0/0/0 | 3/3/3 0/0/0 | 3/3/3 0/0/0 | 1/1/1 0/0/0 | 1/1/1 0/0/0 | 0/0/0 3/0/3 | 0/0/0 3/3/3 | 0/0/0 3/3/3 | 0/0/0 3/3/3 | 0/0/0 3/3/3 | ",
	}
	for pick, w := range want {
		in := moldable.NewInstance(other, dag.PickLIFO, 1)
		in.Execute(2, 4)
		in.Advance()
		in.Park()
		if got := moldTrace(t, j, in, pick); got != w {
			t.Errorf("%s: trace\n%s\nwant\n%s", pick, got, w)
		}
	}
}

var moldSink *moldable.Job

// BenchmarkMoldableFromSpec builds kdag_mix's mean mold, 25 tasks.
func BenchmarkMoldableFromSpec(b *testing.B) {
	spec := meanMold(25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := moldable.FromSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		moldSink = j
	}
}
