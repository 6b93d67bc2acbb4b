package dag_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/workload"
)

// The graph keeps its edges forward only; these tests hold the instance's
// in-degree and frontier census, which Reset derives from successor lists,
// to an oracle that reads predecessor lists. It is an external test
// package because the shapes come from internal/workload.

// censusGraphs returns every workload shape at 50 and 400 tasks, Figure 1,
// the 3,998-wide fork-join, and random graphs whose first frontier spans
// many in-degrees, by name.
func censusGraphs(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	graphs := map[string]*dag.Graph{
		"figure1":   dag.Figure1(),
		"fanin4000": dag.ForkJoin(3, 3998, 1, 2, 3),
	}
	for i, p := range []float64{0.1, 0.3, 0.6} {
		rng := rand.New(rand.NewSource(int64(i)))
		graphs[fmt.Sprintf("random-p%v", p)] = dag.Random(3, dag.RandomOpts{Tasks: 120, EdgeProb: p, Window: 12}, rng)
	}
	for _, shape := range workload.AllShapes {
		for _, size := range []int{50, 400} {
			specs, err := workload.Mix{
				K: 3, Jobs: 1, Shapes: []workload.Shape{shape},
				MinSize: size, MaxSize: size, Seed: int64(size),
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			graphs[fmt.Sprintf("%v-%d", shape, size)] = specs[0].Graph
		}
	}
	return graphs
}

// forms returns g as built, decoded, cloned, and decoded then grown by
// AddEdge: a new sink behind every old sink, and a new source ahead of
// task 0, which moves task 0 from ready to blocked.
func forms(t *testing.T, g *dag.Graph) map[string]*dag.Graph {
	t.Helper()
	decode := func() *dag.Graph {
		d := new(dag.Graph)
		if err := d.UnmarshalJSON(g.AppendJSON(nil)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	grown := decode()
	sinks := grown.Sinks()
	last := grown.AddTask(1)
	for _, s := range sinks {
		grown.MustEdge(s, last)
	}
	grown.MustEdge(grown.AddTask(dag.Category(grown.K())), 0)
	return map[string]*dag.Graph{"built": g, "decoded": decode(), "cloned": g.Clone(), "grown": grown}
}

// oracle unfolds a graph over predecessor lists: a task's in-degree is
// the number of its predecessors not yet released by an Advance.
type oracle struct {
	g                  *dag.Graph
	pred               [][]dag.TaskID
	released, executed []bool
	recount            *dag.Recount
}

func newOracle(g *dag.Graph) *oracle {
	o := &oracle{
		g:        g,
		pred:     make([][]dag.TaskID, g.NumTasks()),
		released: make([]bool, g.NumTasks()),
		executed: make([]bool, g.NumTasks()),
		recount:  dag.NewRecount(g),
	}
	for u := range o.pred {
		for _, v := range g.Successors(dag.TaskID(u)) {
			o.pred[v] = append(o.pred[v], dag.TaskID(u))
		}
	}
	return o
}

// census recounts the in-degrees from the released set, and the rest of
// the census from them.
func (o *oracle) census() dag.Census {
	indeg := make([]int32, len(o.pred))
	for v, ps := range o.pred {
		for _, u := range ps {
			if !o.released[u] {
				indeg[v]++
			}
		}
	}
	return o.recount.Census(indeg)
}

// desires counts, per category (indexed α−1), the unexecuted tasks with
// no unreleased predecessor.
func (o *oracle) desires(indeg []int32) []int {
	n := make([]int, o.g.K())
	for v, d := range indeg {
		if d == 0 && !o.executed[v] {
			n[o.g.Category(dag.TaskID(v))-1]++
		}
	}
	return n
}

// stableFor is Instance.StableFor over the recounted census, with the
// exact smallest frontier in-degree in place of the instance's hint.
func stableFor(pick dag.PickPolicy, want dag.Census, desires, perStep []int) int64 {
	if pick == dag.PickLIFO || pick == dag.PickRandom {
		return 0
	}
	if want.Nblocked == 0 {
		return math.MaxInt64
	}
	s := 0
	for a, d := range desires {
		s += min(perStep[a], d)
	}
	if s == 0 {
		return math.MaxInt64
	}
	if n := (int(want.MinBlocked) - 1) / s; n > 0 {
		return int64(n - 1)
	}
	return 0
}

// TestResetMatchesPredecessorOracle checks the census Reset builds, and
// every step boundary after it, against the predecessor-list oracle, for
// every graph in every form under every pick policy, with StableFor,
// Execute and Advance run in lockstep with the oracle's unfolding.
func TestResetMatchesPredecessorOracle(t *testing.T) {
	picks := []dag.PickPolicy{dag.PickFIFO, dag.PickLIFO, dag.PickRandom, dag.PickCPFirst, dag.PickCPLast}
	in := new(dag.Instance)
	for name, g := range censusGraphs(t) {
		for form, h := range forms(t, g) {
			for _, pick := range picks {
				where := fmt.Sprintf("%s %s %s", name, form, pick)
				in.Reset(h, pick, 7)
				o := newOracle(h)
				// Allotments grow with the graph, so that each run's
				// from-scratch recounts cost about the same in all.
				scale := 1 + (h.NumTasks()+h.NumEdges())/128
				if got := dag.CensusOf(in); got.MinBlocked != 1 {
					t.Fatalf("%s: Reset leaves minBlocked %d, want 1", where, got.MinBlocked)
				}
				for step := 0; ; step++ {
					got, want := dag.CensusOf(in), o.census()
					if d := got.Diff(want); d != "" {
						t.Fatalf("%s, step %d: %s differs from the oracle's", where, step, d)
					}
					per := []int{(1 + step%3) * scale, 2 * scale, scale}
					desires := o.desires(want.Indeg)
					if a, b := in.StableFor(per), stableFor(pick, want, desires, per); a != b {
						t.Fatalf("%s, step %d: StableFor %d, oracle %d", where, step, a, b)
					}
					if in.Done() {
						break
					}
					var ran []dag.TaskID
					for c := dag.Category(1); int(c) <= h.K(); c++ {
						if a, b := in.Desire(c), desires[c-1]; a != b {
							t.Fatalf("%s, step %d: Desire(%d) %d, oracle %d", where, step, c, a, b)
						}
						ran = append(ran, in.Execute(c, per[c-1])...)
					}
					for _, u := range ran {
						if want.Indeg[u] != 0 || o.executed[u] {
							t.Fatalf("%s, step %d: executed task %d, which is not ready", where, step, u)
						}
						o.executed[u] = true
					}
					in.Advance()
					for _, u := range ran {
						o.released[u] = true
					}
				}
			}
		}
	}
}

// TestValidateRecountsInDegrees: a stored in-degree that disagrees with
// the successor lists is named by Validate.
func TestValidateRecountsInDegrees(t *testing.T) {
	for _, delta := range []int32{1, -1} {
		g := dag.Figure1()
		g.CorruptInDegree(4, delta)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "task 4 has in-degree") {
			t.Errorf("delta %d: Validate = %v, want it to name task 4's in-degree", delta, err)
		}
	}
}
