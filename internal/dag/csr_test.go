package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// listGraph is a K-DAG stored the way Graph stored it before its edges
// became CSR arrays: one successor list per task, appended to by addEdge,
// and an in-degree count per task. It is the oracle the CSR form is
// checked against, as graphJSON is the codec's.
type listGraph struct {
	name  string
	k     int
	cats  []Category
	succ  [][]TaskID
	indeg []int32
}

func (o *listGraph) addTask(c Category) {
	o.cats = append(o.cats, c)
	o.succ = append(o.succ, nil)
	o.indeg = append(o.indeg, 0)
}

// addEdge makes the checks AddEdge made, in its order and words.
func (o *listGraph) addEdge(u, v TaskID) error {
	if u == v {
		return fmt.Errorf("dag: self edge %d in graph %q", u, o.name)
	}
	for _, id := range []TaskID{u, v} {
		if id < 0 || int(id) >= len(o.cats) {
			return fmt.Errorf("dag: task id %d out of range [0,%d) in graph %q", id, len(o.cats), o.name)
		}
	}
	if slices.Contains(o.succ[u], v) {
		return fmt.Errorf("dag: duplicate edge %d→%d in graph %q", u, v, o.name)
	}
	o.succ[u] = append(o.succ[u], v)
	o.indeg[v]++
	return nil
}

// marshal is the encoding/json bytes of the graph.
func (o *listGraph) marshal() []byte {
	ej := graphJSON{Name: o.name, K: o.k, Cats: o.cats}
	for u, vs := range o.succ {
		for _, v := range vs {
			ej.Edges = append(ej.Edges, [2]int32{int32(u), int32(v)})
		}
	}
	out, err := json.Marshal(ej)
	if err != nil {
		panic(err)
	}
	return out
}

// topoOrder is Kahn's algorithm, smallest ID first among the sources.
func (o *listGraph) topoOrder() []TaskID {
	indeg := slices.Clone(o.indeg)
	var order []TaskID
	for v, d := range indeg {
		if d == 0 {
			order = append(order, TaskID(v))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range o.succ[order[head]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order
}

func (o *listGraph) heights() []int32 {
	order := o.topoOrder()
	h := make([]int32, len(o.cats))
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range o.succ[u] {
			h[u] = max(h[u], h[v])
		}
		h[u]++
	}
	return h
}

// run unfolds the graph step by step, executing up to allot(step, α) ready
// α-tasks per step — the longest remaining chains first under CP-first,
// in became-ready order under FIFO — and returns the tasks each step ran.
func (o *listGraph) run(pick PickPolicy, allot func(step, a int) int) [][]TaskID {
	h := o.heights()
	indeg := slices.Clone(o.indeg)
	ready := make([][]TaskID, o.k)
	for v, d := range indeg {
		if d == 0 {
			ready[o.cats[v]-1] = append(ready[o.cats[v]-1], TaskID(v))
		}
	}
	var steps [][]TaskID
	for done, step := 0, 0; done < len(o.cats); step++ {
		var ran []TaskID
		for a, q := range ready {
			if pick == PickCPFirst {
				sort.SliceStable(q, func(i, j int) bool { return h[q[i]] > h[q[j]] })
			}
			n := min(allot(step, a), len(q))
			ran = append(ran, q[:n]...)
			ready[a] = q[n:]
		}
		for _, u := range ran {
			for _, v := range o.succ[u] {
				if indeg[v]--; indeg[v] == 0 {
					ready[o.cats[v]-1] = append(ready[o.cats[v]-1], v)
				}
			}
		}
		done += len(ran)
		steps = append(steps, ran)
	}
	return steps
}

// runInstance is run on an Instance of g.
func runInstance(g *Graph, pick PickPolicy, allot func(step, a int) int) [][]TaskID {
	in := NewInstance(g, pick, 0)
	var steps [][]TaskID
	for step := 0; !in.Done(); step++ {
		var ran []TaskID
		for a := 0; a < g.K(); a++ {
			ran = append(ran, in.Execute(Category(a+1), allot(step, a))...)
		}
		in.Advance()
		steps = append(steps, ran)
	}
	return steps
}

// agree fails unless g reads as the oracle does: successors, predecessors,
// encoded bytes, heights, topological order, and a FIFO and a CP-first
// unfolding, step by step.
func (o *listGraph) agree(t *testing.T, g *Graph, at string) {
	t.Helper()
	if g.NumTasks() != len(o.cats) {
		t.Fatalf("%s: %d tasks, oracle %d", at, g.NumTasks(), len(o.cats))
	}
	for u := range o.cats {
		id := TaskID(u)
		if got := g.Successors(id); !slices.Equal(got, o.succ[u]) {
			t.Fatalf("%s: task %d successors %v, oracle %v", at, u, got, o.succ[u])
		}
		if g.InDegree(id) != int(o.indeg[u]) || len(g.Predecessors(id)) != int(o.indeg[u]) {
			t.Fatalf("%s: task %d in-degree %d, %d predecessors; oracle %d", at, u, g.InDegree(id), len(g.Predecessors(id)), o.indeg[u])
		}
	}
	if got, want := g.AppendJSON(nil), o.marshal(); !bytes.Equal(got, want) {
		t.Fatalf("%s: encodes\n%s\noracle\n%s", at, got, want)
	}
	h, err := g.heights()
	if err != nil || !slices.Equal(h, o.heights()) {
		t.Fatalf("%s: heights %v (%v), oracle %v", at, h, err, o.heights())
	}
	if order, err := g.TopoOrder(); err != nil || !slices.Equal(order, o.topoOrder()) {
		t.Fatalf("%s: topological order %v (%v), oracle %v", at, order, err, o.topoOrder())
	}
	allot := func(step, a int) int { return 1 + (step+a)%3 }
	for _, pick := range []PickPolicy{PickFIFO, PickCPFirst} {
		got, want := runInstance(g, pick, allot), o.run(pick, allot)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: %s unfolding\n%v\noracle\n%v", at, pick, got, want)
		}
	}
}

// TestCSRMatchesListOracle drives a Graph and the list oracle through the
// same random interleavings of AddTask, AddEdge (self, duplicate and
// out-of-range edges included) and reads — the reads that compact a graph
// being built, Clone, and a decode, after which building goes on — and
// wants the same errors and the same answers to every read.
func TestCSRMatchesListOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		name := fmt.Sprintf("csr-%d", seed)
		g, o := New(k).Named(name), &listGraph{name: name, k: k}
		for op := 0; op < 150; op++ {
			at := fmt.Sprintf("seed %d op %d", seed, op)
			n := g.NumTasks()
			switch r := rng.Intn(20); {
			case r < 5 || n < 2:
				c := Category(1 + rng.Intn(k))
				if id := g.AddTask(c); int(id) != n {
					t.Fatalf("%s: AddTask returned %d, want %d", at, id, n)
				}
				o.addTask(c)
			case r < 15:
				// Forward edges keep the graph acyclic; a few are
				// self-edges, repeats or out of range.
				u := TaskID(rng.Intn(n - 1))
				v := u + 1 + TaskID(rng.Intn(min(n-1-int(u), 6)))
				switch rng.Intn(12) {
				case 0:
					v = u
				case 1:
					v = TaskID(n + rng.Intn(2))
				case 2:
					u = -1
				}
				err, want := g.AddEdge(u, v), o.addEdge(u, v)
				if fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("%s: AddEdge(%d, %d) = %v, oracle %v", at, u, v, err, want)
				}
			case r < 17:
				o.agree(t, g, at)
			case r < 18:
				g.Successors(TaskID(rng.Intn(n)))
				g.Span()
			case r < 19:
				g = g.Clone()
			default:
				var d Graph
				if err := d.UnmarshalJSON(g.AppendJSON(nil)); err != nil {
					t.Fatalf("%s: decode: %v", at, err)
				}
				g = &d
			}
		}
		o.agree(t, g, fmt.Sprintf("seed %d end", seed))
	}
}

// TestConcurrentFirstRead has eight goroutines make the first reads of a
// graph built by AddEdge at once — Successors, Span and NewInstance — and
// wants them all to see the same graph. Run under -race, it checks that
// compacting the lists on first read is safe.
func TestConcurrentFirstRead(t *testing.T) {
	build := func() *Graph { return MapReduce(3, 40, 6, 1, 2, 3, 1) }
	want := runInstance(build(), PickCPFirst, func(int, int) int { return 2 })
	g := build()
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			edges := 0
			for u := 0; u < g.NumTasks(); u++ {
				edges += len(g.Successors(TaskID(u)))
			}
			if edges != g.NumEdges() || g.Span() != 4 {
				errs <- fmt.Errorf("read %d edges and span %d, want %d and 4", edges, g.Span(), g.NumEdges())
				return
			}
			if got := runInstance(g, PickCPFirst, func(int, int) int { return 2 }); !slices.EqualFunc(got, want, slices.Equal) {
				errs <- fmt.Errorf("unfolded %v, want %v", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
