// Package dag implements the K-DAG job model from Section 2 of the paper:
// a parallel job is a directed acyclic graph whose vertices are unit-time
// tasks, each colored with one of K resource categories, and whose edges
// are precedence constraints. The package provides graph construction and
// validation, work/span/profile metrics, deterministic builders for common
// job shapes, the Figure 3 adversarial construction, and a runtime Instance
// type that unfolds a K-DAG dynamically so that schedulers only ever observe
// instantaneous per-category parallelism (non-clairvoyance).
package dag

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Category is a 1-based resource category index α ∈ {1, ..., K}.
// Category 1 might be general-purpose CPUs, category 2 vector units,
// category 3 I/O processors, and so on.
type Category int

// TaskID identifies a vertex within a single Graph. IDs are dense and
// assigned in insertion order starting from 0.
type TaskID int32

// Graph is an immutable-after-build K-DAG: a set of unit-time tasks, each
// belonging to one category, connected by precedence edges. The zero value
// is not usable; construct with New.
type Graph struct {
	name string
	k    int
	cats []Category
	// The edges are stored forward only: succ lists each task's
	// successors, indeg counts its predecessors. Unfolding a job reads
	// nothing else of them.
	succ  [][]TaskID
	indeg []int32
	// durs holds optional per-task durations (nil = all unit); see
	// durations.go.
	durs []int32
	// edge count, maintained incrementally.
	edges int
	// hmemo caches the static task heights (longest chain from each task),
	// shared read-only by Span, CriticalPath, every Instance of this graph,
	// and the CP pick policies. Mutators reset it; the atomic makes the
	// post-build read path safe under concurrent queries.
	hmemo atomic.Pointer[heightsResult]
}

// heightsResult is the cached outcome of one heights computation.
type heightsResult struct {
	h   []int32
	err error
}

// New returns an empty K-DAG for k resource categories. k must be ≥ 1.
func New(k int) *Graph {
	if k < 1 {
		panic(fmt.Sprintf("dag: New called with k=%d, need k ≥ 1", k))
	}
	return &Graph{k: k}
}

// Named sets a human-readable name used in error messages and traces and
// returns the graph for chaining.
func (g *Graph) Named(name string) *Graph {
	g.name = name
	return g
}

// Name returns the graph's name (possibly empty).
func (g *Graph) Name() string { return g.name }

// K returns the number of resource categories the graph was declared with.
func (g *Graph) K() int { return g.k }

// NumTasks returns the number of vertices.
func (g *Graph) NumTasks() int { return len(g.cats) }

// NumEdges returns the number of precedence edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddTask appends a new unit-time task of category c and returns its ID.
// It panics if c is outside [1, K]; task insertion is a programming-time
// construction step, so a malformed category is a caller bug.
func (g *Graph) AddTask(c Category) TaskID {
	if c < 1 || int(c) > g.k {
		panic(fmt.Sprintf("dag: AddTask category %d out of range [1,%d] in graph %q", c, g.k, g.name))
	}
	id := TaskID(len(g.cats))
	g.cats = append(g.cats, c)
	g.succ = append(g.succ, nil)
	g.indeg = append(g.indeg, 0)
	g.hmemo.Store(nil)
	return id
}

// AddTasks appends n tasks of category c and returns their IDs.
func (g *Graph) AddTasks(c Category, n int) []TaskID {
	ids := make([]TaskID, n)
	for i := range ids {
		ids[i] = g.AddTask(c)
	}
	return ids
}

// AddEdge records the precedence constraint u ≺ v (u must complete before v
// may start). Self-edges are rejected; duplicate edges are rejected because
// they always indicate a generator bug. Cycle detection is deferred to
// Validate, which checks the whole graph at once.
func (g *Graph) AddEdge(u, v TaskID) error {
	if u == v {
		return fmt.Errorf("dag: self edge %d in graph %q", u, g.name)
	}
	if err := g.checkID(u); err != nil {
		return err
	}
	if err := g.checkID(v); err != nil {
		return err
	}
	for _, w := range g.succ[u] {
		if w == v {
			return fmt.Errorf("dag: duplicate edge %d→%d in graph %q", u, v, g.name)
		}
	}
	g.succ[u] = append(g.succ[u], v)
	g.indeg[v]++
	g.edges++
	g.hmemo.Store(nil)
	return nil
}

// MustEdge is AddEdge for deterministic builders where an edge error is a
// programming bug rather than a data error.
func (g *Graph) MustEdge(u, v TaskID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

func (g *Graph) checkID(id TaskID) error {
	if id < 0 || int(id) >= len(g.cats) {
		return fmt.Errorf("dag: task id %d out of range [0,%d) in graph %q", id, len(g.cats), g.name)
	}
	return nil
}

// Category returns the resource category of task id.
func (g *Graph) Category(id TaskID) Category { return g.cats[id] }

// Successors returns the tasks that directly depend on id. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Successors(id TaskID) []TaskID { return g.succ[id] }

// Predecessors returns the direct prerequisites of id in ascending ID
// order, in a fresh slice the caller owns (nil if there are none). The
// graph stores its edges forward only, so this scans every successor
// list: O(tasks + edges). InDegree is the O(1) count.
func (g *Graph) Predecessors(id TaskID) []TaskID {
	var out []TaskID
	for u, vs := range g.succ {
		if slices.Contains(vs, id) {
			out = append(out, TaskID(u))
		}
	}
	return out
}

// InDegree returns the number of direct prerequisites of id, in O(1).
func (g *Graph) InDegree(id TaskID) int { return int(g.indeg[id]) }

// Sources returns all tasks with no prerequisites, in ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for id, d := range g.indeg {
		if d == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// Sinks returns all tasks with no successors, in ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for id := range g.cats {
		if len(g.succ[id]) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// Clone returns a deep copy of the graph, its successor lists cut from one
// array the way a decoded graph's are (see UnmarshalJSON).
func (g *Graph) Clone() *Graph {
	c := &Graph{name: g.name, k: g.k, edges: g.edges}
	c.cats = append([]Category(nil), g.cats...)
	c.indeg = append([]int32(nil), g.indeg...)
	c.durs = append([]int32(nil), g.durs...)
	c.succ = make([][]TaskID, len(g.succ))
	flat := make([]TaskID, 0, g.edges)
	for u, l := range g.succ {
		if len(l) > 0 {
			flat = append(flat, l...)
			c.succ[u] = flat[len(flat)-len(l) : len(flat) : len(flat)]
		}
	}
	return c
}

// Validate checks structural invariants: every category within [1, K],
// every edge's target in range, every in-degree equal to the number of
// edges that reach the task, and acyclicity — O(tasks + edges). Builders
// in this package always produce valid graphs; Validate exists for graphs
// assembled by hand or decoded from external data.
func (g *Graph) Validate() error {
	if g.k < 1 {
		return fmt.Errorf("dag: graph %q has k=%d, need k ≥ 1", g.name, g.k)
	}
	for id, c := range g.cats {
		if c < 1 || int(c) > g.k {
			return fmt.Errorf("dag: graph %q task %d has category %d out of range [1,%d]", g.name, id, c, g.k)
		}
	}
	reach := make([]int32, len(g.cats))
	for _, vs := range g.succ {
		for _, v := range vs {
			if err := g.checkID(v); err != nil {
				return err
			}
			reach[v]++
		}
	}
	for v, d := range g.indeg {
		if d != reach[v] {
			return fmt.Errorf("dag: graph %q task %d has in-degree %d but %d edges reach it", g.name, v, d, reach[v])
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%q K=%d tasks=%d edges=%d)", g.name, g.k, g.NumTasks(), g.edges)
}
