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
	"sync"
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
	// The edges are stored forward only, in compressed sparse row form:
	// task u's successors are adj[off[u]:off[u+1]] in insertion order,
	// and indeg counts each task's predecessors. Unfolding a job reads
	// nothing else of them. Every read goes through csr.
	off   []int32
	adj   []TaskID
	indeg []int32
	// build holds the edges of a graph that AddTask and AddEdge are
	// building; nil for a graph decoded, cloned or never given a task.
	build *builder
	// durs holds optional per-task durations (nil = all unit); see
	// durations.go.
	durs []int32
	// hmemo caches the static task heights (longest chain from each task),
	// shared read-only by Span, CriticalPath, every Instance of this graph,
	// and the CP pick policies. Mutators reset it; the atomic makes the
	// post-build read path safe under concurrent queries.
	hmemo atomic.Pointer[heightsResult]
}

// builder is the state of a graph being built: one successor list per
// task, which AddEdge appends to, while compact is false. The first read
// compacts the lists into off and adj under mu and publishes them by
// setting compact, however many goroutines read at once; an AddTask or
// AddEdge after that reopens them (see open).
type builder struct {
	mu      sync.Mutex
	compact atomic.Bool
	lists   [][]TaskID
	edges   int
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
func (g *Graph) NumEdges() int {
	if b := g.build; b != nil && !b.compact.Load() {
		return b.edges
	}
	return len(g.adj)
}

// AddTask appends a new unit-time task of category c and returns its ID.
// It panics if c is outside [1, K]; task insertion is a programming-time
// construction step, so a malformed category is a caller bug.
func (g *Graph) AddTask(c Category) TaskID {
	if c < 1 || int(c) > g.k {
		panic(fmt.Sprintf("dag: AddTask category %d out of range [1,%d] in graph %q", c, g.k, g.name))
	}
	b := g.open()
	id := TaskID(len(g.cats))
	g.cats = append(g.cats, c)
	b.lists = append(b.lists, nil)
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
	b := g.open()
	if slices.Contains(b.lists[u], v) {
		return fmt.Errorf("dag: duplicate edge %d→%d in graph %q", u, v, g.name)
	}
	b.lists[u] = append(b.lists[u], v)
	g.indeg[v]++
	b.edges++
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

// open returns the graph's builder with its lists holding the edges,
// reopening them after a read compacted them: each a window of adj with
// its capacity cut to its length, so that an append moves the list
// instead of writing into the next one. A reopening costs O(tasks), once
// per read that a mutation follows.
func (g *Graph) open() *builder {
	b := g.build
	if b == nil {
		b = new(builder)
		g.build = b
	} else if !b.compact.Load() {
		return b
	}
	b.lists = make([][]TaskID, len(g.cats))
	for u := range b.lists {
		if lo, hi := g.off[u], g.off[u+1]; hi > lo {
			b.lists[u] = g.adj[lo:hi:hi]
		}
	}
	b.edges = len(g.adj)
	g.off, g.adj = nil, nil
	b.compact.Store(false)
	return b
}

// csr returns the graph's successors in compressed sparse row form: task
// u's are adj[off[u]:off[u+1]]. The arrays are owned by the graph.
func (g *Graph) csr() ([]int32, []TaskID) {
	if b := g.build; b != nil && !b.compact.Load() {
		b.compactInto(g)
	}
	return g.off, g.adj
}

// compactInto is csr's slow path: it cuts g's lists into one array.
func (b *builder) compactInto(g *Graph) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.compact.Load() {
		return
	}
	off := make([]int32, len(g.cats)+1)
	adj := make([]TaskID, 0, b.edges)
	for u, vs := range b.lists {
		adj = append(adj, vs...)
		off[u+1] = int32(len(adj))
	}
	g.off, g.adj, b.lists = off, adj, nil
	b.compact.Store(true)
}

func (g *Graph) checkID(id TaskID) error {
	if id < 0 || int(id) >= len(g.cats) {
		return fmt.Errorf("dag: task id %d out of range [0,%d) in graph %q", id, len(g.cats), g.name)
	}
	return nil
}

// Category returns the resource category of task id.
func (g *Graph) Category(id TaskID) Category { return g.cats[id] }

// Successors returns the tasks that directly depend on id, in the order
// their edges were added (nil if there are none). The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Successors(id TaskID) []TaskID {
	off, adj := g.csr()
	lo, hi := off[id], off[id+1]
	if lo == hi {
		return nil
	}
	return adj[lo:hi:hi]
}

// Predecessors returns the direct prerequisites of id in ascending ID
// order, in a fresh slice the caller owns (nil if there are none). The
// graph stores its edges forward only, so this scans every successor
// list: O(tasks + edges). InDegree is the O(1) count.
func (g *Graph) Predecessors(id TaskID) []TaskID {
	off, adj := g.csr()
	var out []TaskID
	for u := range g.cats {
		if slices.Contains(adj[off[u]:off[u+1]], id) {
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
	off, _ := g.csr()
	var out []TaskID
	for id := range g.cats {
		if off[id] == off[id+1] {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// Clone returns a deep copy of the graph, compacted the way a decoded
// graph is (see UnmarshalJSON).
func (g *Graph) Clone() *Graph {
	off, adj := g.csr()
	c := &Graph{name: g.name, k: g.k}
	c.cats = slices.Clone(g.cats)
	c.indeg = slices.Clone(g.indeg)
	c.durs = slices.Clone(g.durs)
	c.off, c.adj = slices.Clone(off), slices.Clone(adj)
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
	_, adj := g.csr()
	reach := make([]int32, len(g.cats))
	for _, v := range adj {
		if err := g.checkID(v); err != nil {
			return err
		}
		reach[v]++
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
	return fmt.Sprintf("Graph(%q K=%d tasks=%d edges=%d)", g.name, g.k, g.NumTasks(), g.NumEdges())
}
