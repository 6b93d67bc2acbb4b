package dag

import "fmt"

// Stretch models performance heterogeneity — the paper's Section 8
// challenge, in its uniform-per-category form — inside the unit-time
// K-DAG model: processors of category α run at relative cost factors[α−1],
// i.e. an α-task occupies its processor for factors[α−1] unit steps.
//
// The transform replaces every α-task with a chain of factors[α−1] unit
// α-tasks, rewiring incoming edges to the chain head and outgoing edges
// from the chain tail. The result is an ordinary K-DAG, so every theorem
// (and this library's whole machinery) applies unchanged; α-work
// multiplies by factors[α−1] and the span becomes the cost-weighted
// longest path. The chain form is slightly conservative versus true
// non-preemptable occupancy — a chain's steps may migrate between
// α-processors across steps — but work and critical-path lower bounds,
// and hence all competitive ratios measured against them, are identical.
func Stretch(g *Graph, factors []int) (*Graph, error) {
	if len(factors) != g.k {
		return nil, fmt.Errorf("dag: Stretch got %d factors for K=%d", len(factors), g.k)
	}
	for a, f := range factors {
		if f < 1 {
			return nil, fmt.Errorf("dag: Stretch factor for category %d is %d, need ≥ 1", a+1, f)
		}
	}
	return chains(g, g.name+"-stretched", func(id int) int { return factors[g.cats[id]-1] }), nil
}

// chains is the expansion Stretch and ExpandDurations share: task id
// becomes a chain of length(id) unit tasks of its category, entered at its
// head and left from its tail.
func chains(g *Graph, name string, length func(id int) int) *Graph {
	out := New(g.k).Named(name)
	heads := make([]TaskID, g.NumTasks())
	tails := make([]TaskID, g.NumTasks())
	for id := 0; id < g.NumTasks(); id++ {
		c := g.cats[id]
		head := out.AddTask(c)
		tail := head
		for i, n := 1, length(id); i < n; i++ {
			next := out.AddTask(c)
			out.MustEdge(tail, next)
			tail = next
		}
		heads[id] = head
		tails[id] = tail
	}
	off, adj := g.csr()
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range adj[off[u]:off[u+1]] {
			out.MustEdge(tails[u], heads[v])
		}
	}
	return out
}

// MustStretch is Stretch panicking on error, for deterministic pipelines.
func MustStretch(g *Graph, factors []int) *Graph {
	out, err := Stretch(g, factors)
	if err != nil {
		panic(err)
	}
	return out
}
