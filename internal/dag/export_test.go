package dag

import "slices"

// OracleMarshal hands the encoding/json oracle of encode_test.go to the
// external test package, which can import internal/workload where this
// package's own tests cannot.
var OracleMarshal = oracleMarshal

// CorruptInDegree adds delta to task v's stored in-degree, leaving its
// successor lists alone: a graph Validate must refuse.
func (g *Graph) CorruptInDegree(v TaskID, delta int32) { g.indeg[v] += delta }

// Census is an instance's frontier accounting: the per-task in-degrees and
// blocked-predecessor counts, the frontier-blocked tasks bucketed by
// in-degree and their total, and the hint for the first non-empty bucket.
type Census struct {
	Indeg, Bindeg, Fblocked []int32
	Nblocked                int
	MinBlocked              int32
}

// CensusOf returns the census in keeps, copied.
func CensusOf(in *Instance) Census {
	return Census{
		Indeg:      slices.Clone(in.indeg),
		Bindeg:     slices.Clone(in.bindeg),
		Fblocked:   slices.Clone(in.fblocked),
		Nblocked:   in.nblocked,
		MinBlocked: in.minBlocked,
	}
}

// Recount computes an instance's census from scratch, over predecessor
// lists it builds from the graph's successor lists.
type Recount struct {
	pred     [][]TaskID
	maxIndeg int
}

// NewRecount builds g's predecessor lists, each in ascending order.
func NewRecount(g *Graph) *Recount {
	r := &Recount{pred: make([][]TaskID, len(g.cats))}
	for u := range g.cats {
		for _, v := range g.Successors(TaskID(u)) {
			r.pred[v] = append(r.pred[v], TaskID(u))
			r.maxIndeg = max(r.maxIndeg, len(r.pred[v]))
		}
	}
	return r
}

// Census returns the census of the graph when its tasks have the
// in-degrees indeg (remaining prerequisites; 0 = ready or executed): for
// each task, the predecessors still blocked, and the tasks blocked only on
// ready ones bucketed by in-degree. MinBlocked is the exact smallest
// frontier-blocked in-degree, 0 if there is none; an instance's hint may
// only be at or below it.
func (r *Recount) Census(indeg []int32) Census {
	c := Census{
		Indeg:    slices.Clone(indeg),
		Bindeg:   make([]int32, len(r.pred)),
		Fblocked: make([]int32, r.maxIndeg+1),
	}
	for v, ps := range r.pred {
		for _, u := range ps {
			if indeg[u] > 0 {
				c.Bindeg[v]++
			}
		}
		if d := indeg[v]; d > 0 && c.Bindeg[v] == 0 {
			c.Fblocked[d]++
			c.Nblocked++
			if c.MinBlocked == 0 || d < c.MinBlocked {
				c.MinBlocked = d
			}
		}
	}
	return c
}

// Diff names the first field in which the kept census got differs from
// the recount want, or returns "".
func (got Census) Diff(want Census) string {
	switch {
	case !slices.Equal(got.Indeg, want.Indeg):
		return "indeg"
	case !slices.Equal(got.Bindeg, want.Bindeg):
		return "bindeg"
	case !slices.Equal(got.Fblocked, want.Fblocked):
		return "fblocked"
	case got.Nblocked != want.Nblocked:
		return "nblocked"
	case want.Nblocked > 0 && (got.MinBlocked < 1 || got.MinBlocked > want.MinBlocked):
		return "minBlocked"
	}
	return ""
}
