package dag

import "fmt"

// Series composes graphs sequentially: every sink of graphs[i] precedes
// every source of graphs[i+1]. All inputs must share the same K. The
// result's span is the sum of spans; its work vector is the sum of work
// vectors. Inputs are not modified.
func Series(graphs ...*Graph) (*Graph, error) {
	return compose("series", graphs, true)
}

// Parallel composes graphs side by side with no cross edges: the result
// runs all of them concurrently (span = max span, work = sum). Inputs are
// not modified.
func Parallel(graphs ...*Graph) (*Graph, error) {
	return compose("parallel", graphs, false)
}

func compose(mode string, graphs []*Graph, chain bool) (*Graph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("dag: %s composition of zero graphs", mode)
	}
	k := graphs[0].k
	for i, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("dag: %s composition: graph %d is nil", mode, i)
		}
		if g.k != k {
			return nil, fmt.Errorf("dag: %s composition: graph %d has K=%d, want %d", mode, i, g.k, k)
		}
	}
	out := New(k).Named(mode)
	var prevSinks []TaskID
	for _, g := range graphs {
		offset := TaskID(out.NumTasks())
		for id := 0; id < g.NumTasks(); id++ {
			out.AddTask(g.cats[id])
		}
		off, adj := g.csr()
		for u := 0; u < g.NumTasks(); u++ {
			for _, v := range adj[off[u]:off[u+1]] {
				out.MustEdge(offset+TaskID(u), offset+v)
			}
		}
		if chain {
			var sources []TaskID
			for id := 0; id < g.NumTasks(); id++ {
				if g.indeg[id] == 0 {
					sources = append(sources, offset+TaskID(id))
				}
			}
			for _, u := range prevSinks {
				for _, v := range sources {
					out.MustEdge(u, v)
				}
			}
			prevSinks = prevSinks[:0]
			for id := 0; id < g.NumTasks(); id++ {
				if off[id] == off[id+1] {
					prevSinks = append(prevSinks, offset+TaskID(id))
				}
			}
		}
	}
	return out, nil
}

// MustSeries is Series panicking on error.
func MustSeries(graphs ...*Graph) *Graph {
	g, err := Series(graphs...)
	if err != nil {
		panic(err)
	}
	return g
}
