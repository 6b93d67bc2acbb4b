package dag

import "fmt"

// TopoOrder returns the tasks in a topological order (Kahn's algorithm,
// smallest-ID-first among ready tasks, so the order is deterministic).
// It returns an error naming one task on a cycle if the graph is cyclic.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	n := g.NumTasks()
	indeg := make([]int32, n)
	for v := range indeg {
		indeg[v] = int32(len(g.pred[v]))
	}
	order := topoSort(g.succ, indeg, make([]TaskID, 0, n))
	if len(order) != n {
		return nil, cycleError(g.name, indeg)
	}
	return order, nil
}

// topoSort appends the tasks to order as Kahn's algorithm releases them
// and returns it: the result doubles as the FIFO queue, tasks entering in
// ID order initially and in completion order afterwards. indeg holds every
// task's in-degree and is consumed; the tasks it leaves positive are on a
// cycle or behind one, and are missing from the result.
func topoSort(succ [][]TaskID, indeg []int32, order []TaskID) []TaskID {
	for v, d := range indeg {
		if d == 0 {
			order = append(order, TaskID(v))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range succ[order[head]] {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order
}

// cycleError names the first task topoSort could not release.
func cycleError(name string, indeg []int32) error {
	for v, d := range indeg {
		if d > 0 {
			return fmt.Errorf("dag: graph %q has a cycle through task %d", name, v)
		}
	}
	return fmt.Errorf("dag: graph %q has inconsistent predecessor lists", name)
}

// Levels partitions the tasks into precedence levels: level 0 holds the
// sources, and each task sits one past its deepest predecessor. This is the
// schedule an infinite-processor machine would follow, so len(Levels()) is
// the span for valid graphs.
func (g *Graph) Levels() ([][]TaskID, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	depth := make([]int, g.NumTasks())
	max := 0
	for _, u := range order {
		for _, v := range g.succ[u] {
			if d := depth[u] + 1; d > depth[v] {
				depth[v] = d
			}
		}
		if depth[u] > max {
			max = depth[u]
		}
	}
	if g.NumTasks() == 0 {
		return nil, nil
	}
	levels := make([][]TaskID, max+1)
	for _, u := range order {
		levels[depth[u]] = append(levels[depth[u]], u)
	}
	return levels, nil
}

// heights returns, for every task, the number of vertices on the longest
// chain starting at that task (inclusive), i.e. its remaining-span
// contribution. The result is memoized on the graph (mutators invalidate
// it) and shared read-only by Span, the critical-path task pickers, and
// every Instance — callers must not modify it.
func (g *Graph) heights() ([]int32, error) {
	if m := g.hmemo.Load(); m != nil {
		return m.h, m.err
	}
	h, err := g.computeHeights()
	g.hmemo.Store(&heightsResult{h: h, err: err})
	return h, err
}

// computeHeights is the uncached heights computation.
func (g *Graph) computeHeights() ([]int32, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return heightsOver(g.succ, order), nil
}

// heightsOver computes the heights from a topological order.
func heightsOver(succ [][]TaskID, order []TaskID) []int32 {
	h := make([]int32, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		best := int32(0)
		for _, v := range succ[u] {
			if h[v] > best {
				best = h[v]
			}
		}
		h[u] = best + 1
	}
	return h
}
