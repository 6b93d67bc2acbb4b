package dag

// Work returns the α-work T1(Ji, α): the number of tasks of category c.
func (g *Graph) Work(c Category) int {
	n := 0
	for _, cat := range g.cats {
		if cat == c {
			n++
		}
	}
	return n
}

// WorkVector returns T1(Ji, α) for every α as a slice indexed by α−1.
func (g *Graph) WorkVector() []int { return g.AppendWork(make([]int, 0, g.k)) }

// AppendWork appends T1(Ji, α) for every α to dst, indexed α−1 from
// len(dst).
func (g *Graph) AppendWork(dst []int) []int {
	n := len(dst)
	for i := 0; i < g.k; i++ {
		dst = append(dst, 0)
	}
	for _, cat := range g.cats {
		dst[n+int(cat)-1]++
	}
	return dst
}

// TotalWork returns T1(Ji) = Σα T1(Ji, α), which equals the vertex count
// because every task belongs to exactly one category.
func (g *Graph) TotalWork() int { return g.NumTasks() }

// Span returns T∞(Ji): the number of vertices on the longest precedence
// chain. The empty graph has span 0. Span panics on cyclic graphs; call
// Validate first for untrusted data. Uses the memoized task heights, so
// repeated calls (one per job admission) cost one allocation-free scan.
func (g *Graph) Span() int {
	h, err := g.heights()
	if err != nil {
		panic(err)
	}
	best := int32(0)
	for _, v := range h {
		if v > best {
			best = v
		}
	}
	return int(best)
}

// CriticalPath returns one longest chain of tasks (ties broken toward
// smaller IDs) whose length equals Span. Returns nil for the empty graph.
func (g *Graph) CriticalPath() []TaskID {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	if len(order) == 0 {
		return nil
	}
	h, err := g.heights()
	if err != nil {
		panic(err)
	}
	// Start from the source with the greatest height, then repeatedly step
	// to the successor with the greatest height.
	var start TaskID = -1
	for id := 0; id < g.NumTasks(); id++ {
		if g.indeg[id] == 0 && (start < 0 || h[id] > h[start]) {
			start = TaskID(id)
		}
	}
	off, adj := g.csr()
	path := []TaskID{start}
	cur := start
	for off[cur] < off[cur+1] {
		next := TaskID(-1)
		for _, v := range adj[off[cur]:off[cur+1]] {
			if next < 0 || h[v] > h[next] {
				next = v
			}
		}
		if h[next] != h[cur]-1 {
			// cur is the end of the longest chain even though it has
			// successors shorter than the remaining budget.
			break
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// Profile returns the parallelism profile of the job under the greedy
// infinite-processor schedule: element t is a per-category count (indexed
// by α−1) of tasks executing at step t+1 when every ready task runs
// immediately. The profile has exactly Span rows and its column sums equal
// WorkVector.
func (g *Graph) Profile() [][]int {
	levels, err := g.Levels()
	if err != nil {
		panic(err)
	}
	prof := make([][]int, len(levels))
	for t, level := range levels {
		row := make([]int, g.k)
		for _, id := range level {
			row[g.cats[id]-1]++
		}
		prof[t] = row
	}
	return prof
}

// MaxParallelism returns, per category (indexed α−1), the maximum
// instantaneous parallelism over the infinite-processor profile.
func (g *Graph) MaxParallelism() []int {
	m := make([]int, g.k)
	for _, row := range g.Profile() {
		for a, v := range row {
			if v > m[a] {
				m[a] = v
			}
		}
	}
	return m
}
