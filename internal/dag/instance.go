package dag

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// PickPolicy selects which ready tasks a job executes when its allotment is
// smaller than its desire. The scheduling algorithms under study are
// oblivious to this choice; the paper's adversary (Theorem 1) and optimal
// offline scheduler differ exactly in it.
type PickPolicy int

const (
	// PickFIFO executes ready tasks in the order they became ready.
	PickFIFO PickPolicy = iota
	// PickLIFO executes the most recently readied tasks first.
	PickLIFO
	// PickRandom executes a uniformly random subset of the ready tasks.
	// Deterministic given the Instance's seed.
	PickRandom
	// PickCPFirst executes the tasks with the longest remaining chain
	// first — the oracle choice the optimal clairvoyant scheduler makes in
	// the Theorem 1 analysis.
	PickCPFirst
	// PickCPLast defers the tasks with the longest remaining chain to the
	// very end — the adversary's choice in the Theorem 1 lower bound.
	PickCPLast
)

// String returns the policy name.
func (p PickPolicy) String() string {
	switch p {
	case PickFIFO:
		return "fifo"
	case PickLIFO:
		return "lifo"
	case PickRandom:
		return "random"
	case PickCPFirst:
		return "cp-first"
	case PickCPLast:
		return "cp-last"
	default:
		return fmt.Sprintf("PickPolicy(%d)", int(p))
	}
}

// Instance is the runtime unfolding of a K-DAG: it tracks which tasks are
// ready, executes them under a pick policy, and reveals only instantaneous
// per-category parallelism. One Instance corresponds to one submitted job.
//
// The two-phase step protocol matches unit-time semantics: any number of
// Execute calls (one per category) happen "during" a time step, and tasks
// completed in that step only make their successors ready after Advance is
// called at the step boundary.
type Instance struct {
	g        *Graph
	off      []int32 // g's successor offsets and targets, cached (see csr)
	adj      []TaskID
	pick     PickPolicy
	rng      *rand.Rand
	indeg    []int32
	heights  []int32 // remaining-chain lengths for CP policies; lazy
	ready    [][]TaskID
	pending  []TaskID // completed this step; successors promoted on Advance
	executed int

	// Frontier-level lookahead state (see StableFor). bindeg[v] counts the
	// predecessors of v that are themselves still blocked (indegree > 0);
	// a blocked task with bindeg 0 is "frontier-blocked" — every remaining
	// prerequisite is already ready, so the next promotion anywhere in the
	// graph must be of such a task, and its current indegree is how many
	// executions away that promotion is at minimum. fblocked buckets the
	// frontier-blocked tasks by current indegree (nblocked is their total);
	// minBlocked is a lower-bound hint for the first non-empty bucket,
	// pushed down eagerly on decrements and rescanned upward lazily.
	bindeg     []int32
	fblocked   []int32
	nblocked   int
	minBlocked int32
}

// NewInstance wraps g for execution under the given pick policy. seed is
// only consulted by PickRandom. The graph must be valid (acyclic); invalid
// graphs cause a panic because Instances are built from validated or
// generator-produced graphs.
func NewInstance(g *Graph, pick PickPolicy, seed int64) *Instance {
	return new(Instance).Reset(g, pick, seed)
}

// Reset re-arms in for a fresh run of g, reusing its buffers: the result
// behaves exactly like NewInstance(g, pick, seed), whatever in ran before.
// It returns in.
func (in *Instance) Reset(g *Graph, pick PickPolicy, seed int64) *Instance {
	n := g.NumTasks()
	in.g, in.pick, in.heights, in.executed = g, pick, nil, 0
	in.off, in.adj = g.csr()
	if pick == PickRandom {
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(seed))
		} else {
			in.rng.Seed(seed)
		}
	}
	if pick == PickCPFirst || pick == PickCPLast {
		h, err := g.heights()
		if err != nil {
			panic(err)
		}
		in.heights = h
	}
	if cap(in.ready) < g.k {
		in.ready = make([][]TaskID, g.k)
	}
	in.ready = in.ready[:g.k]
	for c := range in.ready {
		in.ready[c] = in.ready[c][:0]
	}
	in.pending = in.pending[:0]
	in.indeg = resize(in.indeg, n)
	copy(in.indeg, g.indeg)
	in.bindeg = resize(in.bindeg, n)
	clear(in.bindeg)
	maxIndeg := int32(0)
	for u, d := range in.indeg {
		maxIndeg = max(maxIndeg, d)
		if d == 0 {
			c := g.cats[u]
			in.ready[c-1] = append(in.ready[c-1], TaskID(u))
			continue
		}
		// u is blocked: it is a blocked predecessor of each successor.
		for _, v := range in.adj[in.off[u]:in.off[u+1]] {
			in.bindeg[v]++
		}
	}
	in.fblocked = resize(in.fblocked, int(maxIndeg)+1)
	clear(in.fblocked)
	in.nblocked, in.minBlocked = 0, 1
	for v, d := range in.indeg {
		if d > 0 && in.bindeg[v] == 0 {
			in.fblocked[d]++
			in.nblocked++
		}
	}
	return in
}

// Park drops the instance's references to its graph, keeping only its
// buffers, so an instance waiting for Reset pins no job.
func (in *Instance) Park() { in.g, in.off, in.adj, in.heights = nil, nil, nil, nil }

// resize returns s with length n, reusing its array when it is big enough.
// The contents are not cleared.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Graph returns the underlying K-DAG.
func (in *Instance) Graph() *Graph { return in.g }

// Policy returns the instance's pick policy.
func (in *Instance) Policy() PickPolicy { return in.pick }

// Desire returns d(Ji, α, t): the number of currently ready α-tasks. This
// is the only job-state information a non-clairvoyant scheduler may use.
func (in *Instance) Desire(c Category) int {
	if c < 1 || int(c) > in.g.k {
		return 0
	}
	return len(in.ready[c-1])
}

// TotalDesire returns Σα d(Ji, α, t).
func (in *Instance) TotalDesire() int {
	n := 0
	for _, q := range in.ready {
		n += len(q)
	}
	return n
}

// Done reports whether every task has executed.
func (in *Instance) Done() bool { return in.executed == in.g.NumTasks() }

// Executed returns the number of tasks completed so far.
func (in *Instance) Executed() int { return in.executed }

// Execute runs up to n ready tasks of category c during the current step,
// selected by the pick policy, and returns the IDs of the tasks executed.
// Successors do not become ready until Advance. Execute with n ≤ 0 is a
// no-op returning nil. Callers that only need the count should use
// ExecuteCount, which skips materializing the ID slice.
func (in *Instance) Execute(c Category, n int) []TaskID {
	n = in.take(c, n)
	if n == 0 {
		return nil
	}
	run := append([]TaskID(nil), in.ready[c-1][:n]...)
	in.finish(c, n)
	return run
}

// ExecuteCount is Execute without the executed-ID result: the engine's
// aggregate-trace hot path only consumes the count, and skipping the slice
// copy keeps steady-state stepping allocation-free.
func (in *Instance) ExecuteCount(c Category, n int) int {
	n = in.take(c, n)
	if n > 0 {
		in.finish(c, n)
	}
	return n
}

// take validates an Execute request and orders the ready queue so the
// tasks to run occupy its prefix, returning the clamped count (0 = no-op).
func (in *Instance) take(c Category, n int) int {
	if n <= 0 || c < 1 || int(c) > in.g.k {
		return 0
	}
	q := in.ready[c-1]
	if n > len(q) {
		n = len(q)
	}
	if n > 0 {
		in.order(q)
	}
	return n
}

// finish commits the first n ready c-tasks: they move to the pending set
// and the queue compacts toward the front of its backing array, so the
// array is reused forever instead of creeping forward allocation by
// allocation as tasks are sliced off.
func (in *Instance) finish(c Category, n int) {
	q := in.ready[c-1]
	in.pending = append(in.pending, q[:n]...)
	in.executed += n
	m := copy(q, q[n:])
	in.ready[c-1] = q[:m]
}

// order arranges the ready queue so that the tasks to execute occupy the
// prefix, according to the pick policy.
func (in *Instance) order(q []TaskID) {
	switch in.pick {
	case PickFIFO:
		// Queue is already in became-ready order.
	case PickLIFO:
		for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
			q[i], q[j] = q[j], q[i]
		}
	case PickRandom:
		in.rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
	case PickCPFirst:
		h := in.heights
		slices.SortStableFunc(q, func(a, b TaskID) int { return cmp.Compare(h[b], h[a]) })
	case PickCPLast:
		h := in.heights
		slices.SortStableFunc(q, func(a, b TaskID) int { return cmp.Compare(h[a], h[b]) })
	default:
		panic(fmt.Sprintf("dag: unknown pick policy %d", in.pick))
	}
}

// Advance ends the current time step: every task completed since the last
// Advance releases its successors, and successors whose prerequisites are
// all complete become ready (in deterministic order).
func (in *Instance) Advance() {
	if len(in.pending) == 0 {
		return
	}
	for _, u := range in.pending {
		for _, v := range in.adj[in.off[u]:in.off[u+1]] {
			d := in.indeg[v]
			if d <= 0 {
				panic(fmt.Sprintf("dag: task %d in graph %q released more times than it has predecessors", v, in.g.name))
			}
			in.indeg[v] = d - 1
			if in.bindeg[v] != 0 {
				// v still has a blocked predecessor: it cannot promote yet
				// (indeg ≥ bindeg > 0) and is not in the frontier buckets.
				continue
			}
			in.fblocked[d]--
			if d > 1 {
				in.fblocked[d-1]++
				if d-1 < in.minBlocked {
					in.minBlocked = d - 1
				}
			} else {
				in.nblocked--
				in.promote(v)
			}
		}
	}
	in.pending = in.pending[:0]
}

// promote makes v ready and updates its successors' frontier accounting:
// v is no longer a blocked predecessor, so a successor whose other
// predecessors are all unblocked becomes frontier-blocked itself.
func (in *Instance) promote(v TaskID) {
	c := in.g.cats[v]
	in.ready[c-1] = append(in.ready[c-1], v)
	for _, w := range in.adj[in.off[v]:in.off[v+1]] {
		in.bindeg[w]--
		if in.bindeg[w] == 0 {
			d := in.indeg[w] // ≥ 1: the v→w edge is unconsumed until v executes
			in.fblocked[d]++
			in.nblocked++
			if d < in.minBlocked {
				in.minBlocked = d
			}
		}
	}
}

// StableFor reports how many additional unit steps beyond the current one
// the instance can execute without any step boundary promoting a task,
// assuming at most perStep[α−1] α-tasks execute in any single covered step
// (the caller's bound on the job's per-step allotment). 0 means the very
// next Advance might promote — do not leap. math.MaxInt64 means no bound:
// either nothing is blocked (the remaining frontier is a pure drain) or
// nothing can execute under perStep, so the state is frozen.
//
// Soundness: while no promotion has occurred, only initially-ready tasks
// can execute, so the first promoted task must be frontier-blocked at
// entry (every remaining prerequisite already ready — a blocked
// prerequisite cannot have executed), and promoting it takes at least its
// current indegree executions of this job's tasks. n steps execute at most
// n·S tasks, S = Σα min(perStep[α], ready α-tasks), so while
// n·S < min frontier-blocked indegree no boundary — including the one
// closing the window — can promote. The window must stop strictly before
// the first promoting boundary because a leap's single deferred Advance
// scans the whole window's completions grouped by category, which can
// promote tasks in a different order than the per-step scans would; the
// drain-completing step therefore runs as an ordinary single-step round.
//
// PickLIFO reverses the ready queue once per step and PickRandom consumes
// the instance's rng once per step, so batching their picks is not
// state-identical to single-stepping: StableFor reports 0 for them. FIFO
// consumes a queue prefix, and the CP policies re-sort an already-sorted
// queue (stable sorts are idempotent), so one batched pick over the window
// equals n single-step picks.
func (in *Instance) StableFor(perStep []int) int64 {
	switch in.pick {
	case PickFIFO, PickCPFirst, PickCPLast:
	default:
		return 0
	}
	if len(in.pending) != 0 {
		// Mid-step: promotions are already queued; StableFor is a
		// step-boundary question.
		return 0
	}
	if in.nblocked == 0 {
		return math.MaxInt64
	}
	s := 0
	for a, q := range in.ready {
		c := 0
		if a < len(perStep) {
			c = perStep[a]
		}
		if c > len(q) {
			c = len(q)
		}
		s += c
	}
	if s == 0 {
		return math.MaxInt64
	}
	n := (int(in.minBlockedIndeg()) - 1) / s
	if n <= 0 {
		return 0
	}
	return int64(n - 1)
}

// minBlockedIndeg returns the smallest current indegree among the
// frontier-blocked tasks. Only valid while nblocked > 0. The hint chases
// decrements downward in O(1); upward rescans are amortized over the edge
// consumptions that emptied the buckets below.
func (in *Instance) minBlockedIndeg() int32 {
	d := in.minBlocked
	if d < 1 {
		d = 1
	}
	for in.fblocked[d] == 0 {
		d++
	}
	in.minBlocked = d
	return d
}

// ExecuteLeap applies the aggregate of several consecutive unit steps that
// together execute total ready c-tasks, without the per-step Advance calls:
// the caller has established via StableFor that no covered step boundary —
// including the final one — promotes a task, so a single deferred Advance
// after all categories' ExecuteLeap calls only consumes indegree and leaves
// the instance state-identical to single-stepping. total may exceed any
// single step's allotment but must not exceed the category's ready count
// (the engine's leap law keeps desires strictly positive through the
// window). Returns the number executed.
func (in *Instance) ExecuteLeap(c Category, total int) int {
	n := in.take(c, total)
	if n > 0 {
		in.finish(c, n)
	}
	return n
}

// Remaining returns the number of tasks not yet executed.
func (in *Instance) Remaining() int { return in.g.NumTasks() - in.executed }

// RemainingSpan returns T∞ of the unexecuted portion of the job: the
// longest chain among unexecuted tasks. Every maximal remaining chain
// starts at a ready task, so this is the maximum static height over the
// ready queues — O(ready tasks) with heights computed lazily once. Valid
// at step boundaries (after Advance).
func (in *Instance) RemainingSpan() int {
	if in.Done() {
		return 0
	}
	if in.heights == nil {
		h, err := in.g.heights()
		if err != nil {
			panic(err)
		}
		in.heights = h
	}
	best := int32(0)
	for _, q := range in.ready {
		for _, id := range q {
			if in.heights[id] > best {
				best = in.heights[id]
			}
		}
	}
	return int(best)
}

// RemainingWork returns, per category (indexed α−1), the number of
// unexecuted tasks: the ready tasks plus the tasks still blocked on
// predecessors. O(tasks); intended for analysis, not the hot path.
func (in *Instance) RemainingWork() []int {
	rem := make([]int, in.g.k)
	for c := 0; c < in.g.k; c++ {
		rem[c] = len(in.ready[c])
	}
	for v := 0; v < in.g.NumTasks(); v++ {
		if in.indeg[v] > 0 {
			rem[in.g.cats[v]-1]++
		}
	}
	return rem
}
