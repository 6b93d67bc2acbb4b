package moldable

import (
	"fmt"
	"math"
	"math/rand"

	"krad/internal/dag"
	"krad/internal/sim"
)

// lease is one in-flight task: it occupies procs processors of its
// category for rem more steps (including the next one), non-preemptively.
type lease struct {
	task  int32
	procs int32
	rem   int32
}

// Instance is the executing state of one moldable Job: a list scheduler
// over the precedence frontier. When the engine offers n α-processors,
// every in-flight α-lease progresses one step (the floor — those
// processors cannot be taken back), and the leftover slots start ready
// tasks in pick order, each molded to p = min(useful, slots) processors
// for ceil(work / s(p)) non-preemptive steps.
//
// Instance implements sim.FloorRuntime (the engine grants its floors) and
// sim.HoldRuntime: a held phase — every frontier task in flight,
// nothing ready — keeps desires pinned at the floors, and HoldFor
// reports how long, so the engine can event-leap across it.
type Instance struct {
	job  *Job
	pick dag.PickPolicy
	rng  *rand.Rand

	indeg []int32
	// ready[α−1] holds ready-but-unstarted task indices; insertion order,
	// pick-ordered when starts happen.
	ready [][]int32
	// inflight[α−1] holds the category's leases in start order — slices,
	// not maps, so iteration is deterministic and steady-state stepping
	// allocates nothing.
	inflight [][]lease
	// pinned[α−1] = Σ procs over inflight[α−1]: the allotment floor.
	pinned []int
	// readyUseful[α−1] = Σ useful over ready[α−1]: the most extra
	// processors the policy could put to work this step.
	readyUseful []int
	// finished buffers tasks completing this step until Advance.
	finished []int32
	done     int
}

// NewInstance creates a fresh runtime for j. pick orders the ready
// frontier when slots are scarce; seed feeds PickRandom.
func NewInstance(j *Job, pick dag.PickPolicy, seed int64) *Instance {
	return new(Instance).Reset(j, pick, seed)
}

// Reset re-arms in for a fresh run of j, reusing its buffers: the result
// behaves exactly like NewInstance(j, pick, seed), whatever in ran before.
// It returns in.
func (in *Instance) Reset(j *Job, pick dag.PickPolicy, seed int64) *Instance {
	in.job, in.pick, in.done = j, pick, 0
	if pick == dag.PickRandom {
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(seed))
		} else {
			in.rng.Seed(seed)
		}
	}
	in.indeg = append(in.indeg[:0], j.npred...)
	in.ready = emptied(in.ready, j.k)
	in.inflight = emptied(in.inflight, j.k)
	in.pinned = append(in.pinned[:0], make([]int, j.k)...)
	in.readyUseful = append(in.readyUseful[:0], make([]int, j.k)...)
	in.finished = in.finished[:0]
	for v, d := range in.indeg {
		if d == 0 {
			a := j.cats[v] - 1
			in.ready[a] = append(in.ready[a], int32(v))
			in.readyUseful[a] += j.Useful(v)
		}
	}
	return in
}

// emptied returns k empty queues, reusing qs and the arrays of its queues.
func emptied[T any](qs [][]T, k int) [][]T {
	if cap(qs) < k {
		qs = append(qs[:cap(qs)], make([][]T, k-cap(qs))...)
	}
	qs = qs[:k]
	for a := range qs {
		qs[a] = qs[a][:0]
	}
	return qs
}

// Park implements sim.ReusableRuntime: it drops the instance's reference
// to its job, keeping only buffers, so a parked instance pins no job.
func (in *Instance) Park() { in.job = nil }

// Desire implements sim.RuntimeJob: processors the job can use this step —
// those pinned by in-flight leases plus the molding caps of the ready
// frontier.
func (in *Instance) Desire(c dag.Category) int {
	if c < 1 || int(c) > len(in.pinned) {
		return 0
	}
	return in.pinned[c-1] + in.readyUseful[c-1]
}

// Floor implements sim.FloorRuntime: processors pinned by in-flight
// leases, which non-preemption forbids taking back this step.
func (in *Instance) Floor(c dag.Category) int {
	if c < 1 || int(c) > len(in.pinned) {
		return 0
	}
	return in.pinned[c-1]
}

// Execute implements sim.RuntimeJob: progress every in-flight α-lease by
// one step, then mold and start ready tasks into the leftover slots. It
// returns the processors used and panics if n is below the floor — that
// means a driver other than sim's engine, which grants every floor, broke
// the floor contract, which is a setup bug.
func (in *Instance) Execute(c dag.Category, n int) int {
	if c < 1 || int(c) > len(in.pinned) || n <= 0 {
		if n <= 0 && in.Floor(c) > 0 {
			panic(fmt.Sprintf("moldable: job %q category %d: allotment %d below floor %d — the driver must grant every floor, as sim.Engine does", in.job.Name(), c, n, in.Floor(c)))
		}
		return 0
	}
	a := int(c) - 1
	fl := in.pinned[a]
	if n < fl {
		panic(fmt.Sprintf("moldable: job %q category %d: allotment %d below floor %d — the driver must grant every floor, as sim.Engine does", in.job.Name(), c, n, fl))
	}
	used := fl
	// Progress in-flight leases; finishing tasks free their processors at
	// the step boundary (they are still busy this step).
	if fl > 0 {
		lst := in.inflight[a]
		out := lst[:0]
		for _, l := range lst {
			l.rem--
			if l.rem == 0 {
				in.finished = append(in.finished, l.task)
				in.pinned[a] -= int(l.procs)
			} else {
				out = append(out, l)
			}
		}
		in.inflight[a] = out
	}
	// Mold and start ready tasks into the leftover slots, in pick order.
	// Molding is greedy: each task takes min(useful, slots) — efficiency
	// only improves below the ½-efficiency cap, so a squeezed start is
	// still within the policy.
	slots := n - fl
	if slots > 0 && len(in.ready[a]) > 0 {
		in.orderReady(a)
		q := in.ready[a]
		i := 0
		for ; i < len(q) && slots > 0; i++ {
			v := q[i]
			u := in.job.Useful(int(v))
			p := u
			if p > slots {
				p = slots
			}
			d := in.job.dur(v, p)
			if d == 1 {
				in.finished = append(in.finished, v)
			} else {
				in.inflight[a] = append(in.inflight[a], lease{task: v, procs: int32(p), rem: d - 1})
				in.pinned[a] += p
			}
			in.readyUseful[a] -= u
			used += p
			slots -= p
		}
		in.ready[a] = q[:copy(q, q[i:])]
	}
	return used
}

// orderReady arranges the category's ready queue by the pick policy.
// Sorting is insertion sort — ready queues are small and the hot path
// must not allocate.
func (in *Instance) orderReady(a int) {
	q := in.ready[a]
	switch in.pick {
	case dag.PickFIFO:
	case dag.PickLIFO:
		for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
			q[i], q[j] = q[j], q[i]
		}
	case dag.PickRandom:
		in.rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
	case dag.PickCPFirst:
		h := in.job.heights
		for i := 1; i < len(q); i++ {
			for j := i; j > 0 && h[q[j]] > h[q[j-1]]; j-- {
				q[j], q[j-1] = q[j-1], q[j]
			}
		}
	case dag.PickCPLast:
		h := in.job.heights
		for i := 1; i < len(q); i++ {
			for j := i; j > 0 && h[q[j]] < h[q[j-1]]; j-- {
				q[j], q[j-1] = q[j-1], q[j]
			}
		}
	default:
		panic(fmt.Sprintf("moldable: unknown pick policy %d", in.pick))
	}
}

// Advance implements sim.RuntimeJob: release successors of tasks that
// finished this step. Finished tasks are processed in ascending ID order
// (insertion sort — no allocation, lists are small) so successor release
// order never depends on category iteration order.
func (in *Instance) Advance() {
	if len(in.finished) == 0 {
		return
	}
	f := in.finished
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && f[j] < f[j-1]; j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
	in.done += len(f)
	for _, u := range f {
		for _, v := range in.job.successors(u) {
			in.indeg[v]--
			if in.indeg[v] == 0 {
				a := in.job.cats[v] - 1
				in.ready[a] = append(in.ready[a], v)
				in.readyUseful[a] += in.job.Useful(int(v))
			}
		}
	}
	in.finished = in.finished[:0]
}

// Done implements sim.RuntimeJob.
func (in *Instance) Done() bool { return in.done == in.job.NumTasks() }

// RemainingWork implements sim.RuntimeJob for the clairvoyant oracle:
// serial work of unstarted tasks plus step remainders of in-flight
// leases, per category.
func (in *Instance) RemainingWork() []int {
	rem := make([]int, in.job.k)
	for a := range in.inflight {
		for _, l := range in.inflight[a] {
			rem[a] += int(l.rem)
		}
		for _, v := range in.ready[a] {
			rem[a] += in.job.works[v]
		}
	}
	for v := 0; v < in.job.NumTasks(); v++ {
		if in.indeg[v] > 0 {
			rem[in.job.cats[v]-1] += in.job.works[v]
		}
	}
	return rem
}

// HoldFor implements sim.HoldRuntime: with the whole frontier in flight
// (nothing ready), the instance stays held — desires pinned at the
// floors, no starts, no finishes — for min(rem) − 2 additional steps
// after the current one (the covered window must end at least one full
// step before the earliest finish, since event-leaps may never cross a
// completion). ≤ 0 means the next finish is too close to leap over.
func (in *Instance) HoldFor() int64 {
	min := int32(math.MaxInt32)
	any := false
	for a := range in.inflight {
		if len(in.ready[a]) > 0 {
			return 0
		}
		for _, l := range in.inflight[a] {
			any = true
			if l.rem < min {
				min = l.rem
			}
		}
	}
	if !any {
		return 0
	}
	return int64(min) - 2
}

// LeapHold implements sim.HoldRuntime: apply n held steps in closed form.
// The engine guarantees n ≤ HoldFor() + 1 computed this round, so every
// lease keeps at least one remaining step and no completion, start, or
// successor release falls inside the window — the per-step Execute(floor)
// + Advance sequence it replaces was pure lease countdown.
func (in *Instance) LeapHold(n int64) {
	for a := range in.inflight {
		lst := in.inflight[a]
		for i := range lst {
			lst[i].rem -= int32(n)
		}
	}
}

var (
	_ sim.FloorRuntime    = (*Instance)(nil)
	_ sim.HoldRuntime     = (*Instance)(nil)
	_ sim.ReusableRuntime = (*Instance)(nil)
)
