// Package baselines implements the comparison schedulers used by the
// experiment suite: the pure building blocks RAD unifies (DEQ alone, round
// robin alone, EQUI), arrival-order and greedy desire-filling policies, and
// a clairvoyant shortest-job-first scheduler that sees remaining work — the
// information the paper's algorithms are explicitly denied.
package baselines

import (
	"sort"

	"krad/internal/core"
	"krad/internal/sched"
)

// deqOnly always applies DEQ, even when the category is overloaded. With
// more α-active jobs than processors the equal share floors to zero and the
// remainder goes to the lowest-ID jobs, so late arrivals can starve — the
// failure mode RAD's round-robin cycles exist to fix.
type deqOnly struct{}

// NewDEQOnly returns the DEQ-without-RR scheduler for k categories.
func NewDEQOnly(k int) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = deqOnly{}
	}
	return sched.NewPerCategory("deq-only", cats)
}

func (deqOnly) Name() string { return "deq-only" }

func (deqOnly) Allot(t int64, jobs []sched.CatJob, p int) []int {
	desires := make([]int, len(jobs))
	for i, j := range jobs {
		desires[i] = j.Desire
	}
	// rot = 0: deliberately no rotation, exposing DEQ's overload unfairness.
	return core.Deq(desires, p, 0)
}

// rrOnly always time-shares in batched round-robin cycles, one processor
// per job per cycle, even when there are idle processors a wide job could
// use — the failure mode DEQ exists to fix.
type rrOnly struct {
	marked map[int]bool
	rot    int // rotates the cycle-completing bonus, as in core.RAD
}

// NewRROnly returns the round-robin-without-DEQ scheduler for k categories.
func NewRROnly(k int) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = &rrOnly{marked: make(map[int]bool)}
	}
	return sched.NewPerCategory("rr-only", cats)
}

func (r *rrOnly) Name() string { return "rr-only" }

func (r *rrOnly) Allot(t int64, jobs []sched.CatJob, p int) []int {
	allot := make([]int, len(jobs))
	if len(jobs) == 0 || p <= 0 {
		return allot
	}
	var q, qp []int
	for i, j := range jobs {
		if r.marked[j.ID] {
			qp = append(qp, i)
		} else {
			q = append(q, i)
		}
	}
	if len(q) > p {
		for _, i := range q[:p] {
			allot[i] = 1
			r.marked[jobs[i].ID] = true
		}
		return allot
	}
	// Cycle completes: give every unmarked job one processor, spend any
	// leftover on marked jobs (still one each — RR never space-shares),
	// rotating which marked jobs benefit across cycles.
	for _, i := range q {
		allot[i] = 1
	}
	left := p - len(q)
	if left > len(qp) {
		left = len(qp)
	}
	if left > 0 {
		start := r.rot % len(qp)
		for j := 0; j < left; j++ {
			allot[qp[(start+j)%len(qp)]] = 1
		}
		r.rot += left
	}
	clear(r.marked)
	return allot
}

func (r *rrOnly) JobsDone(ids []int) {
	for _, id := range ids {
		delete(r.marked, id)
	}
}

// equi is classic equi-partitioning: every α-active job receives an equal
// share of the α-processors regardless of how many tasks it can actually
// run, so processors granted beyond a job's desire are wasted. Analyzed by
// Edmonds et al. (2+√3-competitive for mean response time at K = 1).
type equi struct{}

// NewEQUI returns the equi-partitioning scheduler for k categories.
func NewEQUI(k int) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = equi{}
	}
	return sched.NewPerCategory("equi", cats)
}

func (equi) Name() string { return "equi" }

func (equi) Allot(t int64, jobs []sched.CatJob, p int) []int {
	allot := make([]int, len(jobs))
	n := len(jobs)
	if n == 0 || p <= 0 {
		return allot
	}
	share, extra := p/n, p%n
	start := int(t) % n
	for i := range allot {
		allot[i] = share
		if extra > 0 && (i-start+n)%n < extra {
			allot[i]++
		}
	}
	return allot
}

// fcfs fills desires in ascending job-ID (arrival) order with work-
// conserving backfill: the oldest job takes as much as it desires, then the
// next, until the category is exhausted.
type fcfs struct{}

// NewFCFS returns the arrival-order desire-filling scheduler for k
// categories.
func NewFCFS(k int) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = fcfs{}
	}
	return sched.NewPerCategory("fcfs", cats)
}

func (fcfs) Name() string { return "fcfs" }

func (fcfs) Allot(t int64, jobs []sched.CatJob, p int) []int {
	allot := make([]int, len(jobs))
	for i, j := range jobs {
		if p == 0 {
			break
		}
		a := j.Desire
		if a > p {
			a = p
		}
		allot[i] = a
		p -= a
	}
	return allot
}

// greedyDesire fills desires in descending-desire order (widest job first),
// a throughput-greedy heuristic that ignores fairness entirely.
type greedyDesire struct{}

// NewGreedyDesire returns the widest-job-first scheduler for k categories.
func NewGreedyDesire(k int) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = greedyDesire{}
	}
	return sched.NewPerCategory("greedy-desire", cats)
}

func (greedyDesire) Name() string { return "greedy-desire" }

func (greedyDesire) Allot(t int64, jobs []sched.CatJob, p int) []int {
	allot := make([]int, len(jobs))
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Desire > jobs[order[b]].Desire
	})
	for _, i := range order {
		if p == 0 {
			break
		}
		a := jobs[i].Desire
		if a > p {
			a = p
		}
		allot[i] = a
		p -= a
	}
	return allot
}

// SJF is the clairvoyant shortest-remaining-work-first scheduler: it orders
// jobs by total remaining work (information a non-clairvoyant scheduler
// cannot have) and fills their desires in that order per category. It is
// the "what could you do if you knew the future" yardstick in the
// experiment tables.
type SJF struct {
	oracle sched.Oracle
}

// NewSJF returns the clairvoyant baseline. The engine must inject an
// oracle via SetOracle before the first step.
func NewSJF() *SJF { return &SJF{} }

// Name implements sched.Scheduler.
func (s *SJF) Name() string { return "sjf-clairvoyant" }

// SetOracle implements sched.Clairvoyant.
func (s *SJF) SetOracle(o sched.Oracle) { s.oracle = o }

// Allot implements sched.Scheduler.
func (s *SJF) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	allot := make([][]int, len(jobs))
	for i := range allot {
		allot[i] = make([]int, len(caps))
	}
	if s.oracle == nil {
		panic("baselines: SJF used without an oracle; the engine must call SetOracle")
	}
	order := make([]int, len(jobs))
	rem := make([]int, len(jobs))
	for i := range jobs {
		order[i] = i
		total := 0
		for _, w := range s.oracle.RemainingWork(jobs[i].ID) {
			total += w
		}
		rem[i] = total
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] < rem[order[b]] })
	for a, p := range caps {
		left := p
		for _, i := range order {
			if left == 0 {
				break
			}
			d := jobs[i].Desire[a]
			if d > left {
				d = left
			}
			allot[i][a] = d
			left -= d
		}
	}
	return allot
}

var (
	_ sched.Scheduler         = (*SJF)(nil)
	_ sched.Clairvoyant       = (*SJF)(nil)
	_ sched.CategoryScheduler = deqOnly{}
	_ sched.CategoryScheduler = (*rrOnly)(nil)
	_ sched.Completer         = (*rrOnly)(nil)
	_ sched.CategoryScheduler = equi{}
	_ sched.CategoryScheduler = fcfs{}
	_ sched.CategoryScheduler = greedyDesire{}
)
