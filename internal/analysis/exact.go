package analysis

import (
	"fmt"
	"sort"

	"krad/internal/dag"
)

// ExactMakespan computes the true optimal clairvoyant makespan T*(J) of a
// tiny batched job set by breadth-first search over execution states. A
// state is the set of executed tasks of every job; each step the search
// branches over every maximal feasible choice of ready tasks within the
// per-category capacities. Exponential — intended for instances with at
// most ~20 total tasks — but exact, which turns measured "ratio vs lower
// bound" numbers into measured "ratio vs optimum" numbers (experiment
// E20).
//
// Jobs must each have ≤ 64 tasks (state is one uint64 bitmask per job).
func ExactMakespan(k int, caps []int, jobs []*dag.Graph) (int, error) {
	if len(caps) != k {
		return 0, fmt.Errorf("analysis: %d caps for K=%d", len(caps), k)
	}
	total := 0
	for i, g := range jobs {
		if g.K() != k {
			return 0, fmt.Errorf("analysis: job %d has K=%d, want %d", i, g.K(), k)
		}
		if g.NumTasks() > 64 {
			return 0, fmt.Errorf("analysis: job %d has %d tasks; exact search caps at 64", i, g.NumTasks())
		}
		total += g.NumTasks()
	}
	if total > 24 {
		return 0, fmt.Errorf("analysis: %d total tasks; exact search caps at 24", total)
	}

	type state []uint64
	key := func(s state) string {
		b := make([]byte, 0, len(s)*8)
		for _, v := range s {
			for i := 0; i < 8; i++ {
				b = append(b, byte(v>>(8*i)))
			}
		}
		return string(b)
	}
	goal := make(state, len(jobs))
	for i, g := range jobs {
		goal[i] = (uint64(1) << g.NumTasks()) - 1
		if g.NumTasks() == 64 {
			goal[i] = ^uint64(0)
		}
	}
	isGoal := func(s state) bool {
		for i := range s {
			if s[i] != goal[i] {
				return false
			}
		}
		return true
	}

	// preds[j][id] has a bit set for each predecessor of job j's task id.
	preds := make([][]uint64, len(jobs))
	for j, g := range jobs {
		preds[j] = make([]uint64, g.NumTasks())
		for u := 0; u < g.NumTasks(); u++ {
			for _, v := range g.Successors(dag.TaskID(u)) {
				preds[j][v] |= 1 << u
			}
		}
	}
	// ready lists the ready tasks of job j in state done, per category.
	ready := func(j int, done uint64) [][]int {
		g, out := jobs[j], make([][]int, k)
		for id, mask := range preds[j] {
			if done&(1<<id) == 0 && done&mask == mask {
				c := int(g.Category(dag.TaskID(id))) - 1
				out[c] = append(out[c], id)
			}
		}
		return out
	}

	start := make(state, len(jobs))
	frontier := []state{start}
	seen := map[string]bool{key(start): true}
	for step := 0; step <= 4*total+4; step++ {
		var next []state
		for _, s := range frontier {
			if isGoal(s) {
				return step, nil
			}
			// Per category, enumerate which ready tasks run. Running more
			// tasks never hurts (unit tasks, no future conflicts), so only
			// maximal choices matter: if ready ≤ cap run all; otherwise
			// branch over every cap-subset.
			type slot struct{ job, task int }
			perCat := make([][][]slot, k) // category → choices → selected
			for a := 0; a < k; a++ {
				var pool []slot
				for j := range jobs {
					for _, id := range ready(j, s[j])[a] {
						pool = append(pool, slot{j, id})
					}
				}
				if len(pool) <= caps[a] {
					perCat[a] = [][]slot{pool}
					continue
				}
				var choices [][]slot
				var rec func(pos, from int, cur []slot)
				rec = func(pos, from int, cur []slot) {
					if pos == caps[a] {
						choices = append(choices, append([]slot(nil), cur...))
						return
					}
					for i := from; i <= len(pool)-(caps[a]-pos); i++ {
						rec(pos+1, i+1, append(cur, pool[i]))
					}
				}
				rec(0, 0, nil)
				perCat[a] = choices
			}
			// Cartesian product of per-category choices.
			var combine func(a int, cur state)
			combine = func(a int, cur state) {
				if a == k {
					kk := key(cur)
					if !seen[kk] {
						seen[kk] = true
						next = append(next, append(state(nil), cur...))
					}
					return
				}
				for _, choice := range perCat[a] {
					ns := append(state(nil), cur...)
					for _, sl := range choice {
						ns[sl.job] |= 1 << sl.task
					}
					combine(a+1, ns)
				}
			}
			combine(0, s)
		}
		if len(next) == 0 {
			// Every successor was already seen and no frontier state is
			// the goal — should not happen for valid inputs, but guard
			// against an infinite loop.
			break
		}
		// The seen map dedupes; sort for deterministic expansion order.
		sort.Slice(next, func(i, j int) bool { return key(next[i]) < key(next[j]) })
		frontier = next
	}
	return 0, fmt.Errorf("analysis: exact search did not terminate")
}
