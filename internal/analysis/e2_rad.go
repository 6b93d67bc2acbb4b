package analysis

import (
	"math/rand"

	"krad/internal/core"
	"krad/internal/sched"
)

// e2 stress-tests the Figure 2 allocation invariants over randomized
// desire streams and reports violation counts (all columns must be zero):
//
//   - capacity:   Σi a(Ji,α,t) ≤ Pα
//   - desire:     a(Ji,α,t) ≤ d(Ji,α,t)
//   - conserving: active jobs ⇒ at least one processor allotted
//   - deq-equal:  deprived jobs' allotments within one of each other when
//     DEQ is in charge (job count ≤ P)
//   - rr-cycle:   under overload, no job is scheduled a second time before
//     the cycle-completing step that serves every remaining job
func e2(t *Table, opts Options) error {
	t.Header = []string{"trial set", "steps", "capacity viol", "desire viol", "idle viol", "deq-equal viol", "rr-cycle viol"}
	trials, steps := scale(opts, 200, 40), scale(opts, 120, 60)
	configs := []struct {
		name    string
		p       int
		minJobs int
		maxJobs int
	}{
		{"light (n ≤ P)", 8, 1, 8},
		{"boundary (n ≈ P)", 6, 5, 7},
		{"overload (n ≫ P)", 3, 10, 24},
		{"single processor", 1, 2, 10},
	}
	rng := rand.New(rand.NewSource(opts.seed()))
	for _, c := range configs {
		var capV, desV, idleV, eqV, rrV int
		for trial := 0; trial < trials; trial++ {
			r := core.NewRAD()
			// The job population is fixed within a trial (desires still
			// vary each step) so round-robin cycles are observable from
			// the outside.
			n := c.minJobs + rng.Intn(c.maxJobs-c.minJobs+1)
			servedThisCycle := map[int]bool{}
			for step := 1; step <= steps; step++ {
				jobs := make([]sched.CatJob, n)
				for i := range jobs {
					jobs[i] = sched.CatJob{ID: i, Desire: 1 + rng.Intn(12)}
				}
				allot := r.Allot(int64(step), jobs, c.p)
				total := 0
				for i := range jobs {
					if allot[i] > jobs[i].Desire || allot[i] < 0 {
						desV++
					}
					total += allot[i]
				}
				if total > c.p {
					capV++
				}
				if total == 0 && n > 0 {
					idleV++
				}
				if n > c.p {
					// Overload: cycle accounting. A job re-served strictly
					// before the cycle-completing step is a violation; the
					// completing step (after which everyone has been
					// served) may legitimately re-serve "bonus" jobs.
					doubles := 0
					for i := range jobs {
						if allot[i] > 0 {
							if servedThisCycle[i] {
								doubles++
							}
							servedThisCycle[i] = true
						}
					}
					if len(servedThisCycle) >= n {
						servedThisCycle = map[int]bool{} // cycle complete
					} else if doubles > 0 {
						rrV++
					}
				} else {
					servedThisCycle = map[int]bool{}
					// DEQ regime: deprived allotments within one.
					min, max := 1<<30, -1
					for i := range jobs {
						if allot[i] < jobs[i].Desire {
							if allot[i] < min {
								min = allot[i]
							}
							if allot[i] > max {
								max = allot[i]
							}
						}
					}
					if max >= 0 && max-min > 1 {
						eqV++
					}
				}
			}
		}
		t.AddRow(c.name, trials*steps, capV, desV, idleV, eqV, rrV)
		if capV+desV+idleV+eqV+rrV > 0 {
			t.AddNote("FAIL: %s produced invariant violations", c.name)
		}
	}
	t.AddNote("expected shape: every violation column is zero across all %d randomized steps per row", trials*steps)
	return nil
}
