package analysis

import (
	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sim"
)

// e15 measures the price of fairness the paper's related-work section
// leans on: Motwani et al. prove round robin is 2-competitive for batched
// mean response time and that the bound is tight — the tight instance is a
// batch of identical jobs, where any fair (rate-equalizing) scheduler
// finishes everything at ≈ the same late time while run-to-completion
// staggers completions. The experiment runs batches of n identical chains
// on one category and reports each scheduler's total response normalized
// to FCFS run-to-completion (the optimal order for identical jobs).
// Expected shape: the k-rad and rr-only ratios climb toward 2 as n grows
// and never exceed it (matching the [22] bound); the Theorem 5/6
// machinery still holds since their lower bounds absorb the factor.
func e15(t *Table, opts Options) error {
	t.Header = []string{"n jobs", "chain len", "P", "scheduler", "total resp", "vs run-to-completion", "Thm6 check"}
	const chainLen = 12
	const p = 2
	for _, n := range scale(opts, []int{4, 8, 16, 32, 64}, []int{4, 16, 32}) {
		specs := make([]sim.JobSpec, n)
		for i := range specs {
			specs[i] = sim.JobSpec{Graph: dag.UniformChain(1, chainLen, 1)}
		}
		// The first row, fcfs, is the run-to-completion baseline.
		var base *sim.Result
		for _, name := range []string{"fcfs", "k-rad", "rr-only", "equi"} {
			res, err := run(sim.Config{Caps: []int{p}, Scheduler: mustScheduler(name, 1)}, specs)
			if err != nil {
				return err
			}
			label := name
			if base == nil {
				base, label = res, "fcfs (run-to-completion)"
			}
			ratio := float64(res.TotalResponse()) / float64(base.TotalResponse())
			check := "n/a"
			if name == "k-rad" {
				bc := metrics.CheckTheorem6(res)
				check = holds(bc.OK)
				if !bc.OK {
					t.AddNote("FAIL: Theorem 6 violated at n=%d", n)
				}
			}
			t.AddRow(n, chainLen, p, label, res.TotalResponse(), ratio, check)
			if res != base && ratio > 2.0+2.0/float64(n) {
				t.AddNote("FAIL: %s ratio %.3f exceeds the tight factor 2 (+1/n slack) at n=%d", label, ratio, n)
			}
		}
	}
	t.AddNote("identical chains make run-to-completion the optimal order; fair schedulers pay up to 2× on total response — exactly the [22] tight bound, and why RAD accepts it in exchange for bounded starvation (E9)")
	return nil
}
