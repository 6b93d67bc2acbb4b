package analysis

import (
	"fmt"
	"slices"

	"krad/internal/core"
	"krad/internal/metrics"
	"krad/internal/sched"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e17 measures reallocation churn — processors reassigned between jobs
// per scheduling step — for every scheduler on a common overloaded
// heterogeneous workload, alongside the performance it buys. The paper's
// model reallocates for free; real systems pay per migration, which is why
// the E13 quantum exists. Expected shape: gang scheduling churns the least
// (whole-machine handoffs only at quantum boundaries), run-to-completion
// policies (fcfs, deq-only) churn little, and the fair time-sharing family
// (k-rad, rr-only, equi, laps) pays the most churn — k-rad's quantized
// variant buys most of gang's churn reduction at a fraction of its
// makespan cost.
func e17(t *Table, opts Options) error {
	t.Header = []string{"scheduler", "jobs", "makespan", "mean resp", "total churn", "churn/step"}
	const k = 3
	caps := []int{4, 4, 4}
	jobs := scale(opts, 60, 30)
	specs, err := workload.Mix{
		K: k, Jobs: jobs, MinSize: 4, MaxSize: 40, Seed: opts.seed(),
	}.Generate()
	if err != nil {
		return err
	}
	totalWork := int64(totalTasks(specs))
	quantized := namedScheduler{"k-rad-quantized(8)", func(k int) sched.Scheduler { return sched.NewQuantized(core.NewKRAD(k), 8) }}
	for _, s := range append(slices.Clip(schedulers), quantized) {
		churn := metrics.NewChurn(k)
		res, err := run(sim.Config{
			Caps: caps, Scheduler: s.mk(k),
			Observer: churn.Observer(),
			MaxSteps: 12 * (4*totalWork + 64),
		}, specs)
		if err != nil {
			return fmt.Errorf("E17 %s: %w", s.name, err)
		}
		t.AddRow(s.name, jobs, res.Makespan, fmt.Sprintf("%.1f", res.MeanResponse()),
			churn.Total, fmt.Sprintf("%.2f", churn.PerStep()))
	}
	t.AddNote("churn = processors reassigned between jobs per step (half-L1 of consecutive allotment vectors); the scheduler rows share one workload, so columns are directly comparable")
	return nil
}
