package analysis

import (
	"krad/internal/metrics"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e8 compares K-RAD against every baseline on heterogeneous (K = 3)
// workloads spanning the light and heavy regimes, reporting makespan and
// mean response time (averaged over seeds) plus each scheduler's makespan
// normalized to K-RAD's. Expected shape: K-RAD within a few percent of the
// best non-clairvoyant baseline on makespan everywhere, clearly ahead of
// rr-only on light-load makespan and ahead of deq-only/fcfs on heavy-load
// mean response time; the clairvoyant SJF oracle may beat everyone on MRT.
func e8(t *Table, opts Options) error {
	t.Header = []string{"workload", "scheduler", "mean makespan", "vs k-rad", "mean MRT", "MRT ratio vs LB"}
	const k = 3
	caps := []int{4, 4, 4}
	reps := scale(opts, 4, 2)
	type load struct {
		name string
		n    int
	}
	for _, wl := range scale(opts,
		[]load{{"light (n<P)", 4}, {"moderate", 24}, {"heavy (n≫P)", 96}},
		[]load{{"light (n<P)", 4}, {"heavy (n≫P)", 48}}) {
		kradMakespan := 0.0
		for _, s := range schedulers {
			mean, err := opts.meanOf(reps, 311, func(seed int64) ([]float64, error) {
				res, err := runMix(sim.Config{Caps: caps, Scheduler: s.mk(k)},
					workload.Mix{K: k, Jobs: wl.n, MinSize: 4, MaxSize: 60, Seed: seed})
				if err != nil {
					return nil, err
				}
				return []float64{float64(res.Makespan), res.MeanResponse(), metrics.CheckTheorem6(res).Measured}, nil
			})
			if err != nil {
				return err
			}
			if s.name == "k-rad" {
				kradMakespan = mean[0]
			}
			t.AddRow(wl.name, s.name, mean[0], mean[0]/kradMakespan, mean[1], mean[2])
		}
	}
	t.AddNote("means over %d seeds; 'vs k-rad' is makespan normalized to K-RAD's (1.000 = equal; >1 = slower)", reps)
	t.AddNote("expected shape: rr-only degrades on light load (no space sharing); deq-only/fcfs degrade MRT under overload (late jobs starve); sjf-oracle is clairvoyant and marks the information ceiling")
	return nil
}
