package analysis

import (
	"fmt"

	"krad/internal/metrics"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e21 places the schedulers in the speed-augmentation framework the
// EQUI literature uses (Kalyanasundaram–Pruhs; Edmonds): give the online
// algorithm processors s× faster than the optimum it is compared to, and
// watch the competitive ratio collapse. Each row runs a scheduler at
// speed s ∈ {1, 2, 3} on a heavy batched workload and reports total
// response against the SPEED-1 lower bound (the adversary keeps unit
// speed). Expected shape: every scheduler's ratio drops sharply with s —
// at s = 2 the fair schedulers sit near or below 1.0, the empirical face
// of "EQUI is O(1)-competitive with (2+ε)-speed"; makespan ratios behave
// the same through the work term.
func e21(t *Table, opts Options) error {
	t.Header = []string{"scheduler", "speed", "makespan", "ms ratio (vs s=1 LB)", "total resp", "resp ratio (vs s=1 LB)"}
	const k = 2
	caps := []int{2, 2}
	specs, err := workload.Mix{
		K: k, Jobs: scale(opts, 40, 20), MinSize: 3, MaxSize: 30, Seed: opts.seed(),
	}.Generate()
	if err != nil {
		return err
	}

	// Unit-speed lower bounds: fixed denominators for every row.
	base, err := run(sim.Config{Caps: caps}, specs)
	if err != nil {
		return err
	}
	msLB := float64(metrics.MakespanLowerBound(base))
	respLB := metrics.ResponseLowerBound(base)

	for _, name := range []string{"k-rad", "equi", "laps", "rr-only"} {
		for _, s := range []int{1, 2, 3} {
			res, err := run(sim.Config{Caps: caps, Scheduler: mustScheduler(name, k), Speed: s}, specs)
			if err != nil {
				return fmt.Errorf("E21 %s speed %d: %w", name, s, err)
			}
			t.AddRow(name, s, res.Makespan,
				float64(res.Makespan)/msLB,
				res.TotalResponse(),
				float64(res.TotalResponse())/respLB)
		}
	}
	t.AddNote("denominators are the Section 4/6 lower bounds of the UNIT-speed instance, so a ratio below 1 means the augmented scheduler beats anything unit-speed processors could do — the standard resource-augmentation reading")
	return nil
}
