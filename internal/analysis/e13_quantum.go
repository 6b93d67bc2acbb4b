package analysis

import (
	"krad/internal/core"
	"krad/internal/metrics"
	"krad/internal/sched"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e13 measures the cost of a scheduling quantum: real two-level systems
// (the RAD lineage's deployment model) cannot re-partition processors at
// every unit step, so sched.Quantized re-runs K-RAD's allocator only every
// L steps and holds allotments in between. The table sweeps L and reports
// makespan and MRT ratios against the same lower bounds as E4/E6. Expected
// shape: L = 1 reproduces plain K-RAD exactly; ratios degrade gracefully
// (roughly linearly in L for span-bound workloads) as allotments go stale
// between boundaries.
func e13(t *Table, opts Options) error {
	t.Header = []string{"quantum L", "jobs", "makespan", "makespan ratio", "Thm3 bound (L=1)", "MRT ratio", "vs L=1 makespan"}
	const k = 3
	caps := []int{4, 4, 4}
	jobs := scale(opts, 40, 20)
	specs, err := workload.Mix{
		K: k, Jobs: jobs, MinSize: 4, MaxSize: 50, Seed: opts.seed(),
	}.Generate()
	if err != nil {
		return err
	}
	totalWork := int64(totalTasks(specs))

	var base int64
	for _, l := range scale(opts, []int64{1, 2, 4, 8, 16}, []int64{1, 4, 16}) {
		var s sched.Scheduler = core.NewKRAD(k)
		if l > 1 {
			s = sched.NewQuantized(s, l)
		}
		res, err := run(sim.Config{
			Caps: caps, Scheduler: s,
			// Stale allotments can idle a job for up to L−1 steps, so the
			// runaway guard must scale with the quantum.
			MaxSteps: (l + 4) * (4*totalWork + 64),
		}, specs)
		if err != nil {
			return err
		}
		if l == 1 {
			base = res.Makespan
		}
		r := metrics.ComputeRatios(res)
		t.AddRow(l, jobs, res.Makespan, r.MakespanRatio, r.MakespanBound, r.ResponseRatio,
			float64(res.Makespan)/float64(base))
		if l == 1 && r.MakespanRatio > r.MakespanBound {
			t.AddNote("FAIL: L=1 violates Theorem 3")
		}
	}
	t.AddNote("the Theorem 3/6 guarantees are proven for L = 1 (allotments recomputed every step); larger quanta are outside the theorems and show the price of realistic reallocation periods")
	return nil
}
