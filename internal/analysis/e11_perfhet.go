package analysis

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e11 exercises the paper's Section 8 challenge — combining functional
// and performance heterogeneity — in the uniform-per-category form
// supported by dag.Stretch: each category α carries a relative cost (an
// α-task occupies an α-processor for cost_α steps, modelled as a chain of
// cost_α unit tasks). Because the transform yields ordinary K-DAGs, the
// Theorem 3 and Theorem 6 guarantees must continue to hold verbatim on
// the stretched instances — which is exactly what the table verifies, for
// cost vectors modelling fast vector units and slow I/O processors.
func e11(t *Table, opts Options) error {
	t.Header = []string{"costs", "K", "caps", "jobs", "makespan", "ratio", "Thm3 bound", "MRT ratio", "Thm6 bound"}
	reps, jobs := scale(opts, 3, 2), scale(opts, 40, 20)
	const k = 3
	caps := []int{4, 4, 4}
	for _, costs := range [][]int{
		{1, 1, 1}, // homogeneous speeds (control row)
		{2, 1, 4}, // CPUs 2×, vector units 1×, I/O 4× cost
		{1, 3, 3},
		{4, 2, 1},
	} {
		worstMRT := 0.0
		worst, worstMs, err := opts.worstOf(reps, 53, func(seed int64) (*sim.Result, float64, error) {
			specs, err := workload.Mix{K: k, Jobs: jobs, MinSize: 4, MaxSize: 40, Seed: seed}.Generate()
			if err != nil {
				return nil, 0, err
			}
			for i := range specs {
				if specs[i].Graph, err = dag.Stretch(specs[i].Graph, costs); err != nil {
					return nil, 0, err
				}
			}
			res, err := run(sim.Config{Caps: caps}, specs)
			if err != nil {
				return nil, 0, err
			}
			r := metrics.ComputeRatios(res)
			worstMRT = max(worstMRT, r.ResponseRatio)
			return res, r.MakespanRatio, nil
		})
		if err != nil {
			return err
		}
		b3 := metrics.MakespanCompetitiveLimit(k, caps)
		b6 := metrics.ResponseCompetitiveLimit(k, jobs)
		t.AddRow(fmt.Sprint(costs), k, fmt.Sprint(caps), jobs, worst.Makespan, worstMs, b3, worstMRT, b6)
		if worstMs > b3 {
			t.AddNote("FAIL: costs %v makespan ratio %.3f exceeds %.3f", costs, worstMs, b3)
		}
		if worstMRT > b6 {
			t.AddNote("FAIL: costs %v MRT ratio %.3f exceeds %.3f", costs, worstMRT, b6)
		}
	}
	t.AddNote("per-category costs are realized by dag.Stretch (an α-task becomes a chain of cost_α unit tasks), so the stretched instances are ordinary K-DAGs and the paper's bounds must keep holding — the table verifies they do")
	t.AddNote("worst of %d seeded repetitions per row", reps)
	return nil
}
