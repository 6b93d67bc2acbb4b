package analysis

import (
	"fmt"

	"krad/internal/core"
	"krad/internal/profile"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e14 replays the Theorem 5 proof mechanics: at every step of a
// light-workload batched run it re-evaluates the induction's per-step
// Inequality (8), Δr ≤ c·Σα Δswa(α) + ΔT∞, on the live job state.
//
// Three replays per configuration:
//
//   - dag / profile rows use the library's integral DEQ (whole processors).
//     Here sub-unit deficits can occur: the paper's Lemma 4 application
//     assumes all deprived jobs receive exactly the same "mean deprived
//     allotment", which integral processors cannot always realize. The
//     observed deficits stay below one processor-step — a rounding gap of
//     the processor-sharing idealization, not an algorithm bug — and the
//     end-to-end Theorem 5 bound (E5) holds regardless.
//   - fluid rows replay the same workloads with real-valued shares, the
//     model the proof actually argues in. There the inequality must hold
//     at every step (and is frequently tight) — which is what the table
//     verifies.
func e14(t *Table, opts Options) error {
	t.Header = []string{"replay", "K", "caps", "jobs", "steps checked", "violations", "max deficit", "min slack"}
	reps := scale(opts, 4, 2)
	for _, c := range []struct {
		k    int
		caps []int
		n    int
	}{
		{1, []int{8}, 6},
		{2, []int{8, 8}, 8},
		{3, []int{6, 6, 6}, 6},
		{4, []int{8, 8, 8, 8}, 8},
	} {
		for _, repr := range []string{"dag (integral)", "profile (integral)", "profile (fluid)"} {
			sum := InductionReport{MinSlack: 1e18}
			for rep := 0; rep < reps; rep++ {
				seed := opts.seed() + int64(rep)*41
				var specs []sim.JobSpec
				var err error
				if repr == "dag (integral)" {
					specs, err = workload.Mix{K: c.k, Jobs: c.n, MinSize: 4, MaxSize: 40, Seed: seed}.Generate()
				} else {
					specs, err = profile.Generate(profile.GenOpts{
						K: c.k, Jobs: c.n, MinPhases: 1, MaxPhases: 6, MaxParallelism: 10, Seed: seed,
					})
				}
				if err != nil {
					return err
				}
				var report *InductionReport
				if repr == "profile (fluid)" {
					jobs := make([]*profile.Job, len(specs))
					for i, s := range specs {
						jobs[i] = s.Source.(*profile.Job)
					}
					report, err = CheckInequality8Fluid(c.k, c.caps, jobs)
				} else {
					sources := make([]sim.JobSource, len(specs))
					for i, s := range specs {
						sources[i] = s.Source
						if s.Graph != nil {
							sources[i] = sim.GraphSource(s.Graph)
						}
					}
					report, err = CheckInequality8(c.k, c.caps, sources, core.NewKRAD(c.k))
				}
				if err != nil {
					return err
				}
				sum.Steps += report.Steps
				sum.Violations += report.Violations
				sum.MinSlack = min(sum.MinSlack, report.MinSlack)
				sum.MaxDeficit = max(sum.MaxDeficit, report.MaxDeficit)
			}
			t.AddRow(repr, c.k, fmt.Sprint(c.caps), c.n, sum.Steps, sum.Violations, sum.MaxDeficit, sum.MinSlack)
			if repr == "profile (fluid)" && sum.Violations > 0 {
				t.AddNote("FAIL: fluid replay violated Inequality (8) — the proof's own model broke (K=%d n=%d)", c.k, c.n)
			}
			if repr != "profile (fluid)" && sum.MaxDeficit >= 1 {
				t.AddNote("FAIL: integral replay deficit %.3f ≥ 1 processor-step (K=%d n=%d) — beyond the rounding gap", sum.MaxDeficit, c.k, c.n)
			}
		}
	}
	t.AddNote("light-load batched runs (n ≤ min Pα) over %d seeds per row; min slack is the tightest margin RHS−LHS observed", reps)
	t.AddNote("reproduction finding: with integral processors the per-step inequality can dip below zero by < 1 — the paper's 'mean deprived allotment' is exactly equal only under real-valued (fluid) shares, where the replay confirms the inequality holds and is often tight")
	return nil
}
