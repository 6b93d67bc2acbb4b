package analysis

import (
	"fmt"

	"krad/internal/metrics"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e5 validates Theorem 5: for batched job sets that stay in the light-
// workload regime (|J(α,t)| ≤ Pα throughout — guaranteed here by keeping
// the job count at or below every category's processor count), the total
// response time obeys Inequality (5) and the competitive ratio against the
// Section 6 lower bound stays below 2K + 1 − 2K/(n+1).
func e5(t *Table, opts Options) error {
	t.Header = []string{"K", "caps", "jobs", "light?", "R(J)", "R LB", "ratio", "bound 2K+1-2K/(n+1)", "ineq5 rhs", "ineq5"}
	reps := scale(opts, 5, 2)
	for _, c := range []struct {
		k    int
		caps []int
		n    int
	}{
		{1, []int{8}, 2}, {1, []int{8}, 8},
		{2, []int{8, 8}, 4}, {2, []int{8, 8}, 8},
		{3, []int{8, 8, 8}, 8}, {3, []int{16, 16, 16}, 12},
		{4, []int{8, 8, 8, 8}, 6},
	} {
		ineqOK, allLight := true, true
		worst, worstRatio, err := opts.worstOf(reps, 77, func(seed int64) (*sim.Result, float64, error) {
			res, err := runMix(sim.Config{Caps: c.caps}, workload.Mix{K: c.k, Jobs: c.n, MinSize: 6, MaxSize: 60, Seed: seed})
			if err != nil {
				return nil, 0, err
			}
			// n ≤ min caps keeps every run light; a heavy one would
			// invalidate the row.
			i5, light := metrics.CheckInequality5(res)
			allLight = allLight && light
			ineqOK = ineqOK && (!light || i5.OK)
			bc, _ := metrics.CheckTheorem5(res)
			return res, bc.Measured, nil
		})
		if err != nil {
			return err
		}
		bound := metrics.ResponseCompetitiveLimitLight(c.k, c.n)
		t.AddRow(c.k, fmt.Sprint(c.caps), c.n, allLight,
			worst.TotalResponse(), metrics.ResponseLowerBound(worst), worstRatio, bound,
			metrics.ResponseUpperBoundLight(worst), holds(ineqOK))
		if worstRatio > bound {
			t.AddNote("FAIL: K=%d n=%d ratio %.3f exceeds bound %.3f", c.k, c.n, worstRatio, bound)
		}
		if !ineqOK {
			t.AddNote("FAIL: K=%d n=%d Inequality (5) violated", c.k, c.n)
		}
		if !allLight {
			t.AddNote("FAIL: K=%d n=%d unexpectedly left the light-workload regime", c.k, c.n)
		}
	}
	t.AddNote("worst of %d seeded repetitions per row; expected shape: ratios well below the theorem bound (typically < 2)", reps)
	return nil
}

// e6 validates Theorem 6: for arbitrary batched sets — here heavily
// overloaded ones, many more jobs than processors in every category — the
// MRT competitive ratio stays below 4K + 1 − 4K/(n+1).
func e6(t *Table, opts Options) error {
	t.Header = []string{"K", "caps", "jobs", "overloaded?", "mean resp", "R(J)", "R LB", "ratio", "bound 4K+1-4K/(n+1)"}
	reps := scale(opts, 3, 2)
	for _, c := range []struct {
		k    int
		caps []int
	}{
		{1, []int{2}},
		{2, []int{2, 2}},
		{3, []int{2, 4, 2}},
		{4, []int{2, 2, 2, 2}},
	} {
		for _, n := range scale(opts, []int{50, 100, 200}, []int{30, 60}) {
			sawOverload := false
			worst, worstRatio, err := opts.worstOf(reps, 131, func(seed int64) (*sim.Result, float64, error) {
				res, err := runMix(sim.Config{Caps: c.caps}, workload.Mix{K: c.k, Jobs: n, MinSize: 2, MaxSize: 30, Seed: seed})
				if err != nil {
					return nil, 0, err
				}
				sawOverload = sawOverload || res.EverOverloaded()
				return res, metrics.CheckTheorem6(res).Measured, nil
			})
			if err != nil {
				return err
			}
			bound := metrics.ResponseCompetitiveLimit(c.k, n)
			t.AddRow(c.k, fmt.Sprint(c.caps), n, sawOverload,
				fmt.Sprintf("%.1f", worst.MeanResponse()),
				worst.TotalResponse(), metrics.ResponseLowerBound(worst), worstRatio, bound)
			if worstRatio > bound {
				t.AddNote("FAIL: K=%d n=%d ratio %.3f exceeds bound %.3f", c.k, n, worstRatio, bound)
			}
		}
	}
	t.AddNote("worst of %d seeded repetitions per row; expected shape: ratios below the 4K+1 bound, growing mildly with K", reps)
	return nil
}
