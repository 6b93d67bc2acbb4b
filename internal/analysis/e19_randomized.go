package analysis

import (
	"fmt"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sim"
)

// e19 measures what randomization buys against the Theorem 1 adversary.
// The deterministic lower-bound construction relies on the adversary
// knowing which job the scheduler's fixed queue order reaches last; an
// oblivious adversary facing a randomized round-robin order (RandomRAD)
// cannot arrange that, so the big job's first critical task runs in
// expectation half a cycle earlier. The table replays the Figure 3
// instance against deterministic K-RAD and against randomized K-RAD
// (mean over seeds), both with the adversarial CP-last picker. Expected
// shape: deterministic ratios sit at the construction's exact value; the
// randomized mean is strictly smaller (≈ one half-cycle of the K-step
// pipeline saved), echoing the paper's remark that randomized algorithms
// have a weaker lower bound (2 − 1/√P at K = 1, Shmoys et al.).
func e19(t *Table, opts Options) error {
	t.Header = []string{"K", "Pmax", "m", "det T", "det ratio", "rand mean T", "rand mean ratio", "limit"}
	seeds := scale(opts, 9, 5)
	for _, kp := range []struct{ k, p int }{{2, 4}, {3, 2}, {3, 4}} {
		for _, m := range scale(opts, []int{2, 4, 8}, []int{2, 4}) {
			caps := equalCaps(kp.k, kp.p)
			adv, err := dag.NewAdversarial(kp.k, m, caps)
			if err != nil {
				return err
			}
			specs := graphSpecs(adv.JobSet(true))
			tStar := float64(adv.OptimalMakespan())

			det, err := run(sim.Config{Caps: caps, Pick: dag.PickCPLast}, specs)
			if err != nil {
				return err
			}
			mean, err := opts.meanOf(seeds, 101, func(seed int64) ([]float64, error) {
				res, err := run(sim.Config{Caps: caps, Scheduler: core.NewRandomKRAD(kp.k, seed), Pick: dag.PickCPLast}, specs)
				if err != nil {
					return nil, err
				}
				return []float64{float64(res.Makespan)}, nil
			})
			if err != nil {
				return err
			}

			detRatio := float64(det.Makespan) / tStar
			randRatio := mean[0] / tStar
			t.AddRow(kp.k, kp.p, m, det.Makespan, detRatio,
				fmt.Sprintf("%.1f", mean[0]), randRatio,
				metrics.MakespanCompetitiveLimit(kp.k, caps))
			if randRatio >= detRatio {
				t.AddNote("UNEXPECTED: randomization did not beat the deterministic adversary at K=%d P=%d m=%d (%.3f ≥ %.3f)", kp.k, kp.p, m, randRatio, detRatio)
			}
		}
	}
	t.AddNote("randomized rows are means over %d seeds; the oblivious adversary still defers critical tasks (CP-last) but cannot place the big job last in a random service order", seeds)
	return nil
}
