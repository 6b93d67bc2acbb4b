package analysis

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/sim"
)

// e3 reproduces the Theorem 1 / Figure 3 lower-bound experiment. For
// each (K, Pmax, m) it materializes the adversarial job set and runs K-RAD
// twice:
//
//   - adversarial run: the big job is submitted last (so the deterministic
//     round-robin reaches its level-1 task at the end of the first cycle)
//     and every job defers critical-path tasks (PickCPLast) — the adversary
//     of the proof;
//   - benign run: big job first, critical-path-first picking — the choices
//     the optimal clairvoyant schedule makes.
//
// The table reports the measured adversarial makespan against the paper's
// worst-case formula m·K·PK + m·PK − m, the benign makespan against the
// closed-form optimum T* = K + m·PK − 1, and the resulting ratio against
// the limit K + 1 − 1/Pmax. Expected shape: ratio climbs toward the limit
// as m grows and never exceeds it.
func e3(t *Table, opts Options) error {
	t.Header = []string{"K", "Pmax", "m", "jobs", "T adversarial", "paper worst", "T benign", "T* closed", "ratio", "limit K+1-1/Pmax"}
	for _, kp := range []struct{ k, p int }{{2, 2}, {2, 4}, {3, 2}, {3, 4}, {4, 4}, {5, 2}} {
		if opts.Quick && kp.k > 3 {
			continue
		}
		for _, m := range scale(opts, []int{1, 2, 4, 8, 16}, []int{1, 2, 4}) {
			caps := equalCaps(kp.k, kp.p)
			adv, err := dag.NewAdversarial(kp.k, m, caps)
			if err != nil {
				return err
			}
			makespan := func(bigLast bool, pick dag.PickPolicy) (int64, error) {
				res, err := run(sim.Config{Caps: caps, Pick: pick}, graphSpecs(adv.JobSet(bigLast)))
				if err != nil {
					return 0, err
				}
				return res.Makespan, nil
			}
			tAdv, err := makespan(true, dag.PickCPLast)
			if err != nil {
				return fmt.Errorf("E3 adversarial K=%d P=%d m=%d: %w", kp.k, kp.p, m, err)
			}
			tGood, err := makespan(false, dag.PickCPFirst)
			if err != nil {
				return fmt.Errorf("E3 benign K=%d P=%d m=%d: %w", kp.k, kp.p, m, err)
			}
			tStar := int64(adv.OptimalMakespan())
			ratio := float64(tAdv) / float64(tStar)
			limit := adv.LimitRatio()
			t.AddRow(kp.k, kp.p, m, adv.NumJobs(), tAdv, adv.WorstCaseMakespan(), tGood, tStar, ratio, limit)
			if ratio > limit+1e-9 {
				t.AddNote("FAIL: K=%d P=%d m=%d ratio %.3f exceeds the limit %.3f", kp.k, kp.p, m, ratio, limit)
			}
			if tAdv < int64(adv.WorstCaseMakespan()) {
				t.AddNote("FAIL: K=%d P=%d m=%d adversary weaker than the paper's bound (%d < %d)", kp.k, kp.p, m, tAdv, adv.WorstCaseMakespan())
			}
		}
	}
	t.AddNote("expected shape: ratio → K+1−1/Pmax from below as m grows; benign runs match the closed-form optimum")
	return nil
}
