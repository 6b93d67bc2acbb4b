package analysis

import (
	"fmt"
	"strings"

	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e18 replays an archive-style workload log: a seeded synthetic log in
// the Standard Workload Format (the Parallel Workloads Archive format) is
// parsed into rigid jobs — p processors for t steps, the SWF semantics —
// and scheduled by K-RAD and the main baselines on a K = 3 machine with
// partition-based category assignment. Expected shape: K-RAD's makespan
// ratio against the Section 4 lower bound stays under the Theorem 3
// bound on real-shaped (bursty submits, power-of-two widths, heavy-tailed
// runtimes) traffic, and the fair/unfair scheduler ordering from E8/E17
// persists on log-shaped workloads.
func e18(t *Table, opts Options) error {
	t.Header = []string{"scheduler", "jobs", "makespan", "ratio", "Thm3 bound", "mean resp", "max resp", "util/cat"}
	nJobs := scale(opts, 200, 60)
	var log strings.Builder
	if err := workload.WriteSyntheticSWF(&log, nJobs, opts.seed()); err != nil {
		return err
	}
	const k = 3
	caps := []int{16, 16, 16}
	specs, _, err := workload.ParseSWF(strings.NewReader(log.String()), workload.SWFOptions{
		K: k, TimeScale: 60, MaxProcs: 16,
		Category: func(rec workload.SWFRecord, _ int) dag.Category {
			return dag.Category((max(rec.Partition, 1)-1)%k + 1)
		},
	})
	if err != nil {
		return err
	}

	for _, name := range []string{"k-rad", "deq-only", "rr-only", "equi", "fcfs"} {
		res, err := run(sim.Config{Caps: caps, Scheduler: mustScheduler(name, k)}, specs)
		if err != nil {
			return fmt.Errorf("E18 %s: %w", name, err)
		}
		r := metrics.ComputeRatios(res)
		var util []string
		for _, u := range res.Utilization() {
			util = append(util, fmt.Sprintf("%.0f%%", 100*u))
		}
		t.AddRow(name, len(specs), res.Makespan, r.MakespanRatio, r.MakespanBound,
			fmt.Sprintf("%.1f", res.MeanResponse()), maxResponse(res), strings.Join(util, "/"))
		if name == "k-rad" && r.MakespanRatio > r.MakespanBound {
			t.AddNote("FAIL: K-RAD violated Theorem 3 on the SWF replay (ratio %.3f)", r.MakespanRatio)
		}
	}
	t.AddNote("synthetic SWF log (%d submitted jobs), rigid p×t jobs, categories from the log's partition field mod K", nJobs)
	return nil
}
