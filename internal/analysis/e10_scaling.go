package analysis

import (
	"fmt"
	"time"

	"krad/internal/core"
	"krad/internal/sim"
	"krad/internal/workload"
)

// e10 measures reproduction-infrastructure throughput: simulated tasks
// per second as the job count grows. It is a performance report, not a
// theorem check, so it times the bare engine: no allotment validation.
func e10(t *Table, opts Options) error {
	t.Header = []string{"jobs", "tasks", "K", "makespan", "wall", "tasks/sec"}
	const k = 3
	caps := []int{8, 8, 8}
	for _, n := range scale(opts, []int{100, 400, 1600}, []int{50, 200}) {
		specs, err := workload.Mix{
			K: k, Jobs: n, MinSize: 10, MaxSize: 60, Seed: opts.seed(),
		}.Generate()
		if err != nil {
			return err
		}
		tasks := totalTasks(specs)
		start := time.Now()
		res, err := sim.Run(sim.Config{K: k, Caps: caps, Scheduler: core.NewKRAD(k)}, specs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		rate := float64(tasks) / wall.Seconds()
		t.AddRow(n, tasks, k, res.Makespan,
			wall.Round(time.Microsecond).String(), fmt.Sprintf("%.0f", rate))
	}
	t.AddNote("expected shape: throughput in the millions of tasks/sec")
	return nil
}
