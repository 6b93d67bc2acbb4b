package analysis

import (
	"fmt"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sim"
	"krad/internal/workload"
)

// RunE10 measures reproduction-infrastructure throughput: simulated tasks
// per second as the job count grows. It is a performance report, not a
// theorem check.
func RunE10(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Simulator throughput scaling",
		Header: []string{"jobs", "tasks", "K", "makespan", "wall", "tasks/sec"},
	}
	sizes := []int{100, 400, 1600}
	if opts.Quick {
		sizes = []int{50, 200}
	}
	const k = 3
	caps := []int{8, 8, 8}
	for _, n := range sizes {
		specs, err := workload.Mix{
			K: k, Jobs: n, MinSize: 10, MaxSize: 60, Seed: opts.seed(),
		}.Generate()
		if err != nil {
			return nil, err
		}
		tasks := 0
		for _, s := range specs {
			tasks += s.Graph.NumTasks()
		}
		cfg := sim.Config{K: k, Caps: caps, Scheduler: core.NewKRAD(k), Pick: dag.PickFIFO}
		start := time.Now()
		res, err := sim.Run(cfg, specs)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		rate := float64(tasks) / wall.Seconds()
		t.AddRow(n, tasks, k, res.Makespan,
			wall.Round(time.Microsecond).String(), fmt.Sprintf("%.0f", rate))
	}
	t.AddNote("expected shape: throughput in the millions of tasks/sec")
	return t, nil
}
