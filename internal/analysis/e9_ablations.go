package analysis

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/sim"
)

// e9 isolates the two failure modes RAD's design eliminates, using
// workloads constructed to trigger each:
//
//   - "starvation": long chains submitted ahead of many short jobs on few
//     processors. A scheduler without round-robin cycling (deq-only, fcfs)
//     lets the chains monopolize the machine for their whole length, so
//     every short job's response time is the chains' duration. RAD's
//     cycles slip the shorts through within their first round-robin turn.
//   - "waste": one wide job alongside trivial ones on a wide machine. A
//     scheduler without space sharing (rr-only) caps the wide job at one
//     processor per cycle, stretching the makespan; DEQ hands it the idle
//     processors.
//
// The table reports makespan, mean and max response time for each
// scheduler on both workloads.
func e9(t *Table, opts Options) error {
	t.Header = []string{"workload", "scheduler", "makespan", "mean resp", "max resp"}
	nShort, chainLen, wideWidth := scale(opts, 40, 20), scale(opts, 150, 60), scale(opts, 64, 32)

	// Workload A: starvation probe. Two long chains submitted first (so
	// they hold the lowest IDs, which deq-only serves preferentially),
	// followed by many unit jobs, on a 2-processor machine.
	starve := []sim.JobSpec{
		{Graph: dag.UniformChain(1, chainLen, 1)},
		{Graph: dag.UniformChain(1, chainLen, 1)},
	}
	for i := 0; i < nShort; i++ {
		starve = append(starve, sim.JobSpec{Graph: dag.Singleton(1, 1)})
	}
	// Workload B: waste probe. One wide fork-join plus two singletons on a
	// wide machine.
	wide := []sim.JobSpec{
		{Graph: dag.ForkJoin(1, wideWidth, 1, 1, 1)},
		{Graph: dag.Singleton(1, 1)},
		{Graph: dag.Singleton(1, 1)},
	}

	for _, w := range []struct {
		name  string
		caps  []int
		specs []sim.JobSpec
	}{
		{"starvation probe", []int{2}, starve},
		{"waste probe", []int{16}, wide},
	} {
		results := map[string]*sim.Result{}
		for _, name := range []string{"k-rad", "deq-only", "rr-only"} {
			res, err := run(sim.Config{Caps: w.caps, Scheduler: mustScheduler(name, 1)}, w.specs)
			if err != nil {
				return err
			}
			results[name] = res
			t.AddRow(w.name, name, res.Makespan, fmt.Sprintf("%.1f", res.MeanResponse()), maxResponse(res))
		}
		switch w.name {
		case "starvation probe":
			if results["deq-only"].MeanResponse() <= results["k-rad"].MeanResponse() {
				t.AddNote("UNEXPECTED: deq-only did not degrade mean response on the starvation probe")
			}
		case "waste probe":
			if results["rr-only"].Makespan <= results["k-rad"].Makespan {
				t.AddNote("UNEXPECTED: rr-only did not degrade makespan on the waste probe")
			}
		}
	}
	t.AddNote("expected shape: deq-only max response ≈ the whole backlog on the starvation probe (k-rad keeps it near the per-cycle bound); rr-only makespan ≈ width on the waste probe (k-rad ≈ width/P)")
	return nil
}
