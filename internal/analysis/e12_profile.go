package analysis

import (
	"time"

	"krad/internal/metrics"
	"krad/internal/profile"
	"krad/internal/sim"
)

// e12 validates the compact parallelism-profile job representation
// (internal/profile) at two levels:
//
//   - equivalence: small profile jobs and their expanded dense-layered
//     K-DAGs produce identical makespans and total responses under K-RAD;
//   - scale: a multi-million-task profile workload runs in milliseconds
//     and still satisfies the Theorem 3 makespan bound — coverage the
//     per-task DAG representation cannot reach in memory.
func e12(t *Table, opts Options) error {
	t.Header = []string{"case", "repr", "jobs", "tasks", "makespan", "total resp", "ratio", "wall"}
	const k = 3
	caps := []int{8, 8, 8}

	// Part 1: equivalence on expandable sizes.
	profSpecs, err := profile.Generate(profile.GenOpts{
		K: k, Jobs: scale(opts, 12, 6), MinPhases: 1, MaxPhases: 5, MaxParallelism: 12,
		Seed: opts.seed(),
	})
	if err != nil {
		return err
	}
	dagSpecs := make([]sim.JobSpec, len(profSpecs))
	for i, s := range profSpecs {
		dagSpecs[i] = sim.JobSpec{Source: sim.GraphSource(s.Source.(*profile.Job).ToGraph())}
	}
	var eq [2]*sim.Result
	for i, specs := range [][]sim.JobSpec{profSpecs, dagSpecs} {
		start := time.Now()
		res, err := run(sim.Config{Caps: caps}, specs)
		if err != nil {
			return err
		}
		eq[i] = res
		t.AddRow("equivalence", [2]string{"profile", "dag"}[i], len(specs), totalTasks(specs), res.Makespan,
			res.TotalResponse(), metrics.CheckTheorem3(res).Measured, time.Since(start).Round(time.Microsecond).String())
	}
	if eq[0].Makespan != eq[1].Makespan || eq[0].TotalResponse() != eq[1].TotalResponse() {
		t.AddNote("FAIL: profile and DAG runs diverged (makespan %d vs %d, response %d vs %d)",
			eq[0].Makespan, eq[1].Makespan, eq[0].TotalResponse(), eq[1].TotalResponse())
	}

	// Part 2: scale. Task counts far beyond what per-task DAGs can hold.
	scaleJobs := scale(opts, 64, 16)
	bigSpecs, err := profile.Generate(profile.GenOpts{
		K: k, Jobs: scaleJobs, MinPhases: 2, MaxPhases: 8, MaxParallelism: scale(opts, 200_000, 20_000),
		Seed: opts.seed() + 99,
	})
	if err != nil {
		return err
	}
	tasks := totalTasks(bigSpecs)
	bigCaps := []int{512, 512, 512}
	start := time.Now()
	res, err := run(sim.Config{Caps: bigCaps}, bigSpecs)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	bc := metrics.CheckTheorem3(res)
	t.AddRow("scale", "profile", scaleJobs, tasks, res.Makespan, res.TotalResponse(), bc.Measured,
		wall.Round(time.Millisecond).String())
	if !bc.OK {
		t.AddNote("FAIL: %v at scale", bc)
	}
	t.AddNote("scale row uses caps %v; %d tasks simulated", bigCaps, tasks)
	t.AddNote("expected shape: equivalence rows identical; scale row in the millions of tasks with ratio still under the Theorem 3 bound")
	return nil
}
