package analysis

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/sim"
)

// e1 reproduces the Figure 1 model artifact: it builds representative
// K-DAG jobs (including the Figure 1 3-DAG itself), reports the model
// quantities the analysis is stated in (per-category work, span, maximum
// parallelism), and schedules each alone under K-RAD to confirm that a
// solo job completes in exactly max(span, work-limited) time on an
// unconstrained machine.
func e1(t *Table, opts Options) error {
	t.Header = []string{"job", "K", "tasks", "edges", "work/cat", "span", "maxpar/cat", "solo makespan"}
	for _, g := range []*dag.Graph{
		dag.Figure1(),
		dag.RoundRobinChain(3, 12).Named("rr-chain-12"),
		dag.ForkJoin(3, 16, 1, 2, 3).Named("forkjoin-16"),
		dag.MapReduce(3, 12, 6, 1, 1, 2, 3).Named("mapreduce-12x6"),
		dag.Pipeline(3, 3, 8, func(s int) dag.Category { return dag.Category(s + 1) }).Named("pipeline-3x8"),
	} {
		// A machine wide enough that the job is never processor-limited:
		// solo makespan must equal the span exactly.
		caps := g.MaxParallelism()
		for a := range caps {
			caps[a] = max(caps[a], 1)
		}
		res, err := run(sim.Config{Caps: caps}, []sim.JobSpec{{Graph: g}})
		if err != nil {
			return err
		}
		t.AddRow(g.Name(), g.K(), g.NumTasks(), g.NumEdges(),
			fmt.Sprint(g.WorkVector()), g.Span(), fmt.Sprint(g.MaxParallelism()), res.Makespan)
		if res.Makespan != int64(g.Span()) {
			t.AddNote("FAIL: %s solo makespan %d != span %d on an unconstrained machine", g.Name(), res.Makespan, g.Span())
		}
	}
	t.AddNote("expected shape: solo makespan equals span for every job — K-RAD wastes no step when a single job has the machine")
	return nil
}
