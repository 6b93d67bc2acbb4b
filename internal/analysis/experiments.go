package analysis

import (
	"fmt"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sim"
	"krad/internal/workload"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sweeps to test-suite scale; the test suite and the
	// E-benchmarks of bench_test.go run it, cmd/kradbench and EXPERIMENTS.md
	// the full sweeps.
	Quick bool
	// Seed drives all randomized workloads (default 1 when zero).
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Experiment is one reproducible table from DESIGN.md's per-experiment
// index.
type Experiment struct {
	// ID is the experiment identifier (E1..E21).
	ID string
	// Title heads the experiment's table.
	Title string
	// Source cites the paper artifact being reproduced.
	Source string
	// fill sets the table's header and adds its rows and notes.
	fill func(*Table, Options) error
}

// Run executes the experiment and returns its table.
func (e Experiment) Run(opts Options) (*Table, error) {
	t := &Table{ID: e.ID, Title: e.Title}
	if err := e.fill(t, opts); err != nil {
		return nil, err
	}
	return t, nil
}

// All returns the experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "K-DAG job model metrics (Figure 1 / Section 2)", "Figure 1 / Section 2", e1},
		{"E2", "RAD allocation invariants (Figure 2)", "Figure 2 / Section 3", e2},
		{"E3", "Adversarial makespan lower bound (Figure 3 / Theorem 1)", "Figure 3 / Theorem 1", e3},
		{"E4", "Makespan competitiveness with arbitrary release times (Lemma 2 / Theorem 3)", "Lemma 2 / Theorem 3", e4},
		{"E5", "Mean response time under light workload (Theorem 5 / Inequality 5)", "Theorem 5", e5},
		{"E6", "Mean response time under heavy workload (Theorem 6)", "Theorem 6", e6},
		{"E7", "Homogeneous (K=1) mean response time: RAD vs EQUI vs RR (Section 7)", "Section 7, K=1 corollary", e7},
		{"E8", "Scheduler comparison on heterogeneous workloads (K = 3)", "implied by Sections 1 and 3", e8},
		{"E9", "Ablations: what DEQ and RR each contribute (Section 3)", "Section 3 design rationale", e9},
		{"E10", "Simulator throughput scaling", "reproduction infrastructure", e10},
		{"E11", "Extension: performance + functional heterogeneity (Section 8 challenge)", "Section 8 (future work)", e11},
		{"E12", "Profile-job representation: DAG equivalence and scale", "reproduction infrastructure", e12},
		{"E13", "Scheduling-quantum sensitivity (two-level deployment model)", "two-level deployment model", e13},
		{"E14", "Theorem 5 proof-mechanics replay: per-step Inequality (8)", "Section 7 induction", e14},
		{"E15", "Fairness price on identical jobs (round robin's tight factor 2, Motwani et al.)", "related work [22]", e15},
		{"E16", "Extension: non-preemptive multi-step tasks (execution models)", "deployment model beyond unit tasks", e16},
		{"E17", "Reallocation churn per scheduler (the cost the model treats as free)", "deployment cost model", e17},
		{"E18", "Archive-log replay (Standard Workload Format)", "Parallel Workloads Archive format", e18},
		{"E19", "Randomization vs the deterministic adversary (Theorem 1 context)", "Theorem 1 discussion / Shmoys et al.", e19},
		{"E20", "True competitive ratios on tiny instances (exact optimum by search)", "validation of the lower-bound methodology", e20},
		{"E21", "Speed augmentation: s-speed schedulers vs the unit-speed bound", "related work: Edmonds et al. framework", e21},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("analysis: unknown experiment %q", id)
}

// RunE3 runs E3, the Figure 3 reproduction whose cells TestE3GoldenValues
// pins.
func RunE3(opts Options) (*Table, error) {
	e, err := Find("E3")
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// scale picks a sweep's full value, or its quick one under Options.Quick.
func scale[T any](o Options, full, quick T) T {
	if o.Quick {
		return quick
	}
	return full
}

// run simulates specs under cfg the way every table does: K is the length
// of Caps, the scheduler is K-RAD unless cfg names another, and every
// allotment is validated against the Section 2 conditions.
func run(cfg sim.Config, specs []sim.JobSpec) (*sim.Result, error) {
	cfg.K = len(cfg.Caps)
	if cfg.Scheduler == nil {
		cfg.Scheduler = core.NewKRAD(cfg.K)
	}
	cfg.ValidateAllotments = true
	return sim.Run(cfg, specs)
}

// runMix generates mix's batched job set and runs it (see run).
func runMix(cfg sim.Config, mix workload.Mix) (*sim.Result, error) {
	specs, err := mix.Generate()
	if err != nil {
		return nil, err
	}
	return run(cfg, specs)
}

// worstOf runs reps seeded repetitions of one row, repetition i on seed
// o.seed() + i·stride, and returns the run that scored highest (the
// earliest on ties) with its score.
func (o Options) worstOf(reps int, stride int64, rep func(seed int64) (*sim.Result, float64, error)) (*sim.Result, float64, error) {
	var worst *sim.Result
	var score float64
	for i := 0; i < reps; i++ {
		res, s, err := rep(o.seed() + int64(i)*stride)
		if err != nil {
			return nil, 0, err
		}
		if worst == nil || s > score {
			worst, score = res, s
		}
	}
	return worst, score, nil
}

// meanOf runs reps seeded repetitions of one row, repetition i on seed
// o.seed() + i·stride, and returns the mean of each value they measure.
func (o Options) meanOf(reps int, stride int64, rep func(seed int64) ([]float64, error)) ([]float64, error) {
	var sums []float64
	for i := 0; i < reps; i++ {
		vals, err := rep(o.seed() + int64(i)*stride)
		if err != nil {
			return nil, err
		}
		if sums == nil {
			sums = make([]float64, len(vals))
		}
		for j, v := range vals {
			sums[j] += v
		}
	}
	for j := range sums {
		sums[j] /= float64(reps)
	}
	return sums, nil
}

// graphSpecs submits each graph as a batched job.
func graphSpecs(graphs []*dag.Graph) []sim.JobSpec {
	specs := make([]sim.JobSpec, len(graphs))
	for i, g := range graphs {
		specs[i] = sim.JobSpec{Graph: g}
	}
	return specs
}

// equalCaps is a machine of k categories with p processors each.
func equalCaps(k, p int) []int {
	caps := make([]int, k)
	for i := range caps {
		caps[i] = p
	}
	return caps
}

// totalTasks counts the unit tasks of a job set.
func totalTasks(specs []sim.JobSpec) int {
	n := 0
	for _, s := range specs {
		if s.Graph != nil {
			n += s.Graph.NumTasks()
		} else {
			n += s.Source.TotalTasks()
		}
	}
	return n
}

// maxResponse is the largest response time R(Ji) of a run.
func maxResponse(res *sim.Result) int64 {
	var m int64
	for _, j := range res.Jobs {
		m = max(m, j.Response())
	}
	return m
}

// holds is a bound-check cell.
func holds(ok bool) string {
	if ok {
		return "holds"
	}
	return "VIOLATED"
}
