package sim

import (
	"strings"
	"testing"

	"krad/internal/baselines"
	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sched"
)

func mustRun(t *testing.T, cfg Config, specs []JobSpec) *Result {
	t.Helper()
	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func kradCfg(k int, caps ...int) Config {
	return Config{
		K:                  k,
		Caps:               caps,
		Scheduler:          core.NewKRAD(k),
		Pick:               dag.PickFIFO,
		Trace:              TraceTasks,
		ValidateAllotments: true,
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	good := []JobSpec{{Graph: dag.Singleton(2, 1)}}
	cases := []struct {
		name  string
		cfg   Config
		specs []JobSpec
	}{
		{"k=0", Config{K: 0, Caps: nil, Scheduler: core.NewKRAD(1)}, good},
		{"caps mismatch", Config{K: 2, Caps: []int{1}, Scheduler: core.NewKRAD(2)}, good},
		{"zero cap", Config{K: 2, Caps: []int{1, 0}, Scheduler: core.NewKRAD(2)}, good},
		{"nil scheduler", Config{K: 2, Caps: []int{1, 1}}, good},
		{"no jobs", kradCfg(2, 1, 1), nil},
		{"nil graph", kradCfg(2, 1, 1), []JobSpec{{}}},
		{"k mismatch", kradCfg(2, 1, 1), []JobSpec{{Graph: dag.Singleton(3, 1)}}},
		{"empty graph", kradCfg(2, 1, 1), []JobSpec{{Graph: dag.New(2)}}},
		{"negative release", kradCfg(2, 1, 1), []JobSpec{{Graph: dag.Singleton(2, 1), Release: -1}}},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg, c.specs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSingleChainTakesSpanSteps(t *testing.T) {
	g := dag.RoundRobinChain(3, 12)
	res := mustRun(t, kradCfg(3, 2, 2, 2), []JobSpec{{Graph: g}})
	if res.Makespan != 12 {
		t.Errorf("makespan %d, want 12 (the span)", res.Makespan)
	}
	if res.Jobs[0].Response() != 12 {
		t.Errorf("response %d, want 12", res.Jobs[0].Response())
	}
	if err := ValidateSchedule([]JobSpec{{Graph: g}}, res); err != nil {
		t.Error(err)
	}
}

func TestReleaseTimeDelaysStart(t *testing.T) {
	g := dag.UniformChain(1, 3, 1)
	res := mustRun(t, kradCfg(1, 4), []JobSpec{{Graph: g, Release: 10}})
	if res.Makespan != 13 {
		t.Errorf("makespan %d, want 13 (release 10 + span 3)", res.Makespan)
	}
	if res.Jobs[0].Response() != 3 {
		t.Errorf("response %d, want 3", res.Jobs[0].Response())
	}
	if err := ValidateSchedule([]JobSpec{{Graph: g, Release: 10}}, res); err != nil {
		t.Error(err)
	}
}

func TestIdleIntervalFastForward(t *testing.T) {
	// Two jobs with a long gap: the engine must skip the idle interval and
	// still produce correct completion times.
	specs := []JobSpec{
		{Graph: dag.UniformChain(1, 2, 1), Release: 0},
		{Graph: dag.UniformChain(1, 2, 1), Release: 1000},
	}
	res := mustRun(t, kradCfg(1, 2), specs)
	if res.Jobs[0].Completion != 2 {
		t.Errorf("first job completed at %d, want 2", res.Jobs[0].Completion)
	}
	if res.Jobs[1].Completion != 1002 {
		t.Errorf("second job completed at %d, want 1002", res.Jobs[1].Completion)
	}
	if err := ValidateSchedule(specs, res); err != nil {
		t.Error(err)
	}
}

func TestJobIDsFollowArrivalOrder(t *testing.T) {
	// Specs submitted out of release order must be renumbered by release.
	specs := []JobSpec{
		{Graph: dag.Singleton(1, 1), Release: 5},
		{Graph: dag.Singleton(1, 1), Release: 0},
	}
	res := mustRun(t, kradCfg(1, 1), specs)
	if res.Jobs[0].Release != 0 || res.Jobs[1].Release != 5 {
		t.Errorf("jobs not sorted by release: %+v", res.Jobs)
	}
}

func TestTwoJobsShareProcessorsUnderDEQ(t *testing.T) {
	// Two identical fork-joins wanting 4 each on 4 processors: DEQ splits
	// 2/2 during the wide phase, so both finish at the same time.
	g1 := dag.ForkJoin(1, 4, 1, 1, 1)
	g2 := dag.ForkJoin(1, 4, 1, 1, 1)
	specs := []JobSpec{{Graph: g1}, {Graph: g2}}
	res := mustRun(t, kradCfg(1, 4), specs)
	if res.Jobs[0].Completion != res.Jobs[1].Completion {
		t.Errorf("symmetric jobs finished at %d and %d", res.Jobs[0].Completion, res.Jobs[1].Completion)
	}
	// Work 6 each, span 3: alone it takes 1 + 1 + 1(join? width 4 over 2
	// procs = 2 steps) — with sharing both need 1 + 2 + 1 = 4 steps.
	if res.Makespan != 4 {
		t.Errorf("makespan %d, want 4", res.Makespan)
	}
	if err := ValidateSchedule(specs, res); err != nil {
		t.Error(err)
	}
}

func TestOverloadedFlagPerCategory(t *testing.T) {
	// 3 category-1 singletons on 1 processor → category 1 overloaded;
	// category 2 never is.
	specs := []JobSpec{
		{Graph: dag.Singleton(2, 1)},
		{Graph: dag.Singleton(2, 1)},
		{Graph: dag.Singleton(2, 1)},
		{Graph: dag.Singleton(2, 2)},
	}
	res := mustRun(t, kradCfg(2, 1, 4), specs)
	if !res.Overloaded[0] {
		t.Error("category 1 not flagged overloaded")
	}
	if res.Overloaded[1] {
		t.Error("category 2 wrongly flagged overloaded")
	}
	if !res.EverOverloaded() {
		t.Error("EverOverloaded false")
	}
}

// overAllotter is a broken scheduler that ignores capacity.
type overAllotter struct{}

func (overAllotter) Name() string { return "over-allotter" }
func (overAllotter) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	out := make([][]int, len(jobs))
	for i := range out {
		row := make([]int, len(caps))
		for a := range row {
			row[a] = caps[a] + 1
		}
		out[i] = row
	}
	return out
}

func TestValidateAllotmentsCatchesBrokenScheduler(t *testing.T) {
	cfg := Config{
		K: 1, Caps: []int{2}, Scheduler: overAllotter{},
		ValidateAllotments: true,
	}
	_, err := Run(cfg, []JobSpec{{Graph: dag.Singleton(1, 1)}})
	if err == nil || !strings.Contains(err.Error(), "exceeds capacity") {
		t.Errorf("broken scheduler not caught: %v", err)
	}
}

// misshaper is a broken scheduler whose matrix has the wrong shape: one row
// too few, or a last row one category short.
type misshaper struct{ shortRow bool }

func (misshaper) Name() string { return "misshaper" }
func (m misshaper) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	out := idler{}.Allot(t, jobs, caps)
	if m.shortRow {
		out[len(out)-1] = out[len(out)-1][:len(caps)-1]
		return out
	}
	return out[:len(out)-1]
}

// TestMisshapenAllotmentIsALocatedError: with or without validation, the
// step fails with an error naming the step, the scheduler and what is wrong
// — never an index panic in the engine.
func TestMisshapenAllotmentIsALocatedError(t *testing.T) {
	specs := []JobSpec{{Graph: dag.Singleton(2, 1)}, {Graph: dag.Singleton(2, 2)}}
	for _, tc := range []struct {
		s    misshaper
		want string
	}{
		{misshaper{}, `sim: step 1: sched: scheduler "misshaper" returned 1 rows for 2 jobs`},
		{misshaper{shortRow: true}, `sim: step 1: sched: scheduler "misshaper" returned a row of 1 categories for job 1, want 2`},
	} {
		for _, validate := range []bool{false, true} {
			_, err := Run(Config{K: 2, Caps: []int{1, 1}, Scheduler: tc.s, ValidateAllotments: validate}, specs)
			if err == nil || err.Error() != tc.want {
				t.Errorf("validate=%v: got %v, want %s", validate, err, tc.want)
			}
		}
	}
}

// idler is a broken scheduler that never allots anything.
type idler struct{}

func (idler) Name() string { return "idler" }
func (idler) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	out := make([][]int, len(jobs))
	for i := range out {
		out[i] = make([]int, len(caps))
	}
	return out
}

func TestMaxStepsGuardTripsOnIdleScheduler(t *testing.T) {
	cfg := Config{K: 1, Caps: []int{1}, Scheduler: idler{}, MaxSteps: 100}
	_, err := Run(cfg, []JobSpec{{Graph: dag.Singleton(1, 1)}})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("runaway simulation not caught: %v", err)
	}
}

func TestClairvoyantOracleInjection(t *testing.T) {
	s := baselines.NewSJF()
	cfg := Config{K: 1, Caps: []int{2}, Scheduler: s, ValidateAllotments: true}
	specs := []JobSpec{
		{Graph: dag.UniformChain(1, 5, 1)},
		{Graph: dag.Singleton(1, 1)},
	}
	res := mustRun(t, cfg, specs)
	if res.Makespan != 5 {
		t.Errorf("makespan %d, want 5", res.Makespan)
	}
	// The singleton (shortest) must finish at step 1.
	if res.Jobs[1].Completion != 1 {
		t.Errorf("short job completed at %d, want 1", res.Jobs[1].Completion)
	}
}

func TestResultAccessors(t *testing.T) {
	specs := []JobSpec{
		{Graph: dag.UniformChain(2, 4, 1)},
		{Graph: dag.UniformChain(2, 2, 2)},
	}
	res := mustRun(t, kradCfg(2, 2, 2), specs)
	tw := res.TotalWork()
	if tw[0] != 4 || tw[1] != 2 {
		t.Errorf("TotalWork = %v", tw)
	}
	if res.AggregateSpan() != 6 {
		t.Errorf("AggregateSpan = %d, want 6", res.AggregateSpan())
	}
	if res.MeanResponse() <= 0 {
		t.Error("MeanResponse not positive")
	}
	u := res.Utilization()
	for a, v := range u {
		if v <= 0 || v > 1 {
			t.Errorf("utilization[%d] = %v", a, v)
		}
	}
	if !strings.Contains(res.String(), "k-rad") {
		t.Errorf("String() = %q", res.String())
	}
}
