package metrics

import (
	"math"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sim"
)

func runKRAD(t *testing.T, k int, caps []int, specs []sim.JobSpec) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		K: k, Caps: caps, Scheduler: core.NewKRAD(k),
		Pick: dag.PickFIFO, ValidateAllotments: true,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMakespanLowerBoundSingleChain(t *testing.T) {
	res := runKRAD(t, 1, []int{4}, []sim.JobSpec{{Graph: dag.UniformChain(1, 9, 1)}})
	// Chain: span 9 dominates work/P = 9/4.
	if lb := MakespanLowerBound(res); lb != 9 {
		t.Errorf("LB = %d, want 9", lb)
	}
}

func TestMakespanLowerBoundWorkDominates(t *testing.T) {
	specs := []sim.JobSpec{}
	for i := 0; i < 16; i++ {
		specs = append(specs, sim.JobSpec{Graph: dag.Singleton(1, 1)})
	}
	res := runKRAD(t, 1, []int{2}, specs)
	// 16 unit tasks on 2 processors: LB = 8.
	if lb := MakespanLowerBound(res); lb != 8 {
		t.Errorf("LB = %d, want 8", lb)
	}
	if res.Makespan != 8 {
		t.Errorf("K-RAD makespan %d, want 8 (work-limited)", res.Makespan)
	}
}

func TestMakespanLowerBoundReleaseTerm(t *testing.T) {
	specs := []sim.JobSpec{{Graph: dag.UniformChain(1, 3, 1), Release: 100}}
	res := runKRAD(t, 1, []int{1}, specs)
	if lb := MakespanLowerBound(res); lb != 103 {
		t.Errorf("LB = %d, want 103", lb)
	}
}

func TestMakespanUpperBoundHolds(t *testing.T) {
	specs := []sim.JobSpec{
		{Graph: dag.ForkJoin(2, 8, 1, 2, 1)},
		{Graph: dag.RoundRobinChain(2, 10)},
		{Graph: dag.MapReduce(2, 6, 3, 1, 1, 2, 2)},
	}
	res := runKRAD(t, 2, []int{3, 3}, specs)
	ub := MakespanUpperBound(res)
	if float64(res.Makespan) > ub {
		t.Errorf("Lemma 2 violated: makespan %d > bound %v", res.Makespan, ub)
	}
}

func TestMakespanCompetitiveLimit(t *testing.T) {
	if got := MakespanCompetitiveLimit(3, []int{2, 4, 8}); got != 4-1.0/8 {
		t.Errorf("limit = %v, want %v", got, 4-1.0/8)
	}
	if got := MakespanCompetitiveLimit(1, []int{4}); got != 2-0.25 {
		t.Errorf("K=1 limit = %v", got)
	}
}

func TestResponseBounds(t *testing.T) {
	specs := []sim.JobSpec{
		{Graph: dag.UniformChain(1, 4, 1)},
		{Graph: dag.UniformChain(1, 2, 1)},
	}
	res := runKRAD(t, 1, []int{2}, specs)
	lb := ResponseLowerBound(res)
	// Aggregate span = 6; swa: works {4,2} on 2 procs: sq-sum = 2·2+4·1 = 8,
	// swa = 4. LB = max(6, 4) = 6.
	if lb != 6 {
		t.Errorf("response LB = %v, want 6", lb)
	}
	if got := float64(res.TotalResponse()); got < lb {
		t.Errorf("measured response %v below LB %v", got, lb)
	}
	ub := ResponseUpperBoundLight(res)
	if float64(res.TotalResponse()) > ub {
		t.Errorf("Theorem 5 Inequality (5) violated: %d > %v", res.TotalResponse(), ub)
	}
}

func TestResponseCompetitiveLimits(t *testing.T) {
	if got := ResponseCompetitiveLimitLight(1, 1000); math.Abs(got-3) > 0.01 {
		t.Errorf("K=1 light limit = %v, want ≈ 3", got)
	}
	if got := ResponseCompetitiveLimit(1, 1000); math.Abs(got-5) > 0.02 {
		t.Errorf("K=1 heavy limit = %v, want ≈ 5", got)
	}
	if got := ResponseCompetitiveLimitLight(2, 3); got != 5-4.0/4 {
		t.Errorf("limit = %v", got)
	}
	// Monotone in n.
	if ResponseCompetitiveLimit(2, 10) >= ResponseCompetitiveLimit(2, 1000) {
		t.Error("limit not increasing in n")
	}
}

func TestComputeRatios(t *testing.T) {
	specs := []sim.JobSpec{
		{Graph: dag.ForkJoin(2, 4, 1, 2, 1)},
		{Graph: dag.RoundRobinChain(2, 6)},
	}
	res := runKRAD(t, 2, []int{4, 4}, specs)
	r := ComputeRatios(res)
	if r.Makespan != res.Makespan {
		t.Error("makespan not copied")
	}
	if r.MakespanRatio < 1 {
		t.Errorf("makespan ratio %v below 1 — LB exceeded measurement?", r.MakespanRatio)
	}
	if r.MakespanRatio > r.MakespanBound {
		t.Errorf("Theorem 3 violated: ratio %v > bound %v", r.MakespanRatio, r.MakespanBound)
	}
	if !r.LightLoad {
		t.Error("2 jobs on 4+4 processors flagged as heavy load")
	}
	if r.ResponseRatio > r.ResponseBound {
		t.Errorf("Theorem 5 violated: ratio %v > bound %v", r.ResponseRatio, r.ResponseBound)
	}
}

func TestBoundCheckString(t *testing.T) {
	ok := check("x", 1, 2)
	if !strings.Contains(ok.String(), "≤") {
		t.Errorf("String() = %q", ok.String())
	}
	bad := check("x", 3, 2)
	if bad.OK || !strings.Contains(bad.String(), ">") {
		t.Errorf("failing check: %+v %q", bad, bad.String())
	}
}

func TestSummarizeAndPercentile(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Error("empty summary nonzero")
	}
	s = Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-9 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.P50-2.5) > 1e-9 {
		t.Errorf("p50 = %v", s.P50)
	}
	if got := Percentile([]float64{1, 2, 3}, 1); got != 3 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("single sample percentile = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Percentile(empty) did not panic")
			}
		}()
		Percentile(nil, 0.5)
	}()
	if s.String() == "" {
		t.Error("empty String()")
	}
	if MaxFloat([]float64{1, 9, 3}) != 9 {
		t.Error("MaxFloat wrong")
	}
}
