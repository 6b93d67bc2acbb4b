package metrics

import (
	"fmt"

	"krad/internal/sim"
)

// MakespanLowerBound computes the Section 4 lower bound on the optimal
// makespan T*(J):
//
//	T*(J) ≥ max( max_i (r(Ji) + T∞(Ji)),  max_α ⌈T1(J,α)/Pα⌉ )
//
// from a run's job table (work, span, release are schedule-independent).
func MakespanLowerBound(r *sim.Result) int64 {
	lb := latestSpanEnd(r)
	for a, w := range r.TotalWork() {
		lb = max(lb, ceilDiv(int64(w), int64(r.Caps[a])))
	}
	return lb
}

// MakespanUpperBound computes the Lemma 2 guarantee for runs with no idle
// intervals:
//
//	T(J) ≤ Σα T1(J,α)/Pα + (1 − 1/Pmax)·max_i (T∞(Ji) + r(Ji))
//
// as a float (the bound is real-valued). Experiments assert the measured
// makespan never exceeds it.
func MakespanUpperBound(r *sim.Result) float64 {
	var sum float64
	for a, w := range r.TotalWork() {
		sum += float64(w) / float64(r.Caps[a])
	}
	return sum + (1-1/float64(pmax(r.Caps)))*float64(latestSpanEnd(r))
}

// latestSpanEnd is max_i (r(Ji) + T∞(Ji)), the critical-path term of both
// makespan bounds.
func latestSpanEnd(r *sim.Result) int64 {
	var end int64
	for _, j := range r.Jobs {
		end = max(end, j.Release+int64(j.Span))
	}
	return end
}

func pmax(caps []int) int {
	p := 0
	for _, c := range caps {
		p = max(p, c)
	}
	return p
}

// MakespanCompetitiveLimit returns K + 1 − 1/Pmax, the proven competitive
// ratio of K-RAD (Theorem 3) and the lower bound for any deterministic
// online non-clairvoyant algorithm (Theorem 1).
func MakespanCompetitiveLimit(k int, caps []int) float64 {
	return float64(k) + 1 - 1/float64(pmax(caps))
}

// ResponseLowerBound computes the Section 6 lower bound on the optimal
// total response time R*(J)·|J| for a batched job set:
//
//	R*(J) ≥ max( T∞(J),  max_α swa(J,α) )
//
// (total response time form; divide by |J| for the mean).
func ResponseLowerBound(r *sim.Result) float64 {
	lb := float64(r.AggregateSpan())
	for _, swa := range squashedAreas(r) {
		lb = max(lb, swa)
	}
	return lb
}

// ResponseUpperBoundLight computes the right-hand side of Inequality (5),
// the Theorem 5 guarantee for batched sets under light workload:
//
//	R(J) ≤ (2 − 2/(|J|+1))·Σα swa(J,α) + T∞(J)
func ResponseUpperBoundLight(r *sim.Result) float64 {
	n := float64(len(r.Jobs))
	var swaSum float64
	for _, swa := range squashedAreas(r) {
		swaSum += swa
	}
	return (2-2/(n+1))*swaSum + float64(r.AggregateSpan())
}

// squashedAreas returns swa(J,α) of every category, indexed α−1.
func squashedAreas(r *sim.Result) []float64 {
	swa := make([]float64, r.K)
	works := make([]int, len(r.Jobs))
	for a := range swa {
		for i, j := range r.Jobs {
			works[i] = j.Work[a]
		}
		swa[a] = SquashedWorkArea(works, r.Caps[a])
	}
	return swa
}

// ResponseCompetitiveLimitLight returns 2K + 1 − 2K/(|J|+1), the Theorem 5
// competitive ratio under light workload.
func ResponseCompetitiveLimitLight(k, n int) float64 {
	return float64(2*k) + 1 - float64(2*k)/float64(n+1)
}

// ResponseCompetitiveLimit returns 4K + 1 − 4K/(|J|+1), the Theorem 6
// competitive ratio for arbitrary batched workloads.
func ResponseCompetitiveLimit(k, n int) float64 {
	return float64(4*k) + 1 - float64(4*k)/float64(n+1)
}

// Ratios bundles a run's measured-versus-bound report.
type Ratios struct {
	// Makespan is T(J); MakespanLB the Section 4 lower bound; their
	// quotient MakespanRatio upper-bounds the true competitive ratio.
	Makespan      int64
	MakespanLB    int64
	MakespanRatio float64
	// MakespanBound is K + 1 − 1/Pmax.
	MakespanBound float64

	// TotalResponse is R(J); ResponseLB the Section 6 lower bound; their
	// quotient ResponseRatio upper-bounds the true MRT competitive ratio.
	TotalResponse int64
	ResponseLB    float64
	ResponseRatio float64
	// ResponseBound is the applicable theorem bound: Theorem 5's if the
	// run stayed in the light-workload regime, Theorem 6's otherwise.
	ResponseBound float64
	// LightLoad records which regime applied.
	LightLoad bool
}

// ComputeRatios evaluates a run against all the paper's bounds. It is the
// one place the competitive quotients are taken; the Check functions read
// them from here.
func ComputeRatios(r *sim.Result) Ratios {
	out := Ratios{
		Makespan:      r.Makespan,
		MakespanLB:    MakespanLowerBound(r),
		MakespanBound: MakespanCompetitiveLimit(r.K, r.Caps),
		TotalResponse: r.TotalResponse(),
		ResponseLB:    ResponseLowerBound(r),
		LightLoad:     !r.EverOverloaded(),
	}
	if out.MakespanLB > 0 {
		out.MakespanRatio = float64(out.Makespan) / float64(out.MakespanLB)
	}
	if out.ResponseLB > 0 {
		out.ResponseRatio = float64(out.TotalResponse) / out.ResponseLB
	}
	if out.LightLoad {
		out.ResponseBound = ResponseCompetitiveLimitLight(r.K, len(r.Jobs))
	} else {
		out.ResponseBound = ResponseCompetitiveLimit(r.K, len(r.Jobs))
	}
	return out
}

// BoundCheck is the outcome of evaluating one of the paper's guarantees
// against one measured run.
type BoundCheck struct {
	// Name identifies the theorem/lemma.
	Name string
	// Measured and Bound are the two sides of the inequality
	// Measured ≤ Bound.
	Measured, Bound float64
	// OK reports Measured ≤ Bound (within floating-point slack).
	OK bool
}

func check(name string, measured, bound float64) BoundCheck {
	return BoundCheck{Name: name, Measured: measured, Bound: bound, OK: measured <= bound*(1+1e-9)}
}

// String formats the check result.
func (b BoundCheck) String() string {
	rel := "≤"
	if !b.OK {
		rel = ">"
	}
	return fmt.Sprintf("%s: measured %.4f %s bound %.4f", b.Name, b.Measured, rel, b.Bound)
}

// CheckLemma2 evaluates the Lemma 2 makespan guarantee (MakespanUpperBound)
// on a measured K-RAD run. The lemma's premise is that the schedule has no
// idle intervals; batched job sets always satisfy it. Callers using online
// arrivals should only assert this on runs known to be gap-free.
func CheckLemma2(res *sim.Result) BoundCheck {
	return check("Lemma 2 (makespan bound)", float64(res.Makespan), MakespanUpperBound(res))
}

// CheckTheorem3 evaluates the Theorem 3 makespan competitiveness
//
//	T(J) / LB(J) ≤ K + 1 − 1/Pmax
//
// where LB is the Section 4 lower bound on the optimal makespan. Because
// LB ≤ T*, the measured quotient upper-bounds the true competitive ratio,
// so OK here implies the theorem held on this instance.
func CheckTheorem3(res *sim.Result) BoundCheck {
	r := ComputeRatios(res)
	return check("Theorem 3 (makespan competitiveness)", r.MakespanRatio, r.MakespanBound)
}

// CheckInequality5 evaluates the explicit Theorem 5 response-time bound
// (ResponseUpperBoundLight), which only applies to batched runs that
// stayed in the light-workload regime (|J(α,t)| ≤ Pα throughout); the
// second result reports whether the run stayed there.
func CheckInequality5(res *sim.Result) (BoundCheck, bool) {
	return check("Inequality 5 (light-load response bound)", float64(res.TotalResponse()), ResponseUpperBoundLight(res)),
		!res.EverOverloaded()
}

// CheckTheorem5 evaluates the Theorem 5 competitiveness
//
//	R(J) / RLB(J) ≤ 2K + 1 − 2K/(|J|+1)
//
// for light-workload batched runs (RLB is the Section 6 lower bound); the
// second result reports whether the run stayed in that regime.
func CheckTheorem5(res *sim.Result) (BoundCheck, bool) {
	r := ComputeRatios(res)
	return check("Theorem 5 (light-load MRT competitiveness)", r.ResponseRatio,
		ResponseCompetitiveLimitLight(res.K, len(res.Jobs))), r.LightLoad
}

// CheckTheorem6 evaluates the general batched MRT competitiveness
//
//	R(J) / RLB(J) ≤ 4K + 1 − 4K/(|J|+1)
func CheckTheorem6(res *sim.Result) BoundCheck {
	return check("Theorem 6 (batched MRT competitiveness)", ComputeRatios(res).ResponseRatio,
		ResponseCompetitiveLimit(res.K, len(res.Jobs)))
}

// CheckAll runs every applicable check and returns the failures (empty =
// all bounds held). Theorem 3 applies to every run; the rest only to
// batched ones (every release 0).
func CheckAll(res *sim.Result) []BoundCheck {
	checks := []BoundCheck{CheckTheorem3(res)}
	if batched(res) {
		checks = append(checks, CheckLemma2(res))
		if i5, light := CheckInequality5(res); light {
			t5, _ := CheckTheorem5(res)
			checks = append(checks, i5, t5)
		}
		checks = append(checks, CheckTheorem6(res))
	}
	var failures []BoundCheck
	for _, bc := range checks {
		if !bc.OK {
			failures = append(failures, bc)
		}
	}
	return failures
}

func batched(res *sim.Result) bool {
	for _, j := range res.Jobs {
		if j.Release != 0 {
			return false
		}
	}
	return true
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
