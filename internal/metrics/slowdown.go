package metrics

import "krad/internal/sim"

// SoloBound is a job's solo lower bound max(T∞, maxα ⌈T1(α)/Pα⌉), never
// below 1: the job alone on a machine of caps can finish no sooner.
// work[α−1] is the job's category-α work.
func SoloBound(span int, work, caps []int) int64 {
	b := max(int64(span), 1)
	for a, w := range work {
		b = max(b, ceilDiv(int64(w), int64(caps[a])))
	}
	return b
}

// Slowdowns returns each job's slowdown (a.k.a. stretch): response time
// divided by its SoloBound, so every slowdown is ≥ 1 and measures
// queueing/sharing delay.
func Slowdowns(r *sim.Result) []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = float64(j.Response()) / float64(SoloBound(j.Span, j.Work, r.Caps))
	}
	return out
}

// MaxSlowdown returns the worst slowdown — the fairness headline number:
// schedulers that starve (deq-only, fcfs under backlog) blow it up while
// keeping the mean respectable.
func MaxSlowdown(r *sim.Result) float64 {
	return MaxFloat(Slowdowns(r))
}
