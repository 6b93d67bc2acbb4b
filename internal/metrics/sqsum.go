// Package metrics implements the quantities the paper's competitive
// analysis is stated in: squashed sums and squashed work areas
// (Definitions 4 and 5), aggregate span, the makespan and mean-response-
// time lower bounds of Sections 4 and 6, the Lemma 2 and Inequality (5)
// upper bounds, and the theorem checks and competitive-ratio reports that
// compare measured schedules against them.
package metrics

import "sort"

// SqSum computes the squashed sum of Definition 4: with the m values sorted
// ascending a(1) ≤ ... ≤ a(m), sq-sum = Σi (m − i + 1)·a(i) — the smallest
// value weighted m, the largest weighted 1. The input is not modified.
// Negative inputs are a caller bug (works are counts) and cause a panic.
func SqSum(values []int) int64 {
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	var sum int64
	m := len(sorted)
	for i, v := range sorted {
		if v < 0 {
			panic("metrics: SqSum given a negative value")
		}
		sum += int64(m-i) * int64(v)
	}
	return sum
}

// SqSumPermuted computes Σi (m − i + 1)·a(g(i)) for an explicit permutation
// g (g[i] is the index of the value placed at sorted position i+1). Used by
// property tests of the equivalence between Definition 4 (sorted order
// minimizes) and Equation (4) (minimum over all permutations).
func SqSumPermuted(values []int, g []int) int64 {
	var sum int64
	m := len(values)
	for i, idx := range g {
		sum += int64(m-i) * int64(values[idx])
	}
	return sum
}

// SquashedWorkArea computes swa(J, α) of Definition 5 as a float:
// sq-sum over the per-job α-works divided by Pα.
func SquashedWorkArea(works []int, p int) float64 {
	return float64(SqSum(works)) / float64(p)
}

// SqSumFloats is SqSum over real-valued works — used by the fluid
// (real-valued allotment) replay of the Theorem 5 induction, where job
// state is fractional.
func SqSumFloats(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var sum float64
	m := len(sorted)
	for i, v := range sorted {
		if v < 0 {
			panic("metrics: SqSumFloats given a negative value")
		}
		sum += float64(m-i) * v
	}
	return sum
}

// CheckLemma4 evaluates the hypothesis and conclusion of Lemma 4 on two
// lists a, b with b[i] = a[i] + s[i], 0 ≤ s[i] ≤ h: it returns the left and
// right sides of sq-sum(b) ≥ sq-sum(a) + P(l+1)/2 where l = |{s[i] = h}|
// and P = Σ s[i]. Callers assert left ≥ right. Returns ok=false when the
// hypothesis (l > 0) does not hold.
func CheckLemma4(a, b []int, h int) (left, right float64, ok bool) {
	if len(a) != len(b) || h <= 0 {
		return 0, 0, false
	}
	l := 0
	P := 0
	for i := range a {
		s := b[i] - a[i]
		if s < 0 || s > h {
			return 0, 0, false
		}
		if s == h {
			l++
		}
		P += s
	}
	if l == 0 {
		return 0, 0, false
	}
	left = float64(SqSum(b))
	right = float64(SqSum(a)) + float64(P)*float64(l+1)/2
	return left, right, true
}
