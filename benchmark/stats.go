package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count) without modifying xs. An empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the exact nearest-rank p-th percentile (0 < p ≤ 100)
// of xs: the smallest sample with at least p% of the samples at or below
// it. Latency percentiles come from here, never from bucketed histograms.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// relGap is (b−a)/|a| signed so that positive means b is worse than a
// for a metric whose better direction is given.
func relGap(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	g := (b - a) / math.Abs(a)
	if higherBetter {
		g = -g
	}
	return g
}
