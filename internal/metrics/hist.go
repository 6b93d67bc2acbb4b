package metrics

import (
	"fmt"
	"math"
)

// Histogram geometry: bucket i > 0 covers (edge(i−1), edge(i)] with
// edge(i) = 2^(histMinExp + i/4) — four buckets per octave, each ~19%
// wide, which bounds the relative error of any reported quantile. Edges
// are upper-inclusive and every power of two in range is one, so a
// Prometheus `le` series on powers of two is an exact fold of the counts
// (CountLE). The range covers wall-clock seconds from ~1µs and step counts
// to ~1.3e8 in one type; samples at or below edge(0) land in bucket 0,
// samples beyond the top edge in the last bucket.
const (
	histMinExp  = -20 // edge(0) = 2^-20 ≈ 0.95µs
	histMaxExp  = 27  // top edge 2^27 ≈ 1.3e8
	histBuckets = 4*(histMaxExp-histMinExp) + 2
	histLow     = 1.0 / (1 << -histMinExp) // edge(0)
	histTop     = 1 << histMaxExp          // edge(histBuckets−2)
)

// histFrac[r] is 2^(r/4 − 1): a bucket edge's mantissa in math.Frexp's
// [½, 1) normalization, by its position r within the octave.
var histFrac = [4]float64{0.5, 0.5946035575013605, 0.7071067811865476, 0.8408964152537145}

// histEdge returns bucket i's upper bound.
func histEdge(i int) float64 {
	return math.Ldexp(histFrac[i&3], histMinExp+i>>2+1)
}

// histBucket maps a non-negative sample to its bucket index.
func histBucket(v float64) int {
	if v <= histLow {
		return 0
	}
	if v > histTop {
		return histBuckets - 1
	}
	// v = frac·2^exp with frac in [½, 1): 2^(exp−1) is the edge at or below
	// v, and frac against the mantissas says how many edges lie strictly
	// below it in that octave. No logarithm.
	frac, exp := math.Frexp(v)
	i := 4 * (exp - 1 - histMinExp)
	switch {
	case frac > histFrac[3]:
		i += 4
	case frac > histFrac[2]:
		i += 3
	case frac > histFrac[1]:
		i += 2
	case frac > histFrac[0]:
		i++
	}
	return i
}

// Hist is the repository's one histogram: a fixed-size log-bucketed
// accumulator of non-negative samples — response times in virtual steps
// inside the server, wall-clock seconds in the load clients. N, sum, sum of
// squares, min and max are exact (so Summary's Mean, StdDev and extremes
// match Summarize over the raw sample); quantiles are good to one bucket.
//
// The zero value is ready to use and a Hist is copied by assignment. It is
// not concurrency-safe: record under the caller's lock, or keep one per
// goroutine and Merge them.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	sumSq  float64
	min    float64
	max    float64
}

// Observe records one sample. Negative and NaN samples count as zero.
func (h *Hist) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[histBucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.sumSq += v * v
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Sum returns the exact sum of recorded samples.
func (h *Hist) Sum() float64 { return h.sum }

// CountLE returns the number of samples ≤ le, exactly when le is a bucket
// edge (every power of two from 2^-20 to 2^27 is); otherwise samples
// between the nearest edge below le and le itself are left out.
func (h *Hist) CountLE(le float64) uint64 {
	i := histBucket(le)
	if i == histBuckets-1 || histEdge(i) > le {
		i-- // le lies inside bucket i, or past the top edge
	}
	var cum uint64
	for _, c := range h.counts[:i+1] {
		cum += c
	}
	return cum
}

// Quantile returns an estimate of the p-quantile (0 ≤ p ≤ 1), accurate to
// one bucket. It returns 0 when the histogram is empty and clamps
// out-of-range p. The exact min/max are used for the extreme quantiles so
// Quantile(0) is the minimum and Quantile(1) the maximum.
func (h *Hist) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	// Rank of the sample we want, 1-based.
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts[:histBuckets-1] {
		cum += c
		if cum >= rank {
			// Geometric midpoint of the bucket, clamped to the observed
			// extremes so sparse histograms don't report impossible values.
			v := histEdge(0)
			if i > 0 {
				v = math.Sqrt(histEdge(i-1) * histEdge(i))
			}
			return math.Max(h.min, math.Min(h.max, v))
		}
	}
	return h.max
}

// Merge adds all samples from o into h. Exact sums and extremes merge
// exactly; bucket counts add element-wise.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	h.sumSq += o.sumSq
}

// Summary reports the same statistic set Summarize computes over the raw
// sample: N, Min, Max, Mean and StdDev are exact; P50/P90/P99 are bucketed
// estimates within one ~19% bucket of the true order statistics.
func (h *Hist) Summary() Summary {
	if h.n == 0 {
		return Summary{}
	}
	s := Summary{N: int(h.n), Min: h.min, Max: h.max}
	n := float64(h.n)
	s.Mean = h.sum / n
	variance := h.sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	return s
}

// LatencyReport is the JSON-friendly summary load clients emit for a Hist
// of wall-clock seconds.
type LatencyReport struct {
	N    uint64  `json:"n"`
	Min  float64 `json:"min_s"`
	Mean float64 `json:"mean_s"`
	P50  float64 `json:"p50_s"`
	P90  float64 `json:"p90_s"`
	P99  float64 `json:"p99_s"`
	P999 float64 `json:"p999_s"`
	Max  float64 `json:"max_s"`
}

// Report summarizes the histogram as the standard percentile set.
func (h *Hist) Report() LatencyReport {
	s := h.Summary()
	return LatencyReport{
		N: h.n, Min: s.Min, Mean: s.Mean,
		P50: s.P50, P90: s.P90, P99: s.P99, P999: h.Quantile(0.999),
		Max: s.Max,
	}
}

// String renders the report compactly for log lines.
func (r LatencyReport) String() string {
	return fmt.Sprintf("n=%d p50=%.6fs p99=%.6fs p999=%.6fs max=%.6fs",
		r.N, r.P50, r.P99, r.P999, r.Max)
}
