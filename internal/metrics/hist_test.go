package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestLatencyHistEmpty(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Report() != (LatencyReport{}) {
		t.Fatalf("empty histogram not all-zero: %+v", h.Report())
	}
}

func TestLatencyHistSingle(t *testing.T) {
	var h Hist
	h.Observe(0.25)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(p); got != 0.25 {
			t.Fatalf("Quantile(%v) = %v, want 0.25", p, got)
		}
	}
	if r := h.Report(); r.Mean != 0.25 || r.Min != 0.25 || r.Max != 0.25 {
		t.Fatalf("single-sample stats wrong: %+v", r)
	}
}

// Quantiles of a known uniform grid must land within one bucket (~19%
// relative) of the exact value.
func TestLatencyHistQuantileAccuracy(t *testing.T) {
	var h Hist
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) * 1e-4) // 0.1ms .. 1s uniform
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := p * float64(n) * 1e-4
		got := h.Quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > 0.20 {
			t.Errorf("Quantile(%v) = %v, exact %v, rel err %.3f > 0.20", p, got, exact, rel)
		}
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if mean := h.Report().Mean; math.Abs(mean-0.50005) > 1e-9 {
		t.Fatalf("Mean = %v, want 0.50005", mean)
	}
}

func TestLatencyHistMonotoneQuantiles(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(math.Exp(rng.NormFloat64()) * 1e-3)
	}
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		prev = q
	}
	if r := h.Report(); h.Quantile(0) != r.Min || h.Quantile(1) != r.Max {
		t.Fatalf("extreme quantiles don't match min/max")
	}
}

func TestLatencyHistNegativeAndHuge(t *testing.T) {
	var h Hist
	h.Observe(-5)         // clamps to 0
	h.Observe(1e9)        // lands in the overflow bucket
	h.Observe(math.NaN()) // clamps to 0
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if r := h.Report(); r.Min != 0 || r.Max != 1e9 {
		t.Fatalf("min/max = %v/%v, want 0/1e9", r.Min, r.Max)
	}
	if q := h.Quantile(0.5); q < 0 {
		t.Fatalf("Quantile(0.5) = %v, want >= 0", q)
	}
	if h.CountLE(math.Ldexp(1, histMaxExp)) != 2 {
		t.Fatalf("overflow sample counted under the top edge")
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b, all Hist
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		v := math.Exp(rng.NormFloat64()) * 1e-2
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	ra, rall := a.Report(), all.Report()
	// Mean sums floats in a different order, so allow rounding slack there;
	// everything else merges exactly.
	if math.Abs(ra.Mean-rall.Mean) > 1e-12 {
		t.Fatalf("merged mean %v != combined mean %v", ra.Mean, rall.Mean)
	}
	ra.Mean, rall.Mean = 0, 0
	if ra != rall {
		t.Fatalf("merged report %+v != combined report %+v", ra, rall)
	}
	var empty Hist
	a.Merge(&empty) // merging empty is a no-op
	got := a.Report()
	got.Mean, rall.Mean = 0, 0
	if got != rall {
		t.Fatalf("merge of empty changed the report")
	}
}

// TestLatencyHistConcurrent: a Hist takes no lock, so concurrent recorders
// keep one each and merge — the way kradreplay's workers do.
func TestLatencyHistConcurrent(t *testing.T) {
	const workers, per = 8, 1000
	hists := make([]Hist, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				hists[w].Observe(rng.Float64())
			}
		}(w)
	}
	wg.Wait()
	var h Hist
	for w := range hists {
		h.Merge(&hists[w])
	}
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
}

// TestLatencyBucketBoundaries: edges are upper-inclusive — every bucket's
// upper bound maps into that bucket and the next float above it into the
// next one — they are the quarter-octave powers of two, and every sample
// lies in (edge(i−1), edge(i)] of the bucket it is given.
func TestLatencyBucketBoundaries(t *testing.T) {
	if histEdge(0) != histLow || histLow != math.Ldexp(1, histMinExp) || histEdge(histBuckets-2) != histTop {
		t.Fatalf("range [%v, %v], constants [%v, %v]", histEdge(0), histEdge(histBuckets-2), histLow, float64(histTop))
	}
	for i := 0; i < histBuckets-1; i++ {
		hi := histEdge(i)
		if want := math.Exp2(histMinExp + float64(i)/4); math.Abs(hi-want) > 1e-12*want {
			t.Fatalf("edge(%d) = %v, want %v", i, hi, want)
		}
		if i%4 == 0 && hi != math.Ldexp(1, histMinExp+i/4) {
			t.Fatalf("edge(%d) = %v is not an exact power of two", i, hi)
		}
		if got := histBucket(hi); got != i {
			t.Fatalf("histBucket(edge(%d)) = %d", i, got)
		}
		if got := histBucket(math.Nextafter(hi, math.Inf(1))); got != i+1 {
			t.Fatalf("histBucket(just over edge(%d)) = %d, want %d", i, got, i+1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200_000; n++ {
		v := math.Exp2(rng.Float64()*60 - 26)
		i := histBucket(v)
		if (i > 0 && v <= histEdge(i-1)) || (i < histBuckets-1 && v > histEdge(i)) {
			t.Fatalf("sample %v put in bucket %d", v, i)
		}
	}
	for v, want := range map[float64]int{0: 0, 5e-324: 0, 1e300: histBuckets - 1, math.Inf(1): histBuckets - 1} {
		if got := histBucket(v); got != want {
			t.Fatalf("histBucket(%v) = %d, want %d", v, got, want)
		}
	}
}

// TestHistCountLEFoldsPowersOfTwo: on the power-of-two bounds /metrics
// exposes, CountLE equals counting the raw sample — the fixed-bucket
// Prometheus histogram is an exact fold of the log buckets.
func TestHistCountLEFoldsPowersOfTwo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var h Hist
	var raw []float64
	for i := 0; i < 20000; i++ {
		v := math.Floor(math.Exp2(r.Float64() * 18)) // 1 … 262143, past the last bound
		if i%50 == 0 {
			v = math.Exp2(float64(r.Intn(17))) // exactly on a bound
		}
		h.Observe(v)
		raw = append(raw, v)
	}
	for bound := 1.0; bound <= 32768; bound *= 2 {
		var want uint64
		for _, v := range raw {
			if v <= bound {
				want++
			}
		}
		if got := h.CountLE(bound); got != want {
			t.Errorf("CountLE(%g) = %d, want %d", bound, got, want)
		}
	}
}

// TestHistExactFields pins the exact-statistics contract: N, Min, Max, Mean
// and StdDev from Hist.Summary equal Summarize over the raw sample
// bit-for-bit.
func TestHistExactFields(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var h Hist
	var raw []float64
	for i := 0; i < 5000; i++ {
		v := math.Floor(r.ExpFloat64() * 100)
		h.Observe(v)
		raw = append(raw, v)
	}
	got, want := h.Summary(), Summarize(raw)
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("exact fields diverge: got n=%d min=%v max=%v, want n=%d min=%v max=%v",
			got.N, got.Min, got.Max, want.N, want.Min, want.Max)
	}
	if got.Mean != want.Mean {
		t.Fatalf("mean diverges: got %v, want %v", got.Mean, want.Mean)
	}
	if math.Abs(got.StdDev-want.StdDev) > 1e-9*math.Max(1, want.StdDev) {
		t.Fatalf("stddev diverges: got %v, want %v", got.StdDev, want.StdDev)
	}
	sum := 0.0
	for _, v := range raw {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
}

// TestHistQuantileError pins the documented quantile error: each reported
// percentile is within one ~19% log bucket of the true order statistic,
// across distributions a response-time sample actually takes.
func TestHistQuantileError(t *testing.T) {
	dists := map[string]func(r *rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return math.Floor(r.Float64() * 1000) },
		"exp":       func(r *rand.Rand) float64 { return math.Floor(r.ExpFloat64() * 50) },
		"bimodal":   func(r *rand.Rand) float64 { return float64(10 + 990*(r.Intn(2))) },
		"heavytail": func(r *rand.Rand) float64 { return math.Floor(math.Pow(r.Float64(), -1.5)) },
	}
	for name, gen := range dists {
		r := rand.New(rand.NewSource(42))
		var h Hist
		var raw []float64
		for i := 0; i < 20000; i++ {
			v := gen(r)
			h.Observe(v)
			raw = append(raw, v)
		}
		got := h.Summary()
		want := Summarize(raw)
		check := func(stat string, g, w float64) {
			// One bucket is a factor of 2^(1/4) ≈ 1.19; allow 25% relative
			// error to absorb interpolation differences at bucket edges, plus
			// a small absolute floor for near-zero percentiles.
			if math.Abs(g-w) > 0.25*w+1 {
				t.Errorf("%s %s: got %v, want %v (>25%% off)", name, stat, g, w)
			}
		}
		check("p50", got.P50, want.P50)
		check("p90", got.P90, want.P90)
		check("p99", got.P99, want.P99)
	}
}

// TestHistMergeCopy pins that Merge equals observing the union and that a
// Hist copied by assignment is independent of its source.
func TestHistMergeCopy(t *testing.T) {
	var a, b, all Hist
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := math.Floor(r.Float64() * 500)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	m := a
	m.Merge(&b)
	if got, want := m.Summary(), all.Summary(); got != want {
		t.Fatalf("merge diverges from union: got %+v, want %+v", got, want)
	}
	before := a.Summary()
	c := a
	c.Observe(1e9)
	if got := a.Summary(); got != before {
		t.Fatalf("copy mutation leaked into source: %+v vs %+v", got, before)
	}
}

// TestHistEmpty pins zero-value behavior.
func TestHistEmpty(t *testing.T) {
	var h Hist
	if got := h.Summary(); got != (Summary{}) {
		t.Fatalf("empty summary = %+v, want zero", got)
	}
	var o Hist
	h.Merge(&o)
	if h.Count() != 0 {
		t.Fatalf("merging empties produced %d samples", h.Count())
	}
}
