package main

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"krad/internal/sched"
	"krad/internal/sim"
)

// testScale keeps every workload's smoke run to a fraction of a second.
const testScale = 0.01

// pinnedDigests are the SHA-256 of every request body, in order, at seed 1
// and testScale. A change here is a change of the benchmark's inputs:
// every recorded baseline is void after it.
var pinnedDigests = map[string]string{
	"admit_stream":   "e8fc04faa39a6afbb2c68008ec72112341045b71584f8ab2e5353a3659d62f10",
	"overload_drain": "86383230e49cac28090ad5c2a7743bcd9ba9372c8f3f9f8fe532621199682a70",
	"kdag_mix":       "fdf3fa975abc553ce664c31a8dbb41e4cec45510f812b892ed74403ee6ba4de5",
	"tenant_churn":   "cdfaf0bb8005dc9d1efbfb553047ca10fc45b115982b5632ee8d94a635e009a2",
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(1, testScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(1, testScale)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 1 generated two different inputs", w.name)
		}
		if got := hex.EncodeToString(a.digest[:]); got != pinnedDigests[w.name] {
			t.Errorf("%s: seed 1 digest %s, pinned %s", w.name, got, pinnedDigests[w.name])
		}
		c, err := w.generate(2, testScale)
		if err != nil {
			t.Fatal(err)
		}
		if c.digest == a.digest {
			t.Errorf("%s: seeds 1 and 2 generated the same input", w.name)
		}
		if c.jobs != a.jobs || len(c.reqs) != len(a.reqs) {
			t.Errorf("%s: seeds 1 and 2 differ in size: %d/%d jobs, %d/%d requests", w.name, a.jobs, c.jobs, len(a.reqs), len(c.reqs))
		}
		var bytesA, bytesC int
		for i := range a.reqs {
			bytesA += len(a.reqs[i].body)
			bytesC += len(c.reqs[i].body)
		}
		if bytesA != bytesC {
			t.Errorf("%s: the seed changed the population, not just its order: %d vs %d body bytes", w.name, bytesA, bytesC)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own lists equal,
// and every name inside the contract's alphabet.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better(m.higher) {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the program %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25) {
				t.Errorf("%s %s: bound mismatch or out of (0, 0.25]", kind, m.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s %s: name or unit %q outside the contract's alphabet, or used twice", kind, m.name, m.unit)
			}
			seen[m.name] = true
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestLeapReasons: the per-layer list names one metric per reason the
// engine enumerates, no more and no fewer.
func TestLeapReasons(t *testing.T) {
	var got []string
	sim.LeapBlocked{}.Each(func(reason string, _ int64) { got = append(got, reason) })
	if !slices.Equal(got, leapReasons) {
		t.Errorf("engine enumerates leap-blocked reasons %v, the benchmark lists %v", got, leapReasons)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median(odd) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if xs[0] != 9 {
		t.Error("median sorted its argument in place")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100 … 1
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 0.5: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
	if g := relGap(100, 90, true); g != 0.1 {
		t.Errorf("relGap higher-better 100→90 = %v, want 0.1 (worse)", g)
	}
	if g := relGap(100, 90, false); g != -0.1 {
		t.Errorf("relGap lower-better 100→90 = %v, want −0.1 (better)", g)
	}
}

// TestDecoratorKeepsCapabilities: the engine binds scheduler capabilities
// by type assertion, so the timing decorator must have exactly the set the
// shipped scheduler has — no fewer (leaps and allocation-free allots would
// silently turn off) and no more (the engine would call what the inner
// scheduler cannot answer).
func TestDecoratorKeepsCapabilities(t *testing.T) {
	shipped := newScheduler(3)
	decorated := sched.Scheduler(&timedScheduler{inner: shipped.(shippedScheduler), tr: newTracer()})
	caps := map[string]func(sched.Scheduler) bool{
		"IntoAllotter": func(s sched.Scheduler) bool { _, ok := s.(sched.IntoAllotter); return ok },
		"Stable":       func(s sched.Scheduler) bool { _, ok := s.(sched.Stable); return ok },
		"Completer":    func(s sched.Scheduler) bool { _, ok := s.(sched.Completer); return ok },
		"Snapshotter":  func(s sched.Scheduler) bool { _, ok := s.(sched.Snapshotter); return ok },
		"Clairvoyant":  func(s sched.Scheduler) bool { _, ok := s.(sched.Clairvoyant); return ok },
	}
	for name, has := range caps {
		if has(shipped) != has(decorated) {
			t.Errorf("sched.%s: shipped scheduler %v, decorator %v", name, has(shipped), has(decorated))
		}
	}
	if decorated.Name() != shipped.Name() {
		t.Errorf("decorator renames the scheduler: %q vs %q", decorated.Name(), shipped.Name())
	}
}

func TestParseIDs(t *testing.T) {
	got := parseIDs(nil, []byte(`{"ids":[4294967296,7,12],"shard":1}`+"\n"))
	if want := []int{4294967296, 7, 12}; !slices.Equal(got, want) {
		t.Fatalf("parseIDs = %v, want %v", got, want)
	}
	if got := parseIDs(nil, []byte(`{"error":"nope"}`)); len(got) != 0 {
		t.Errorf("parseIDs of an error body = %v, want none", got)
	}
}

// TestSmoke runs every workload end to end at testScale, twice, and
// requires every correctness check of the real run to hold: all requests
// 2xx, completed + cancelled = accepted, identical virtual counters
// across repetitions, a restart that reproduces the pre-Close statistics.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		in, err := w.generate(1, testScale)
		if err != nil {
			t.Fatal(err)
		}
		var reps []*repResult
		for i := 0; i < 2; i++ {
			res, err := runRep(w, in, t.TempDir(), repOptions{})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, res)
		}
		med, problems := summarize(w, reps)
		for _, p := range problems {
			t.Error(p)
		}
		for _, m := range endToEnd {
			if v, ok := med[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v)
			}
		}
	}
}

// TestTracedSmoke runs the traced run at testScale: the decorated
// repetition must reproduce the undecorated virtual counters, the bare
// engine and the journal replay must end at the same step, a span file
// must appear, and every per-layer metric must be reported.
func TestTracedSmoke(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 1, seconds: 0.2, scale: testScale, workdir: dir, traceDir: dir}
	env := newEnvironment(dir)
	for _, w := range workloads {
		in, err := w.generate(o.seed, o.scale)
		if err != nil {
			t.Fatal(err)
		}
		out, problems, err := traceWorkload(o, w, in, &env)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Error(p)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s: traced run correct=%v attempted=%d failed=%d", w.name, out.Correct, out.Attempted, out.Failed)
		}
		for _, m := range perLayer {
			if _, ok := out.Metrics[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", w.name, m.name)
			}
		}
		var sf spanFile
		data, err := os.ReadFile(dir + "/" + w.name + ".spans.json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &sf); err != nil {
			t.Fatal(err)
		}
		if len(sf.Spans) == 0 || len(sf.Names) != numSpanKinds {
			t.Errorf("%s: span file has %d spans and %d names", w.name, len(sf.Spans), len(sf.Names))
		}
		for i, s := range sf.Spans {
			if s[2] < s[1] || s[3] >= int64(i) {
				t.Fatalf("%s: span %d %v ends before it starts or names a later parent", w.name, i, s)
			}
		}
	}
}
