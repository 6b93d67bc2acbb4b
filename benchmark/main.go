// Command benchmark is the repository's performance benchmark: four
// deterministic workloads driven through kradd's HTTP handler on a
// hand-stepped clock, ten end-to-end metrics per workload, and a traced
// run that attributes them to the layers underneath. See README.md.
//
//	benchmark --workload admit_stream --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object,
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Without --workload every workload runs, interleaved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric. The end-to-end list here is the
// list in BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // relative worsening that counts as a regression
}

var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"jobs_per_s", "1/s", true, 0.20},
	{"admit_p50_ms", "ms", false, 0.25},
	{"cpu_us_per_job", "us", false, 0.15},
	{"allocs_per_job", "1", false, 0.03},
	{"retained_bytes_per_job", "B", false, 0.03},
	{"journal_bytes_per_job", "B", false, 0.005},
	{"mean_response_steps", "steps", false, 0.02},
	{"makespan_steps", "steps", false, 0.01},
	{"steps_per_s", "1/s", true, 0.25},
}

// e2eValues derives the end-to-end metrics of one repetition. Timings of
// the timed phase are scaled to the reference machine (calib.go) by the
// chunks interleaved with it; admit_p50_ms by those interleaved with the
// submits alone, which on overload_drain are the phase's first 20 ms.
func e2eValues(res *repResult) map[string]float64 {
	jobs := float64(res.Completed + res.Cancelled)
	f := res.calib.factor()
	return map[string]float64{
		"setup_s":                res.setup.Seconds(),
		"jobs_per_s":             jobs / (res.wall.Seconds() * f),
		"admit_p50_ms":           median(res.run.admitMS) * res.calib.medianFactor(res.admitChunks),
		"cpu_us_per_job":         float64(res.cpu) / float64(time.Microsecond) * f / jobs,
		"allocs_per_job":         float64(res.mallocs) / jobs,
		"retained_bytes_per_job": float64(res.retained) / jobs,
		"journal_bytes_per_job":  float64(res.JournalBytes) / jobs,
		"mean_response_steps":    res.MeanResponse,
		"makespan_steps":         float64(res.Makespan),
		"steps_per_s":            float64(res.Steps) / (res.run.total[spanStep].Seconds() * f),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	scale    float64
	workdir  string
	traceDir string
	verbose  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty = all four, interleaved)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: orders the fixed job population")
	flag.Float64Var(&o.seconds, "seconds", 25, "measuring budget per workload; repetitions run until it is spent (at least one)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	flag.BoolVar(&o.aa, "aa", false, "A/A check: two alternating sets of the same binary, compared against the bounds")
	flag.Float64Var(&o.scale, "scale", 1, "input size factor (tests only; metrics are comparable only at 1)")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for journal files")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory for span files of the traced run")
	flag.BoolVar(&o.verbose, "v", false, "print every repetition's raw span totals and reference chunk times to standard error")
	flag.Parse()
	code, err := realMain(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func realMain(o options) (int, error) {
	if flag.NArg() > 0 {
		return 0, fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	run := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return 0, fmt.Errorf("unknown workload %q", o.workload)
		}
		run = []*workloadDef{w}
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return 0, err
	}
	// A private directory per invocation, removed on the way out, so
	// concurrent runs cannot collide and nothing is left behind.
	workdir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(workdir)
	o.workdir = workdir

	env := newEnvironment(workdir)
	inputs := make([]*input, len(run))
	for i, w := range run {
		if inputs[i], err = w.generate(o.seed, o.scale); err != nil {
			return 0, err
		}
	}
	switch {
	case o.aa:
		return runAA(o, run, inputs, &env)
	case o.trace != 0:
		return runTraced(o, run, inputs, &env)
	default:
		return runEndToEnd(o, run, inputs, &env)
	}
}

// repeat runs repetitions of every workload, interleaved A B C D A B C D …
// so that machine drift lasting tens of seconds lands on all of them
// alike, until each workload has spent its --seconds budget (measured
// time: timed phase plus restart). sets > 1 alternates that many
// independent sets of the same workload, for the A/A check.
func repeat(o options, run []*workloadDef, inputs []*input, env *environment, sets int) ([][][]*repResult, error) {
	out := make([][][]*repResult, len(run))
	spent := make([]time.Duration, len(run))
	for i := range out {
		out[i] = make([][]*repResult, sets)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	for rep := 0; ; rep++ {
		progressed := false
		for i, w := range run {
			// Another repetition only if it is likely to fit: the mean so far
			// must not overrun the budget by more than half a repetition.
			if rep > 0 && spent[i]+spent[i]/time.Duration(2*rep) > budget {
				continue
			}
			progressed = true
			for s := 0; s < sets; s++ {
				res, err := runRep(w, inputs[i], o.workdir, repOptions{})
				if err != nil {
					return nil, err
				}
				env.note(res)
				if o.verbose {
					debugTotals(res)
				}
				out[i][s] = append(out[i][s], res)
				spent[i] += (res.wall + res.setup) / time.Duration(sets)
			}
		}
		if !progressed {
			return out, nil
		}
	}
}

// summarize reduces a set of repetitions to per-metric medians and checks
// that the virtual counters repeated exactly.
func summarize(w *workloadDef, reps []*repResult) (map[string]float64, []string) {
	var problems []string
	per := make(map[string][]float64)
	for i, res := range reps {
		for _, p := range res.problems {
			problems = append(problems, fmt.Sprintf("%s rep %d: %s", w.name, i, p))
		}
		if res.run.failed > 0 {
			problems = append(problems, fmt.Sprintf("%s rep %d: %d of %d operations failed", w.name, i, res.run.failed, res.run.attempted))
		}
		if res.virtual != reps[0].virtual {
			problems = append(problems, fmt.Sprintf("%s rep %d: virtual counters %+v differ from rep 0 %+v", w.name, i, res.virtual, reps[0].virtual))
		}
		for k, v := range e2eValues(res) {
			per[k] = append(per[k], v)
		}
	}
	med := make(map[string]float64, len(per))
	for k, vs := range per {
		med[k] = median(vs)
	}
	return med, problems
}

func runEndToEnd(o options, run []*workloadDef, inputs []*input, env *environment) (int, error) {
	all, err := repeat(o, run, inputs, env, 1)
	if err != nil {
		return 0, err
	}
	printEnv(env)
	code := 0
	for i, w := range run {
		reps := all[i][0]
		med, problems := summarize(w, reps)
		out := result{Correct: len(problems) == 0, Metrics: make(map[string]metricValue)}
		for _, res := range reps {
			out.Attempted += res.run.attempted
			out.Failed += res.run.failed
		}
		fmt.Printf("\n%s  seed %d  %d jobs  %d repetitions\n", w.name, o.seed, inputs[i].jobs, len(reps))
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{med[m.name], m.unit}
			fmt.Printf("  %-24s %16.6g %s\n", m.name, med[m.name], m.unit)
		}
		fmt.Printf("  %-24s %16d\n  %-24s %16d\n", "operations_attempted", out.Attempted, "operations_failed", out.Failed)
		for _, p := range problems {
			fmt.Println("  PROBLEM:", p)
		}
		if !out.Correct {
			code = 1
		}
		printResult(out)
	}
	return code, nil
}

func printEnv(env *environment) {
	data, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", data)
}

func printResult(r result) {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Printf("%s\n", data)
}

func debugTotals(res *repResult) {
	for k := 0; k < numSpanKinds; k++ {
		if res.run.count[k] > 0 {
			fmt.Fprintf(os.Stderr, "  %-18s n=%-8d total=%v\n", spanNames[k], res.run.count[k], res.run.total[k])
		}
	}
	fmt.Fprintf(os.Stderr, "  wall=%v cpu=%v gc=%.3fs setup=%v calib=%.2fms chunk=%.3fus\n",
		res.wall, res.cpu, res.gcCPU, res.setup, res.calibMS, res.calib.chunkUS())
	fmt.Fprintf(os.Stderr, "  fsync=%v admit_p50=%.3fus admit_factor=%.4f\n",
		res.fsync, 1000*median(res.run.admitMS), res.calib.medianFactor(res.admitChunks))
}
