// Command kradsim runs one K-resource scheduling simulation and reports
// the paper's metrics: makespan, mean response time, the Section 4/6 lower
// bounds, and the resulting competitive ratios.
//
// The workload is either generated (-jobs/-shapes/-arrive) or loaded from a
// JSON file (-load) holding [{"release": R, "graph": {...}}, ...] with
// graphs in the internal/dag encoding.
//
// Usage:
//
//	kradsim -caps 4,4,4 -sched k-rad -jobs 50 -arrive poisson:3 \
//	        [-pick fifo] [-seed 1] [-gantt] [-csv trace.csv]
//	kradsim -preset overload -gantt     # a small fixed job set, drawn
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"krad/internal/analysis"
	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
	"krad/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kradsim: ")
	var (
		capsFlag   = flag.String("caps", "4,4,4", "per-category processor counts, comma-separated; their number is K")
		schedFlag  = flag.String("sched", "k-rad", fmt.Sprintf("scheduler: one of %v", analysis.SchedulerNames()))
		jobsFlag   = flag.Int("jobs", 20, "number of generated jobs (ignored with -load)")
		familyFlag = flag.String("family", "dag", "generated runtime family: dag, profile, moldable, mixed (ignored with -load/-swf/-preset)")
		shapeFlag  = flag.String("shapes", "", "restrict job shapes (comma-separated: chain,forkjoin,layered,mapreduce,pipeline,random,reduction,butterfly,stencil,dnc)")
		arrive     = flag.String("arrive", "batched", `arrival process: "batched", "poisson:<mean>", "uniform:<lo>,<hi>", or "bursty:<size>,<gap>"`)
		pickFlag   = flag.String("pick", "fifo", "task pick policy: fifo, lifo, random, cp-first, cp-last")
		seedFlag   = flag.Int64("seed", 1, "workload seed")
		minSize    = flag.Int("min-size", 4, "minimum job size (tasks)")
		maxSize    = flag.Int("max-size", 60, "maximum job size (tasks)")
		loadFlag   = flag.String("load", "", "load the job set from a JSON file instead of generating")
		swfFlag    = flag.String("swf", "", "load the job set from a Standard Workload Format log")
		swfScale   = flag.Int64("swf-scale", 60, "seconds per simulation step when reading SWF")
		swfMax     = flag.Int("swf-maxjobs", 500, "cap on SWF jobs read (0 = all)")
		presetFlag = flag.String("preset", "", fmt.Sprintf("use a named workload preset (overrides -caps/-jobs): %v", workload.PresetNames()))
		saveFlag   = flag.String("save", "", "write the job set to a JSON file (usable later with -load)")
		ganttFlag  = flag.Bool("gantt", false, "print an ASCII Gantt chart and re-check the schedule against Section 2 (small DAG runs only)")
		csvFlag    = flag.String("csv", "", "write the per-step trace as CSV to this file")
		jsonFlag   = flag.String("json", "", `write the run result + competitive ratios as JSON to this file ("-" = stdout, suppressing the report)`)
	)
	flag.Parse()

	caps, err := parseInts(*capsFlag)
	if err != nil {
		log.Fatalf("-caps must be a comma-separated list of integers: %v", err)
	}
	k := len(caps)
	var specs []sim.JobSpec
	switch {
	case *presetFlag != "":
		p, perr := workload.FindPreset(*presetFlag)
		if perr != nil {
			log.Fatal(perr)
		}
		k, caps = p.K, append([]int(nil), p.Caps...)
		specs, err = p.Build(*seedFlag)
		if err == nil {
			fmt.Printf("preset %q: %s\n", p.Name, p.Description)
		}
	case *swfFlag != "":
		var f *os.File
		f, err = os.Open(*swfFlag)
		if err != nil {
			log.Fatal(err)
		}
		var recs []workload.SWFRecord
		specs, recs, err = workload.ParseSWF(f, workload.SWFOptions{
			K: k, TimeScale: *swfScale, MaxJobs: *swfMax,
		})
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err == nil {
			fmt.Printf("SWF log %s: %d usable jobs loaded (scale %ds/step)\n", *swfFlag, len(recs), *swfScale)
		}
	case *loadFlag != "":
		specs, err = loadSpecs(*loadFlag)
	default:
		specs, err = generateFamily(*familyFlag, k, *jobsFlag, *shapeFlag, *arrive, *minSize, *maxSize, *seedFlag)
	}
	if err != nil {
		log.Fatal(err)
	}
	scheduler, err := analysis.NewScheduler(*schedFlag, k)
	if err != nil {
		log.Fatal(err)
	}
	// Moldable jobs pin processors non-preemptively; any job set containing
	// them needs a floor-respecting scheduler.
	for _, s := range specs {
		if s.Source != nil && sim.FamilyOf(s.Source) == sim.FamilyMoldable {
			scheduler = sched.WithFloors(scheduler)
			break
		}
	}
	pick, err := parsePick(*pickFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *saveFlag != "" {
		if err := saveSpecs(*saveFlag, specs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job set written to %s\n", *saveFlag)
	}

	level := sim.TraceNone
	if *csvFlag != "" {
		level = sim.TraceSteps
	}
	if *ganttFlag {
		level = sim.TraceTasks
	}
	res, err := sim.Run(sim.Config{
		K: k, Caps: caps, Scheduler: scheduler, Pick: pick, Seed: *seedFlag,
		Trace: level, ValidateAllotments: true,
	}, specs)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonFlag != "-" {
		report(res)
	}
	if *jsonFlag != "" {
		if err := writeRunJSON(*jsonFlag, res); err != nil {
			log.Fatal(err)
		}
		if *jsonFlag != "-" {
			fmt.Printf("result written to %s\n", *jsonFlag)
		}
	}
	if *ganttFlag {
		fmt.Println()
		fmt.Print(res.Trace.Gantt(len(res.Jobs), 200))
		// Tasks were recorded: re-check the schedule independently of the
		// engine that produced it.
		if err := sim.ValidateSchedule(specs, res); err != nil {
			log.Fatalf("schedule INVALID: %v", err)
		}
		fmt.Println("\nschedule re-validated against the Section 2 conditions: OK")
	}
	if *csvFlag != "" {
		f, err := os.Create(*csvFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Trace.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s\n", *csvFlag)
	}
}

// writeRunJSON emits one machine-readable JSON object holding the full
// run result (jobs, makespan, responses, utilization) plus the paper's
// lower bounds and competitive ratios. path "-" writes to stdout.
func writeRunJSON(path string, res *sim.Result) error {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return err
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		return err
	}
	r := metrics.ComputeRatios(res)
	obj["ratios"] = map[string]any{
		"makespan_lb":    r.MakespanLB,
		"makespan_ratio": r.MakespanRatio,
		"makespan_bound": r.MakespanBound,
		"response_lb":    r.ResponseLB,
		"response_ratio": r.ResponseRatio,
		"response_bound": r.ResponseBound,
		"light_load":     r.LightLoad,
	}
	data, err := json.MarshalIndent(obj, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func report(res *sim.Result) {
	r := metrics.ComputeRatios(res)
	fmt.Printf("scheduler      %s\n", res.Scheduler)
	fmt.Printf("jobs           %d\n", len(res.Jobs))
	fmt.Printf("K / caps       %d / %v\n", res.K, res.Caps)
	fmt.Printf("makespan       %d (lower bound %d, ratio %.3f, theorem bound %.3f)\n",
		r.Makespan, r.MakespanLB, r.MakespanRatio, r.MakespanBound)
	fmt.Printf("mean response  %.2f (total %d, lower bound %.1f, ratio %.3f, theorem bound %.3f)\n",
		res.MeanResponse(), r.TotalResponse, r.ResponseLB, r.ResponseRatio, r.ResponseBound)
	regime := "heavy (some category overloaded)"
	if r.LightLoad {
		regime = "light (|J(α,t)| ≤ Pα throughout)"
	}
	fmt.Printf("workload       %s\n", regime)
	fmt.Printf("utilization    ")
	for a, u := range res.Utilization() {
		if a > 0 {
			fmt.Print("  ")
		}
		fmt.Printf("cat%d=%.1f%%", a+1, 100*u)
	}
	fmt.Println()
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePick(s string) (dag.PickPolicy, error) {
	switch s {
	case "fifo":
		return dag.PickFIFO, nil
	case "lifo":
		return dag.PickLIFO, nil
	case "random":
		return dag.PickRandom, nil
	case "cp-first":
		return dag.PickCPFirst, nil
	case "cp-last":
		return dag.PickCPLast, nil
	}
	return 0, fmt.Errorf("unknown pick policy %q", s)
}

func parseShapes(s string) ([]workload.Shape, error) {
	if s == "" {
		return nil, nil
	}
	byName := map[string]workload.Shape{}
	for _, sh := range workload.AllShapes {
		byName[sh.String()] = sh
	}
	var out []workload.Shape
	for _, p := range strings.Split(s, ",") {
		sh, ok := byName[strings.TrimSpace(p)]
		if !ok {
			return nil, fmt.Errorf("unknown shape %q", p)
		}
		out = append(out, sh)
	}
	return out, nil
}

func generate(k, jobs int, shapes, arrive string, minSize, maxSize int, seed int64) ([]sim.JobSpec, error) {
	shapeList, err := parseShapes(shapes)
	if err != nil {
		return nil, err
	}
	mix := workload.Mix{
		K: k, Jobs: jobs, Shapes: shapeList,
		MinSize: minSize, MaxSize: maxSize, Seed: seed,
	}
	if arrive == "batched" {
		return mix.Generate()
	}
	name, arg, _ := strings.Cut(arrive, ":")
	switch name {
	case "poisson":
		mean, err := strconv.ParseFloat(arg, 64)
		if err != nil || mean <= 0 {
			return nil, fmt.Errorf("poisson needs a positive mean, got %q (%v)", arg, err)
		}
		return mix.GenerateOnline(workload.Poisson(mean))
	case "uniform":
		vals, err := parseInts(arg)
		if err != nil || len(vals) != 2 {
			return nil, fmt.Errorf("uniform needs lo,hi: %v", err)
		}
		if vals[0] < 0 || vals[1] < vals[0] {
			return nil, fmt.Errorf("uniform needs 0 ≤ lo ≤ hi, got %d,%d", vals[0], vals[1])
		}
		return mix.GenerateOnline(workload.Uniform(int64(vals[0]), int64(vals[1])))
	case "bursty":
		vals, err := parseInts(arg)
		if err != nil || len(vals) != 2 {
			return nil, fmt.Errorf("bursty needs size,gap: %v", err)
		}
		if vals[0] < 1 || vals[1] < 0 {
			return nil, fmt.Errorf("bursty needs size ≥ 1 and gap ≥ 0, got %d,%d", vals[0], vals[1])
		}
		return mix.GenerateOnline(workload.Bursty(vals[0], int64(vals[1])))
	}
	return nil, fmt.Errorf("unknown arrival process %q", arrive)
}

// generateFamily dispatches workload generation by runtime family. The
// dag family keeps the full shape/arrival machinery; profile and moldable
// sets are drawn by their packages' deterministic generators, with the
// size flags mapped onto the closest notion the family has (phases for
// profiles, tasks for moldable jobs). mixed splits the job count across
// the three families, interleaved so releases stay spread.
func generateFamily(family string, k, jobs int, shapes, arrive string, minSize, maxSize int, seed int64) ([]sim.JobSpec, error) {
	switch family {
	case "dag":
		return generate(k, jobs, shapes, arrive, minSize, maxSize, seed)
	case "profile":
		return profile.Generate(profile.GenOpts{
			K: k, Jobs: jobs,
			MinPhases: 2, MaxPhases: 8, MaxParallelism: maxSize, Seed: seed,
		})
	case "moldable":
		return moldable.Generate(moldable.GenOpts{
			K: k, Jobs: jobs,
			MinTasks: minSize, MaxTasks: maxSize, Seed: seed,
		}), nil
	case "mixed":
		third := jobs / 3
		if third < 1 {
			third = 1
		}
		dags, err := generate(k, third, shapes, arrive, minSize, maxSize, seed)
		if err != nil {
			return nil, err
		}
		profs, err := profile.Generate(profile.GenOpts{
			K: k, Jobs: third,
			MinPhases: 2, MaxPhases: 8, MaxParallelism: maxSize, Seed: seed + 1,
		})
		if err != nil {
			return nil, err
		}
		rest := jobs - 2*third
		if rest < 0 {
			rest = 0
		}
		molds := moldable.Generate(moldable.GenOpts{
			K: k, Jobs: rest,
			MinTasks: minSize, MaxTasks: maxSize, Seed: seed + 2,
		})
		specs := append(append(dags, profs...), molds...)
		return specs, nil
	}
	return nil, fmt.Errorf("unknown family %q (want dag, profile, moldable or mixed)", family)
}

// jobJSON is the -load file format.
type jobJSON struct {
	Release int64      `json:"release"`
	Graph   *dag.Graph `json:"graph"`
}

func saveSpecs(path string, specs []sim.JobSpec) error {
	jobs := make([]jobJSON, len(specs))
	for i, s := range specs {
		if s.Graph == nil {
			return fmt.Errorf("job %d has no graph; only DAG-backed job sets can be saved", i)
		}
		jobs[i] = jobJSON{Release: s.Release, Graph: s.Graph}
	}
	data, err := json.MarshalIndent(jobs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadSpecs(path string) ([]sim.JobSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jobs []jobJSON
	if err := json.Unmarshal(data, &jobs); err != nil {
		return nil, fmt.Errorf("parse %s: %s", path, describeJSONError(data, err))
	}
	specs := make([]sim.JobSpec, len(jobs))
	for i, j := range jobs {
		if j.Graph == nil {
			return nil, fmt.Errorf("%s: job %d has no graph", path, i)
		}
		specs[i] = sim.JobSpec{Graph: j.Graph, Release: j.Release}
	}
	return specs, nil
}

// describeJSONError turns encoding/json's byte-offset errors into a
// line:column position and reminds the user of the expected file format.
func describeJSONError(data []byte, err error) string {
	const hint = `expected [{"release": R, "graph": {"k": K, "categories": [...], "edges": [[u,v], ...]}}, ...]`
	var offset int64 = -1
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		offset = syn.Offset
	case errors.As(err, &typ):
		offset = typ.Offset
	}
	if offset < 0 || offset > int64(len(data)) {
		return fmt.Sprintf("%v (%s)", err, hint)
	}
	line, col := 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("line %d, column %d: %v (%s)", line, col, err, hint)
}
