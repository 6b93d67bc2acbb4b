package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sim"
	"krad/internal/workload"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("bad int accepted")
	}
}

func TestParsePick(t *testing.T) {
	cases := map[string]dag.PickPolicy{
		"fifo": dag.PickFIFO, "lifo": dag.PickLIFO, "random": dag.PickRandom,
		"cp-first": dag.PickCPFirst, "cp-last": dag.PickCPLast,
	}
	for name, want := range cases {
		got, err := parsePick(name)
		if err != nil || got != want {
			t.Errorf("parsePick(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parsePick("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestParseShapes(t *testing.T) {
	got, err := parseShapes("chain, random")
	if err != nil || len(got) != 2 {
		t.Errorf("parseShapes = %v, %v", got, err)
	}
	if got, err := parseShapes(""); err != nil || got != nil {
		t.Errorf("empty = %v, %v", got, err)
	}
	if _, err := parseShapes("nope"); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestGenerateArrivals(t *testing.T) {
	for _, arrive := range []string{"batched", "poisson:2.5", "uniform:1,4", "bursty:5,20"} {
		specs, err := generate(2, 10, "", arrive, 2, 10, 1)
		if err != nil {
			t.Errorf("%s: %v", arrive, err)
			continue
		}
		if len(specs) != 10 {
			t.Errorf("%s: %d specs", arrive, len(specs))
		}
	}
	for _, bad := range []string{"poisson:x", "uniform:1", "bursty:0,1", "warp:9"} {
		if _, err := generate(2, 5, "", bad, 2, 10, 1); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.json")
	specs := []sim.JobSpec{
		{Graph: dag.Figure1(), Release: 0},
		{Graph: dag.UniformChain(3, 5, 2), Release: 7},
	}
	if err := saveSpecs(path, specs); err != nil {
		t.Fatal(err)
	}
	back, err := loadSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(specs) {
		t.Fatalf("%d jobs back, want %d", len(back), len(specs))
	}
	for i := range specs {
		if back[i].Release != specs[i].Release {
			t.Errorf("job %d release %d, want %d", i, back[i].Release, specs[i].Release)
		}
		if back[i].Graph.NumTasks() != specs[i].Graph.NumTasks() ||
			back[i].Graph.Span() != specs[i].Graph.Span() {
			t.Errorf("job %d shape changed", i)
		}
	}
}

// TestSaveLoadEveryKind saves a rigid job set read from an SWF log, a
// moldable set and a graph set, loads each back, and pins that the
// reloaded set runs to the same makespan and mean response.
func TestSaveLoadEveryKind(t *testing.T) {
	const k = 2
	caps := []int{3, 2}
	var swf bytes.Buffer
	if err := workload.WriteSyntheticSWF(&swf, 40, 5); err != nil {
		t.Fatal(err)
	}
	rigid, _, err := workload.ParseSWF(&swf, workload.SWFOptions{K: k, TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	molds, err := generateFamily("moldable", k, 12, "", "poisson:3", 2, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := generateFamily("dag", k, 12, "", "poisson:3", 2, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(specs []sim.JobSpec) *sim.Result {
		t.Helper()
		res, err := sim.Run(sim.Config{K: k, Caps: caps, Scheduler: core.NewKRAD(k), Pick: dag.PickFIFO}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for name, specs := range map[string][]sim.JobSpec{"swf": rigid, "moldable": molds, "dag": graphs} {
		if len(specs) == 0 {
			t.Fatalf("%s: empty job set", name)
		}
		path := filepath.Join(t.TempDir(), name+".json")
		if err := saveSpecs(path, specs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := loadSpecs(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, got := run(specs), run(back)
		if got.Makespan != want.Makespan || got.MeanResponse() != want.MeanResponse() {
			t.Errorf("%s: reloaded run has makespan %d, mean response %.3f; saved run %d, %.3f",
				name, got.Makespan, got.MeanResponse(), want.Makespan, want.MeanResponse())
		}
	}
}

// TestLoadSpecsOldForm loads a file in the form -save wrote before job
// files held job texts: release first, spaced keys, one job per line.
func TestLoadSpecsOldForm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := "[\n {\"release\": 7, \"graph\": {\"k\":2,\"categories\":[1,2,2],\"edges\":[[0,1],[0,2]]}}," +
		"\n {\"release\": 0, \"graph\": {\"k\":2,\"categories\":[1]}}\n]\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := loadSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Release != 7 || specs[0].Graph.NumTasks() != 3 ||
		specs[1].Release != 0 || specs[1].Graph.NumTasks() != 1 {
		t.Fatalf("loaded %+v", specs)
	}
}

func TestLoadSpecsErrors(t *testing.T) {
	if _, err := loadSpecs("/nonexistent/path.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpecs(bad); err == nil {
		t.Error("malformed file accepted")
	}
	noGraph := filepath.Join(dir, "nograph.json")
	if err := os.WriteFile(noGraph, []byte(`[{"release": 3}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpecs(noGraph); err == nil {
		t.Error("graph-less job accepted")
	}
}

func TestLoadSpecsMalformedJSONMessage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	// Syntax error on line 2: the message must point at it and remind the
	// user of the expected format — this is what kradsim prints before
	// exiting non-zero.
	body := "[\n {\"release\": 0, \"graph\": {bad}}\n]"
	if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadSpecs(bad)
	if err == nil {
		t.Fatal("malformed file accepted")
	}
	msg := err.Error()
	for _, want := range []string{bad, "line 2", `"graph"`, "expected"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}

	// Type errors (valid JSON, wrong shape) get located too.
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`[{"release": "soon"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadSpecs(typo)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("type error not located: %v", err)
	}
}

func TestWriteRunJSONIncludesRatios(t *testing.T) {
	res, err := sim.Run(sim.Config{
		K: 2, Caps: []int{2, 2}, Scheduler: core.NewKRAD(2),
		Pick: dag.PickFIFO, ValidateAllotments: true,
	}, []sim.JobSpec{
		{Graph: dag.UniformChain(2, 4, 1)},
		{Graph: dag.UniformChain(2, 3, 2), Release: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeRunJSON(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	ratios, ok := obj["ratios"].(map[string]any)
	if !ok {
		t.Fatalf("no ratios object in %v", obj)
	}
	for _, key := range []string{
		"makespan_lb", "makespan_ratio", "makespan_bound",
		"response_lb", "response_ratio", "response_bound", "light_load",
	} {
		if _, ok := ratios[key]; !ok {
			t.Errorf("ratios missing %q", key)
		}
	}
	if mr := ratios["makespan_ratio"].(float64); mr < 1 {
		t.Errorf("makespan ratio %v < 1", mr)
	}
	if ms := obj["makespan"].(float64); int64(ms) != res.Makespan {
		t.Errorf("makespan %v, want %d", ms, res.Makespan)
	}
}

func TestSaveSpecsRejectsSourceJobs(t *testing.T) {
	dir := t.TempDir()
	err := saveSpecs(filepath.Join(dir, "x.json"), []sim.JobSpec{{Source: sim.GraphSource(dag.Figure1())}})
	if err == nil {
		t.Error("source-backed spec accepted")
	}
	// Multi-phase profile jobs have no job text either.
	profs, err := generateFamily("profile", 2, 3, "", "batched", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = saveSpecs(filepath.Join(dir, "p.json"), profs)
	if err == nil {
		t.Fatal("profile job set accepted")
	}
	// The refusal names the job's family and the -family sets that draw it.
	for _, want := range []string{`family "profile"`, "-family profile and mixed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
