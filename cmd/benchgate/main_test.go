package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

const contractPath = "../../BENCHMARK.json"

// sideSpec describes the five runs one side makes of every workload. Every
// metric reads 100 unless value says otherwise; a NaN omits the metric.
type sideSpec struct {
	value  func(metric string, run int) float64
	wrong  int    // this many runs report correct:false
	failed int    // failed operations per run, of 1000 attempted
	skip   string // a workload this side has no runs of
}

// resultLine renders one run the way the benchmark prints its last line.
func resultLine(correct bool, failed int, metrics map[string]float64) string {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf(`%q:{"value":%g,"unit":"x"}`, n, metrics[n])
	}
	return fmt.Sprintf(`{"correct":%v,"attempted":1000,"failed":%d,"metrics":{%s}}`, correct, failed, strings.Join(parts, ","))
}

func (sp sideSpec) runs(t *testing.T, c contract) map[string][]result {
	t.Helper()
	out := map[string][]result{}
	for _, w := range c.Workloads {
		if w.Name == sp.skip {
			continue
		}
		for run := 0; run < pairs; run++ {
			metrics := map[string]float64{}
			for _, m := range c.EndToEnd {
				v := 100.0
				if sp.value != nil {
					v = sp.value(m.Name, run)
				}
				if !math.IsNaN(v) {
					metrics[m.Name] = v
				}
			}
			var r result
			if err := json.Unmarshal([]byte(resultLine(run >= sp.wrong, sp.failed, metrics)), &r); err != nil {
				t.Fatal(err)
			}
			out[w.Name] = append(out[w.Name], r)
		}
	}
	return out
}

// only returns a value function that scales one metric and leaves the rest.
func only(metric string, vals ...float64) func(string, int) float64 {
	return func(m string, run int) float64 {
		if m != metric {
			return 100
		}
		return vals[run%len(vals)]
	}
}

func TestJudge(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	noisy := only("cpu_us_per_job", 80, 90, 100, 130, 140) // IQR 40% against a 15% bound
	for _, tc := range []struct {
		name         string
		parent, head sideSpec
		want         map[string]string // metric → verdict on every workload; every other row passes
		wantErr      string
	}{
		{name: "A/A identical sets"},
		{name: "allocs +4% over a 3% bound", head: sideSpec{value: only("allocs_per_job", 104)},
			want: map[string]string{"allocs_per_job": "FAIL"}},
		{name: "allocs +2% inside the bound", head: sideSpec{value: only("allocs_per_job", 102)}},
		{name: "journal bytes +1% over a 0.5% bound", head: sideSpec{value: only("journal_bytes_per_job", 101)},
			want: map[string]string{"journal_bytes_per_job": "FAIL"}},
		{name: "makespan +2% over a 1% bound", head: sideSpec{value: only("makespan_steps", 102)},
			want: map[string]string{"makespan_steps": "FAIL"}},
		{name: "jobs_per_s -30%: higher is better", head: sideSpec{value: only("jobs_per_s", 70)},
			want: map[string]string{"jobs_per_s": "FAIL"}},
		{name: "jobs_per_s +30% is a gain, not a regression", head: sideSpec{value: only("jobs_per_s", 130)}},
		{name: "cpu_us_per_job -30% is a gain", head: sideSpec{value: only("cpu_us_per_job", 70)}},
		{name: "median decides, not one slow run", head: sideSpec{value: only("cpu_us_per_job", 100, 100, 100, 100, 300)}},
		{name: "parent spread wider than the bound", parent: sideSpec{value: noisy}, head: sideSpec{value: noisy},
			want: map[string]string{"cpu_us_per_job": "unresolved"}},
		{name: "wide parent spread hides even a large gap", parent: sideSpec{value: noisy}, head: sideSpec{value: only("cpu_us_per_job", 200)},
			want: map[string]string{"cpu_us_per_job": "unresolved"}},
		{name: "wide parent spread, every head run ahead", parent: sideSpec{value: noisy}, head: sideSpec{value: only("cpu_us_per_job", 70)}},
		{name: "correct:false at the head", head: sideSpec{wrong: 1},
			want: map[string]string{"(runs not correct)": "FAIL"}},
		{name: "correct:false at the parent", parent: sideSpec{wrong: 1},
			want: map[string]string{"(runs not correct)": "FAIL"}},
		{name: "failed share grew", parent: sideSpec{failed: 1}, head: sideSpec{failed: 2},
			want: map[string]string{"(failed/attempted)": "FAIL"}},
		{name: "failed share equal", parent: sideSpec{failed: 2}, head: sideSpec{failed: 2}},
		{name: "metric missing at the head", head: sideSpec{value: only("steps_per_s", math.NaN())},
			wantErr: `head run 1 reports no metric "steps_per_s"`},
		{name: "metric missing at the parent", parent: sideSpec{value: only("setup_s", math.NaN())},
			wantErr: `parent run 1 reports no metric "setup_s"`},
		{name: "workload missing at the head", head: sideSpec{skip: "kdag_mix"},
			wantErr: `workload "kdag_mix": no head runs`},
		{name: "workload missing at the parent", parent: sideSpec{skip: "admit_stream"},
			wantErr: `workload "admit_stream": no parent runs`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verdicts, err := judge(c, [2]map[string][]result{tc.parent.runs(t, c), tc.head.runs(t, c)})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := len(c.Workloads) * (len(c.EndToEnd) + 2); len(verdicts) != want {
				t.Fatalf("%d verdicts, want %d: one per (workload, metric) plus the two run checks", len(verdicts), want)
			}
			for _, v := range verdicts {
				want := "pass"
				if w, ok := tc.want[v.metric]; ok {
					want = w
				}
				if v.verdict != want {
					t.Errorf("%s %s: %s, want %s (%+v)", v.workload, v.metric, v.verdict, want, v)
				}
			}
		})
	}
}

// TestNamesComeFromContract pins that BENCHMARK.json is the only place the
// gate learns a workload or metric name from: what it loads is exactly the
// file's lists, and its source spells none of them.
func TestNamesComeFromContract(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := func(key string) []string {
		var out []string
		for _, e := range file[key].([]any) {
			out = append(out, e.(map[string]any)["name"].(string))
		}
		return out
	}
	var workloads, metrics []string
	for _, w := range c.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range c.EndToEnd {
		metrics = append(metrics, m.Name)
	}
	if got, want := fmt.Sprint(workloads), fmt.Sprint(names("workloads")); got != want || len(workloads) == 0 {
		t.Errorf("workloads %s, file has %s", got, want)
	}
	if got, want := fmt.Sprint(metrics), fmt.Sprint(names("end_to_end")); got != want || len(metrics) == 0 {
		t.Errorf("metrics %s, file has %s", got, want)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append(workloads, metrics...) {
		if strings.Contains(string(src), n) {
			t.Errorf("main.go spells %q: a second copy of a name BENCHMARK.json owns", n)
		}
	}
}

func TestLoadContractRejects(t *testing.T) {
	for name, body := range map[string]string{
		"no workloads":  `{"command":["sh"],"run_seconds":25,"end_to_end":[{"name":"m","better":"lower","bound":0.1}]}`,
		"bad direction": `{"command":["sh"],"run_seconds":25,"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"sideways","bound":0.1}]}`,
		"no bound":      `{"command":["sh"],"run_seconds":25,"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"lower"}]}`,
	} {
		path := t.TempDir() + "/BENCHMARK.json"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadContract(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunOnce drives a stand-in command: the workload and the contract's
// run length arrive as arguments, the last line is the result, exit 1 with
// a result is a run that judged itself incorrect, anything else is an error.
func TestRunOnce(t *testing.T) {
	script := `echo "$@"; echo '{"correct":false,"attempted":3,"failed":1,"metrics":{"m":{"value":7,"unit":"x"}}}'; exit 1`
	c := contract{Command: []string{"sh", "-c", script, "bench"}, RunSeconds: 2.5}
	r, err := runOnce(c, t.TempDir(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 3 || r.Failed != 1 || r.Metrics["m"].Value != 7 {
		t.Errorf("decoded %+v", r)
	}
	c.Command[2] = `test "$*" = "--workload w --seed 1 --seconds 2.5 --trace 0" || exit 3; echo '{"correct":true,"metrics":{}}'`
	if _, err := runOnce(c, t.TempDir(), "w"); err != nil {
		t.Errorf("arguments: %v", err)
	}
	c.Command[2] = `echo '{"correct":true,"metrics":{}}'; exit 2`
	if _, err := runOnce(c, t.TempDir(), "w"); err == nil {
		t.Error("exit status 2 accepted as a run")
	}
	c.Command[2] = `echo not a result`
	if _, err := runOnce(c, t.TempDir(), "w"); err == nil {
		t.Error("a last line that is not JSON accepted as a result")
	}
}
