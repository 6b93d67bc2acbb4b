package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/sim"
	"krad/internal/workload"
)

// moldBody builds a valid two-category moldable submission body.
func moldBody(name string) workload.JobText {
	return workload.JobText{Mold: &moldable.Spec{
		K:    2,
		Name: name,
		Tasks: []moldable.TaskSpec{
			{Cat: 1, Work: 6, Max: 4, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 0.5}},
			{Cat: 2, Work: 8, Max: 2, Curve: moldable.CurveSpec{Type: moldable.CurveAmdahl, Serial: 0.25}},
			{Cat: 1, Work: 3, Max: 1, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 1}},
		},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}}
}

// postBody POSTs an arbitrary JSON-encodable body and returns status +
// decoded error message (if any).
func postBody(t *testing.T, url, path string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("non-JSON response %q", data)
	}
	return resp.StatusCode, out
}

// TestHTTPSubmitMoldable is the moldable end-to-end acceptance path:
// submit a moldable spec over HTTP, watch it run to completion on a live
// step loop, and read its family tag back from the status endpoint.
func TestHTTPSubmitMoldable(t *testing.T) {
	_, ts := startHTTP(t, testConfig(2, 3, 3))

	code, out := postBody(t, ts.URL, "/v1/jobs", moldBody("api-mold"))
	if code != http.StatusCreated {
		t.Fatalf("submit status %d: %v", code, out)
	}
	id := int(out["id"].(float64))
	waitFor(t, "moldable job completion", func() bool {
		return getJob(t, ts.URL, id).State == "done"
	})
	st := getJob(t, ts.URL, id)
	if st.Family != "moldable" {
		t.Fatalf("job family = %q, want moldable", st.Family)
	}
	// Chain spans in optimistic durations: ceil(6/s(4)) + ceil(8/s(2)) +
	// 3 = 3 + 5 + 3.
	if st.Span != 11 {
		t.Fatalf("span %d, want 11", st.Span)
	}
	if st.Completion < int64(st.Span) {
		t.Fatalf("completion %d is below the span %d", st.Completion, st.Span)
	}
}

// twoTasks is two valid moldable tasks, for bodies written out by hand.
const twoTasks = `{"cat":1,"work":1,"max":1,"curve":{"type":"powerlaw","alpha":1}},{"cat":1,"work":1,"max":1,"curve":{"type":"powerlaw","alpha":1}}`

// TestHTTPSubmitMoldableValidation pins the located 400s: malformed
// curves and ill-formed bodies must name the offending task and never
// reach the engine.
func TestHTTPSubmitMoldableValidation(t *testing.T) {
	_, ts := startHTTP(t, testConfig(2, 3, 3))
	badCurve := moldBody("bad")
	badCurve.Mold.Tasks[1].Curve = moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 1.7}
	both := moldBody("both")
	both.Graph = dag.UniformChain(2, 2, 1)
	wrongK := moldBody("wrong-k")
	wrongK.Mold.K = 3

	cases := []struct {
		name string
		body any
		want string
	}{
		{"bad-curve", badCurve, "task 1: curve: powerlaw alpha 1.7"},
		{"graph-and-mold", both, "exactly one"},
		{"neither", workload.JobText{}, "no graph"},
		{"cyclic", workload.JobText{Mold: &moldable.Spec{K: 1, Tasks: []moldable.TaskSpec{
			{Cat: 1, Work: 1, Max: 1, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 1}},
			{Cat: 1, Work: 1, Max: 1, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 1}},
		}, Edges: [][2]int{{0, 1}, {1, 0}}}}, "cycle"},
		// An edge is exactly two task indices: [][2]int admitted these as
		// 1→0 and 0→1, a different job from the one submitted.
		{"edge-short", json.RawMessage(`{"mold":{"k":1,"tasks":[` + twoTasks + `],"edges":[[1]]}}`), "edge 0 has 1 elements, want 2"},
		{"edge-long", json.RawMessage(`{"mold":{"k":1,"tasks":[` + twoTasks + `],"edges":[[0,1],[0,1,7]]}}`), "edge 1 has 3 elements, want 2"},
		{"edge-null", json.RawMessage(`{"mold":{"k":1,"tasks":[` + twoTasks + `],"edges":[null]}}`), "edge 0 is null"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postBody(t, ts.URL, "/v1/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%v)", code, out)
			}
			msg, _ := out["error"].(string)
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not contain %q", msg, tc.want)
			}
		})
	}
	// K mismatch is caught at admission (engine-level), still a 400.
	code, out := postBody(t, ts.URL, "/v1/jobs", wrongK)
	if code != http.StatusBadRequest {
		t.Fatalf("k-mismatch status %d, want 400 (%v)", code, out)
	}
}

// TestHTTPBatchMixedFamilies submits one batch holding a graph job and a
// moldable job; both must admit atomically and run to completion through
// the same engine.
func TestHTTPBatchMixedFamilies(t *testing.T) {
	_, ts := startHTTP(t, testConfig(2, 3, 3))
	batch := workload.BatchText{Jobs: []workload.JobText{
		{Graph: dag.UniformChain(2, 4, 1)},
		moldBody("batched-mold"),
	}}
	code, out := postBody(t, ts.URL, "/v1/jobs/batch", batch)
	if code != http.StatusCreated {
		t.Fatalf("batch status %d: %v", code, out)
	}
	rawIDs := out["ids"].([]any)
	ids := make([]int, len(rawIDs))
	for i, v := range rawIDs {
		ids[i] = int(v.(float64))
	}
	if len(ids) != 2 {
		t.Fatalf("batch admitted %d jobs, want 2", len(ids))
	}
	waitFor(t, "mixed batch completion", func() bool {
		for _, id := range ids {
			if getJob(t, ts.URL, id).State != "done" {
				return false
			}
		}
		return true
	})
	if fam := getJob(t, ts.URL, ids[0]).Family; fam != "dag" {
		t.Fatalf("graph job family %q, want dag", fam)
	}
	if fam := getJob(t, ts.URL, ids[1]).Family; fam != "moldable" {
		t.Fatalf("moldable job family %q, want moldable", fam)
	}
	// A bad job anywhere in the batch rejects the whole batch with a
	// located error.
	bad := workload.BatchText{Jobs: []workload.JobText{
		{Graph: dag.UniformChain(2, 2, 1)},
		{Mold: &moldable.Spec{K: 2}},
	}}
	code, out = postBody(t, ts.URL, "/v1/jobs/batch", bad)
	if code != http.StatusBadRequest {
		t.Fatalf("bad batch status %d, want 400", code)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "batch job 1") {
		t.Fatalf("batch error %q does not locate job 1", msg)
	}
}

// TestRestartReplaysMoldable is the journaled-daemon version of the
// moldable path: admissions (moldable and graph), steps and a restart,
// after which every job's state must be reconstructed bit-identically
// from the versioned admit records.
func TestRestartReplaysMoldable(t *testing.T) {
	cfg := testConfig(2, 3, 3)
	cfg.Journal = &JournalConfig{Dir: t.TempDir()}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mold := moldBody("journal-mold").Mold
	src, err := moldable.FromSpec(*mold)
	if err != nil {
		t.Fatal(err)
	}
	id0, err := svc.Submit(sim.JobSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	stepShard(t, svc, 0)
	stepShard(t, svc, 0)
	id1, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(2, 5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stepShard(t, svc, 0)
	}
	before := svc.Stats()
	beforeJobs := map[int]sim.JobStatus{}
	for _, id := range []int{id0, id1} {
		st, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		beforeJobs[id] = st
	}
	drainAndClose(t, svc)

	restarted := testConfig(2, 3, 3)
	restarted.Journal = &JournalConfig{Dir: cfg.Journal.Dir}
	svc2, err := New(restarted)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	after := svc2.Stats()
	if after.Now != before.Now || after.Submitted != before.Submitted ||
		after.Completed != before.Completed || after.Active != before.Active {
		t.Fatalf("restarted stats %+v, want %+v", after, before)
	}
	for id, want := range beforeJobs {
		got, ok := svc2.Job(id)
		if !ok {
			t.Fatalf("job %d lost across restart", id)
		}
		if got.Phase != want.Phase || got.Completion != want.Completion || got.Family != want.Family {
			t.Fatalf("job %d: restarted %+v, want %+v", id, got, want)
		}
	}
}
