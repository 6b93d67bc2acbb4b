package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
	"krad/internal/wire"
	"krad/internal/workload"
)

// The submit bodies are workload.JobText and workload.BatchText, and
// json.Unmarshal and json.Marshal over those structs are the oracle here:
// the hand-written reader must give the same verdict, the same decoded
// values — and so the same specs — and the same bytes when the values,
// and the whole texts, are encoded again. The one licensed disagreement is a moldable edge that is
// not exactly two integers, which [][2]int padded, truncated or took as
// whatever the slot held.

func moldEdgeShape(err error) bool {
	return err != nil && strings.Contains(err.Error(), "moldable: decode: edge ")
}

// agree fails on a verdict the oracle does not share and reports whether
// both decoded.
func agree(t *testing.T, err, oerr error) bool {
	t.Helper()
	switch {
	case err != nil && oerr != nil, moldEdgeShape(err):
		return false
	case err != nil:
		t.Fatalf("rejected what the oracle accepts: %v", err)
	case oerr != nil:
		t.Fatalf("accepted what the oracle rejects: %v", oerr)
	}
	return true
}

// sameSubmit fails unless got and want hold the same job, graphs compared
// by k, name, categories and adjacency order, and unless each value and
// the whole text re-encode to encoding/json's bytes for them.
func sameSubmit(t *testing.T, got, want workload.JobText) {
	t.Helper()
	if (got.Graph == nil) != (want.Graph == nil) {
		t.Fatalf("graph %v, want %v", got.Graph, want.Graph)
	}
	if g, w := got.Graph, want.Graph; g != nil {
		if g.K() != w.K() || g.Name() != w.Name() || g.NumTasks() != w.NumTasks() {
			t.Fatalf("graph %v, want %v", g, w)
		}
		for i := 0; i < w.NumTasks(); i++ {
			v := dag.TaskID(i)
			if g.Category(v) != w.Category(v) || !slices.Equal(g.Successors(v), w.Successors(v)) ||
				!slices.Equal(g.Predecessors(v), w.Predecessors(v)) {
				t.Fatalf("graph task %d differs", v)
			}
		}
		reencoded(t, g.AppendJSON(nil), nil, w)
	}
	if !reflect.DeepEqual(got.Mold, want.Mold) || got.Rigid != want.Rigid || got.Release != want.Release {
		t.Fatalf("job\n %+v %+v %d\nwant\n %+v %+v %d", got.Mold, got.Rigid, got.Release, want.Mold, want.Rigid, want.Release)
	}
	if got.Mold != nil {
		out, err := got.Mold.AppendJSON(nil)
		reencoded(t, out, err, want.Mold)
	}
	reencoded(t, got.Rigid.AppendJSON(nil), nil, want.Rigid)
	out, err := got.AppendJSON(nil)
	reencoded(t, out, err, want)
	_, serr := got.Spec()
	_, oerr := want.Spec()
	if (serr == nil) != (oerr == nil) || serr != nil && serr.Error() != oerr.Error() {
		t.Fatalf("spec: %v, oracle %v", serr, oerr)
	}
}

func reencoded(t *testing.T, got []byte, err error, v any) {
	t.Helper()
	want, oerr := json.Marshal(v)
	if (err == nil) != (oerr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("re-encoded\n %s (%v)\nwant\n %s (%v)", got, err, want, oerr)
	}
}

func checkBody(t *testing.T, data []byte) {
	var got, want workload.JobText
	if agree(t, wire.Decode(data, got.ReadJSON), json.Unmarshal(data, &want)) {
		sameSubmit(t, got, want)
	}
	var gotB, wantB workload.BatchText
	if agree(t, wire.Decode(data, gotB.ReadJSON), json.Unmarshal(data, &wantB)) {
		if len(gotB.Jobs) != len(wantB.Jobs) || (gotB.Jobs == nil) != (wantB.Jobs == nil) {
			t.Fatalf("batch of %d jobs, want %d", len(gotB.Jobs), len(wantB.Jobs))
		}
		for i := range gotB.Jobs {
			sameSubmit(t, gotB.Jobs[i], wantB.Jobs[i])
		}
		out, err := gotB.AppendJSON(nil)
		reencoded(t, out, err, wantB)
	}
}

// submitSeeds are the raw bodies of the HTTP tests, the corners of
// encoding/json's struct decoding, encoding/json's float forms and the
// licensed disagreement.
var submitSeeds = []string{
	`{"rigid":{"k":2,"name":"r","cat":1,"procs":2,"steps":3}}`,
	`{"rigid":{"k":2,"cat":5,"procs":2,"steps":3}}`,
	`{"rigid":{"k":2,"cat":1,"procs":1,"steps":1},"mold":{"k":2,"name":"m","cat":1,"curve":[4]}}`,
	`{"release":7}`,
	`{"release": 3}`,
	`{"jobs":[{"rigid":{"k":1,"cat":1,"procs":1,"steps":1}},{}]}`,
	`{"graph":{"k":2,"categories":[1,1,2],"edges":[[0,1],[1,2]]}}`,
	`{"jobs":[{"graph":{"k":2,"categories":[1]}},{"graph":{"k":2,"categories":[2]}}]}`,
	`{"graph":{"k":1,"categories":[1,1],"edges":[[1]]}}`,
	`{"mold":{"k":1,"tasks":[{"cat":1,"work":2,"max":2,"curve":{"type":"powerlaw","alpha":1e-7}},` +
		`{"cat":1,"work":2,"max":2,"curve":{"type":"powerlaw","alpha":0.8}},{"cat":1,"work":2,"max":2,"curve":{"type":"powerlaw","alpha":1}},` +
		`{"cat":1,"work":2,"max":2,"curve":{"type":"amdahl","serial":0}}],"edges":[[0,1],[2,3]]}}`,
	// Key order, case folding, white space, unknown keys, null.
	" {\t\"Release\" : 4 ,\n\"RIGID\" : {\"Procs\":1,\"k\":1,\"CAT\":1,\"steps\":2,\"x\":[{}]} } ",
	"{\"gr\x5cu0061ph\":{\"k\":1,\"categories\":[1]},\"release\":null,\"mold\":null,\"rigid\":null}",
	`{"graph":null,"graph":{"k":1,"categories":[1]}}`,
	`{"jobs":null}`,
	`{"jobs":[]}`,
	`{"jobs":[null,{"release":1}],"jobs":[{"graph":{"k":1,"categories":[1]}}]}`,
	// A repeated key decodes into what the first occurrence left.
	`{"mold":{"k":1,"name":"a","tasks":[{"cat":1,"work":2,"max":1,"curve":{"type":"powerlaw","alpha":1}}]},"mold":{"name":"b","tasks":[{"work":7,"curve":{"alpha":0.5}}]}}`,
	`{"rigid":{"k":2,"cat":1,"procs":1,"steps":1},"rigid":{"procs":4}}`,
	`{"mold":{"k":1,"tasks":[{"cat":1,"work":2,"max":1,"curve":{"type":"powerlaw","alpha":1}},{"cat":1,"work":2,"max":1,"curve":{"type":"powerlaw","alpha":1}}],` +
		`"tasks":[null,{"work":9}],"edges":[[0,1]],"edges":[]}}`,
	"{\"mold\":{\"k\":1,\"name\":\"\x5cud83d\x5cude00<&>\xff\",\"tasks\":[{\"cat\":1,\"work\":1,\"max\":1,\"curve\":{\"type\":\"amdahl\",\"serial\":1}}]}}",
	// Rejected by both.
	`{"release":1.5}`,
	`{"rigid":[1]}`,
	`{"mold":{"k":1,"tasks":[{"curve":{"alpha":"1"}}]}}`,
	`{"mold":{"k":1,"tasks":[{"curve":{"alpha":1e999}}]}}`,
	`{"jobs":{}}`,
	`{"graph":{"k":1,"categories":[1]}} {}`,
	`[]`,
	`null`,
	``,
	// The licensed disagreement.
	`{"mold":{"k":1,"tasks":[` + twoTasks + `],"edges":[[1]]}}`,
	`{"mold":{"k":1,"tasks":[` + twoTasks + `],"edges":[[0,1,7]]}}`,
	`{"mold":{"k":1,"tasks":[` + twoTasks + `],"edges":[[null,1]]}}`,
}

// FuzzSubmitBody reads every input as a single-job and as a batch body
// with both decoders.
func FuzzSubmitBody(f *testing.F) {
	for _, s := range submitSeeds {
		f.Add([]byte(s))
	}
	mold, _ := json.Marshal(moldBody("seed"))
	f.Add(mold)
	batch, _ := json.Marshal(workload.BatchText{Jobs: []workload.JobText{
		moldBody("b"), {Graph: dag.Figure1(), Release: 3}, {Rigid: profile.RigidSpec{K: 2, Cat: 2, Procs: 1, Steps: 2}},
	}})
	f.Add(batch)
	f.Fuzz(checkBody)
}

// TestSubmitSeedsAgree runs the fuzz seeds as a plain test and pins that
// the licensed disagreement is exactly the malformed moldable edges.
func TestSubmitSeedsAgree(t *testing.T) {
	for _, s := range submitSeeds {
		checkBody(t, []byte(s))
		var got, want workload.JobText
		if err := wire.Decode([]byte(s), got.ReadJSON); moldEdgeShape(err) {
			if oerr := json.Unmarshal([]byte(s), &want); oerr != nil {
				t.Errorf("%.60s: the oracle rejects a malformed edge too: %v", s, oerr)
			}
		}
	}
}

// TestSubmitResponseMatchesWriteJSON pins the hand-written 201 bodies
// against what writeJSON wrote for the maps they replaced — key order, the
// trailing newline, shard-1 IDs past 2^32 — for single submissions with
// and without a release and for batches of 1 and 64 jobs.
func TestSubmitResponseMatchesWriteJSON(t *testing.T) {
	cfg := poolConfig(2, PlaceHash, 1, 2)
	cfg.MaxInFlight = 1 << 20
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc)
	h := svc.Handler()
	old := func(v map[string]any) string {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusCreated, v)
		return rec.Body.String()
	}
	const job = `{"graph":{"k":1,"categories":[1,1],"edges":[[0,1]]}}`
	shards := map[int]bool{}
	for _, key := range []string{"a", "b", "c", "d", "e", "f"} {
		post := func(path, body string) *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", path, strings.NewReader(body))
			req.Header.Set(PlacementKeyHeader, key)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d, content type %q: %s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
			}
			return rec
		}
		for _, body := range []string{job, `{"release":12,"rigid":{"k":1,"cat":1,"procs":1,"steps":1}}`} {
			rec := post("/v1/jobs", body)
			var got struct {
				ID      int
				Release int64
				Shard   int
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			shards[got.Shard] = true
			if want := old(map[string]any{"id": got.ID, "release": got.Release, "shard": got.Shard}); rec.Body.String() != want {
				t.Errorf("submit answered %q, writeJSON wrote %q", rec.Body, want)
			}
		}
		for _, n := range []int{1, 64} {
			rec := post("/v1/jobs/batch", `{"jobs":[`+strings.Repeat(job+",", n-1)+job+`]}`)
			var got struct {
				IDs   []int
				Shard int
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if len(got.IDs) != n {
				t.Fatalf("batch of %d answered %d IDs", n, len(got.IDs))
			}
			if want := old(map[string]any{"ids": got.IDs, "shard": got.Shard}); rec.Body.String() != want {
				t.Errorf("batch answered %q, writeJSON wrote %q", rec.Body, want)
			}
		}
	}
	if !shards[1] {
		t.Fatal("no submission landed on shard 1; the test never saw a namespaced ID")
	}
}

// statusJSON is the status body GET and DELETE /v1/jobs/{id} used to encode
// through writeJSON, kept as appendJobStatus's oracle and as the tests'
// decode target.
type statusJSON struct {
	ID          int    `json:"id"`
	State       string `json:"state"`
	Family      string `json:"family,omitempty"`
	Release     int64  `json:"release"`
	Completion  int64  `json:"completion,omitempty"`
	Response    int64  `json:"response,omitempty"`
	CancelledAt int64  `json:"cancelled_at,omitempty"`
	Work        []int  `json:"work"`
	Span        int    `json:"span"`
}

func toJobJSON(st sim.JobStatus) statusJSON {
	j := statusJSON{
		ID:          st.ID,
		State:       st.Phase.String(),
		Release:     st.Release,
		Completion:  st.Completion,
		Response:    st.Response(),
		CancelledAt: st.CancelledAt,
		Work:        st.Work,
		Span:        st.Span,
	}
	if st.Family != sim.FamilyUnknown {
		j.Family = st.Family.String()
	}
	return j
}

// statusOracle is what writeJSON wrote for st.
func statusOracle(st sim.JobStatus) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, toJobJSON(st))
	return rec.Body.String()
}

func checkStatus(t *testing.T, st sim.JobStatus) {
	t.Helper()
	if got, want := string(appendJobStatus(nil, st)), statusOracle(st); got != want {
		t.Fatalf("%+v: appended\n %q\nwriteJSON wrote\n %q", st, got, want)
	}
}

// TestJobStatusMatchesWriteJSON pins the hand-written status body against
// writeJSON of the struct it replaced: every phase and family (and one
// value past each), zero and non-zero completion, response (negative
// too) and cancelled_at, nil, empty and filled work, namespaced IDs. Then
// GET and DELETE through Handler() must answer the oracle's bytes for the
// status Service.Job reports.
func TestJobStatusMatchesWriteJSON(t *testing.T) {
	phases := []sim.JobPhase{sim.JobPending, sim.JobActive, sim.JobDone, sim.JobCancelled, sim.JobStolen, 9}
	families := []sim.RuntimeFamily{sim.FamilyUnknown, sim.FamilyProfile, sim.FamilyDAG, sim.FamilyMoldable, 7}
	works := [][]int{nil, {}, {3, 0, 12}, {-1, 1 << 40}}
	for _, ph := range phases {
		for _, fam := range families {
			for _, work := range works {
				for _, times := range [][3]int64{{0, 0, 0}, {3, 0, 0}, {3, 17, 0}, {20, 17, 0}, {3, 0, 5}, {1 << 40, 1<<40 + 2, 1 << 41}} {
					for _, id := range []int{0, 7, 1<<32 | 5} {
						checkStatus(t, sim.JobStatus{
							ID: id, Phase: ph, Family: fam, Work: work, Span: len(work) * 3,
							Release: times[0], Completion: times[1], CancelledAt: times[2],
						})
					}
				}
			}
		}
	}

	cfg := poolConfig(2, PlaceHash, 2, 4, 4)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc)
	mold, err := moldable.FromSpec(*moldBody("m").Mold)
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	serve := func(method string, id int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, fmt.Sprintf("/v1/jobs/%d", id), nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %d: status %d, content type %q: %s", method, id, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		return rec
	}
	var ids []int
	for _, key := range []string{"a", "b", "c", "d"} {
		for _, spec := range []sim.JobSpec{
			{Graph: dag.UniformChain(2, 3, 1)},
			{Source: profile.MustNewRigid(2, "r", 2, 2, 3), Release: 1 << 20},
			{Source: mold},
		} {
			id, err := svc.SubmitKeyed(key, spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	if _, err := svc.StepAll(2); err != nil {
		t.Fatal(err)
	}
	seen := map[sim.JobPhase]bool{}
	for i, id := range ids {
		if i%3 == 0 {
			if _, err := svc.StepAll(4); err != nil {
				t.Fatal(err)
			}
		}
		st, _ := svc.Job(id)
		seen[st.Phase] = true
		if rec := serve("GET", id); rec.Body.String() != statusOracle(st) {
			t.Errorf("GET %d answered %q, writeJSON wrote %q", id, rec.Body, statusOracle(st))
		}
		if st.Phase == sim.JobDone {
			continue
		}
		rec := serve("DELETE", id)
		st, _ = svc.Job(id)
		if st.Phase != sim.JobCancelled || rec.Body.String() != statusOracle(st) {
			t.Errorf("DELETE %d answered %q, writeJSON writes %q for the cancelled job", id, rec.Body, statusOracle(st))
		}
	}
	if !seen[sim.JobPending] || !seen[sim.JobActive] || !seen[sim.JobDone] {
		t.Errorf("GETs saw phases %v, want pending, active and done", seen)
	}
}

// FuzzJobStatusBody compares appendJobStatus with writeJSON over every
// field of a status; work is a run of varints, or nil.
func FuzzJobStatusBody(f *testing.F) {
	f.Add(int64(0), 0, 0, int64(0), int64(0), int64(0), 0, []byte(nil), true)
	f.Add(int64(1<<32|5), 2, 2, int64(3), int64(17), int64(0), 9, []byte{6, 0, 24}, false)
	f.Add(int64(-1), 3, 4, int64(-3), int64(0), int64(1<<41), -2, []byte{}, false)
	f.Fuzz(func(t *testing.T, id int64, phase, family int, release, completion, cancelledAt int64, span int, work []byte, nilWork bool) {
		st := sim.JobStatus{
			ID: int(id), Phase: sim.JobPhase(phase), Family: sim.RuntimeFamily(family),
			Release: release, Completion: completion, CancelledAt: cancelledAt, Span: span,
		}
		if !nilWork {
			st.Work = []int{}
			for len(work) > 0 {
				v, n := binary.Varint(work)
				if n <= 0 {
					break
				}
				st.Work = append(st.Work, int(v))
				work = work[n:]
			}
		}
		checkStatus(t, st)
	})
}
