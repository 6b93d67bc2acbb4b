package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/profile"
	"krad/internal/replicate"
	"krad/internal/sim"
	"krad/internal/workload"
)

func postRaw(t *testing.T, url, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	var out struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Error
}

// TestRigidSubmitHTTP drives the rigid wire form end to end: submit,
// drain, status with the profile family tag and the derived work vector.
func TestRigidSubmitHTTP(t *testing.T) {
	cfg := testConfig(2, 4, 4)
	_, ts := startHTTP(t, cfg)

	resp := postRaw(t, ts.URL, "/v1/jobs", []byte(`{"rigid":{"k":2,"name":"r","cat":1,"procs":2,"steps":3}}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("rigid submit status %d: %s", resp.StatusCode, decodeError(t, resp))
	}
	var created struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	var job statusJSON
	for job.State != "done" {
		r2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r2.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
	}
	if job.Family != "profile" || job.Work[0] != 6 || job.Work[1] != 0 || job.Span != 3 {
		t.Fatalf("rigid job status: %+v", job)
	}

	// Malformed rigid specs come back as located 400s.
	resp = postRaw(t, ts.URL, "/v1/jobs", []byte(`{"rigid":{"k":2,"cat":5,"procs":2,"steps":3}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-category rigid status %d", resp.StatusCode)
	}
	// Multiple payloads in one body are rejected, whatever the pair.
	resp = postRaw(t, ts.URL, "/v1/jobs", []byte(`{"rigid":{"k":2,"cat":1,"procs":1,"steps":1},"mold":{"k":2,"name":"m","cat":1,"curve":[4]}}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(decodeError(t, resp), "2 of graph/mold/rigid") {
		t.Fatalf("rigid+mold submit: status %d", resp.StatusCode)
	}
}

// TestSubmitBodyBounds pins the streaming-admission contract: a body
// whose declared Content-Length exceeds the bound is refused with 413
// before any of it is buffered, and a chunked body (no declared length)
// is cut off at the same bound mid-read.
func TestSubmitBodyBounds(t *testing.T) {
	cfg := testConfig(1, 2)
	_, ts := startHTTPClock(t, cfg, false)

	// Declared oversize: tiny actual body, huge Content-Length. The
	// server must trust the header and reject without reading.
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxSubmitBody + 1
	// The default transport would send the declared length and stall
	// waiting to write it; body bytes don't matter because the server
	// answers off the header. Expect either a clean 413 or a transport
	// error from the early close — but never a 2xx.
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("declared-oversize status %d, want 413", resp.StatusCode)
		}
		if !strings.Contains(decodeError(t, resp), "exceeds") {
			t.Fatal("413 without a located error")
		}
	}

	// Chunked oversize: stream past the bound with no Content-Length.
	pr, pw := io.Pipe()
	go func() {
		junk := bytes.Repeat([]byte("x"), 1<<20)
		for i := 0; i < 10; i++ { // 10 MiB > 8 MiB bound
			if _, err := pw.Write(junk); err != nil {
				break
			}
		}
		pw.Close()
	}()
	req2, err := http.NewRequest("POST", ts.URL+"/v1/jobs", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req2)
	if err == nil {
		defer resp2.Body.Close()
		if resp2.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("chunked-oversize status %d, want 413", resp2.StatusCode)
		}
	}
}

// TestPooledScratchIsolation attacks the json.Unmarshal merge hazard:
// decoded request structs are pooled, and json.Unmarshal merges into
// whatever the struct already holds. A payload-free body after a graph
// submission, and a short batch after a long one, must see zeroed
// scratch — stale pointers surviving the pool would turn these 400s into
// silent admissions of a previous client's job.
func TestPooledScratchIsolation(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.MaxInFlight = 1024
	_, ts := startHTTPClock(t, cfg, false)

	for round := 0; round < 3; round++ {
		g, _ := json.Marshal(workload.JobText{Graph: dag.Singleton(1, 1)})
		if resp := postRaw(t, ts.URL, "/v1/jobs", g); resp.StatusCode != http.StatusCreated {
			t.Fatalf("round %d: graph submit status %d", round, resp.StatusCode)
		}
		// Same pooled struct, no payload: must be "job has no graph",
		// not a resubmission of the graph above.
		resp := postRaw(t, ts.URL, "/v1/jobs", []byte(`{"release":7}`))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(decodeError(t, resp), "no graph") {
			t.Fatalf("round %d: stale graph leaked through the pool (status %d)", round, resp.StatusCode)
		}

		long := workload.BatchText{Jobs: make([]workload.JobText, 5)}
		for i := range long.Jobs {
			long.Jobs[i] = workload.JobText{Graph: dag.Singleton(1, 1)}
		}
		lb, _ := json.Marshal(long)
		if resp := postRaw(t, ts.URL, "/v1/jobs/batch", lb); resp.StatusCode != http.StatusCreated {
			t.Fatalf("round %d: long batch status %d", round, resp.StatusCode)
		}
		// A shorter batch reuses the same backing array; its tail slots
		// must not resurrect jobs from the longer batch.
		resp = postRaw(t, ts.URL, "/v1/jobs/batch", []byte(`{"jobs":[{"rigid":{"k":1,"cat":1,"procs":1,"steps":1}},{}]}`))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(decodeError(t, resp), "batch job 1") {
			t.Fatalf("round %d: stale batch slot leaked through the pool (status %d)", round, resp.StatusCode)
		}
	}
}

// allocRow is one service a submit allocation pin measures.
type allocRow struct {
	name string
	svc  *Service
}

// allocRows are the services the submit allocation pins measure, never
// started (no step-loop goroutine polluting the count): in memory,
// journaled, and journaled with a replication sender attached (never
// started either, so Committed only notes the seq). The last two must
// allocate alike — replication reads each record back from the WAL, so it
// costs the submit path nothing.
func allocRows(t *testing.T) []allocRow {
	t.Helper()
	var rows []allocRow
	for _, name := range []string{"memory", "journaled", "replicated"} {
		cfg := testConfig(2, 4, 4)
		cfg.MaxInFlight = 1 << 20
		if name != "memory" {
			cfg.Journal = &JournalConfig{Dir: t.TempDir(), Sync: journal.SyncNever}
		}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close(context.Background()) })
		if name == "replicated" {
			// No follower listens: after one refused dial the sender backs
			// off for the rest of the test.
			if _, err := svc.ReplicateTo(replicate.SenderConfig{Addr: "127.0.0.1:1", MinBackoff: time.Hour, MaxBackoff: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		rows = append(rows, allocRow{name, svc})
	}
	return rows
}

// leastAllocs is the least allocations of one call of f over several: one
// that finds a scratch pool empty (as sync.Pool arranges at random under
// the race detector) grows new scratch on top.
func leastAllocs(f func()) float64 {
	least := 1e9
	for i := 0; i < 20; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestSubmitAllocsPinned pins the pooled submit path's per-request
// allocation budget. The engine side is pinned at zero (recycled slots)
// by the sim tests; here the whole HTTP handler — body buffering, JSON
// decode, spec build, admission, response — must stay a small fixed
// constant per request, independent of how many jobs came before, and
// replication must add nothing to it (allocRows).
func TestSubmitAllocsPinned(t *testing.T) {
	body := []byte(`{"rigid":{"k":2,"cat":1,"procs":2,"steps":3}}`)
	var journaled float64
	for _, row := range allocRows(t) {
		h := row.svc.Handler()
		rec := httptest.NewRecorder()
		submit := func() {
			req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				t.Fatalf("%s: submit status %d: %s", row.name, rec.Code, rec.Body)
			}
		}
		// Warm the scratch pool and amortize jobs-table growth.
		for i := 0; i < 600; i++ {
			submit()
		}
		avg := testing.AllocsPerRun(400, submit)
		// 24 in practice (39 before the body and the response were written
		// by hand): request/recorder scaffolding, MaxBytesReader, the decoded
		// rigid job, admission. The bound is headroom over that constant, far
		// below anything that scales with accumulated jobs.
		if avg > 60 {
			t.Fatalf("%s: submit path allocates %.1f/op, want a small constant (≤60)", row.name, avg)
		}
		switch least := leastAllocs(submit); row.name {
		case "journaled":
			journaled = least
		case "replicated":
			if least != journaled {
				t.Fatalf("a replicated submit allocates %v, a journaled one %v", least, journaled)
			}
		}
	}
}

// bodyWriter is the least http.ResponseWriter, a header map and a
// status: an allocation count taken through it is the handler's own.
type bodyWriter struct {
	hdr  http.Header
	code int
}

func (w *bodyWriter) Header() http.Header { return w.hdr }
func (w *bodyWriter) WriteHeader(c int)   { w.code = c }
func (w *bodyWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// TestStatusAllocsPinned pins GET and DELETE /v1/jobs/{id} through
// Handler() at one allocation per request, with one request value reused
// the way a server reuses its connection's. The work vector and the body
// go into pooled scratch and the cancel allocates nothing, so the one
// left is ServeMux matching the {id} pattern. GET took 4 and DELETE 5
// when the body went through encoding/json and the work vector into a
// fresh slice.
func TestStatusAllocsPinned(t *testing.T) {
	cfg := testConfig(2, 4, 4)
	cfg.MaxInFlight = 1 << 20
	svc, err := New(cfg) // never started: no step-loop goroutine polluting the count
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	h := svc.Handler()
	var paths []string
	for i := 0; i < 1200; i++ {
		id, err := svc.Submit(sim.JobSpec{Source: profile.MustNewRigid(2, "r", 1, 2, 3)})
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, fmt.Sprintf("/v1/jobs/%d", id))
	}
	req := httptest.NewRequest("GET", "/", nil)
	w := &bodyWriter{hdr: make(http.Header)}
	next := 0
	serve := func(method string) func() {
		return func() {
			req.Method, req.URL.Path = method, paths[next]
			next++
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s %s: status %d", method, req.URL.Path, w.code)
			}
		}
	}
	for _, c := range []struct {
		method string
		pin    float64
	}{{"GET", 1}, {"DELETE", 1}} {
		// The least of several requests: under the race detector sync.Pool
		// drops a quarter of what it is given, and a request that finds it
		// empty grows fresh scratch.
		least := 1e9
		for i := 0; i < 20; i++ {
			least = min(least, testing.AllocsPerRun(1, serve(c.method)))
		}
		if least > c.pin {
			t.Errorf("%s allocates %.1f/op, want ≤ %v", c.method, least, c.pin)
		}
	}
}

// TestSubmitAllocsPinnedGraph does the same for a K-DAG body: the decoder
// builds a graph into a handful of flat arrays and the Instance into a few
// more, so the request's allocations are one budget whatever the graph's
// size — 200 tasks and 1,718 edges cost what 20 tasks and 98 edges do: 34
// each at PR 25, 48 and 49 at PR 24, 178 and 952 before it.
func TestSubmitAllocsPinnedGraph(t *testing.T) {
	cfg := testConfig(2, 4, 4)
	cfg.MaxInFlight = 1 << 20
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	h := svc.Handler()
	rec := httptest.NewRecorder()
	for _, g := range []*dag.Graph{
		dag.MapReduce(2, 10, 8, 1, 2, 1, 2),
		dag.MapReduce(2, 190, 8, 1, 2, 1, 2),
	} {
		body, _ := json.Marshal(workload.JobText{Graph: g})
		submit := func() {
			req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
			}
		}
		for i := 0; i < 100; i++ {
			submit()
		}
		avg := testing.AllocsPerRun(100, submit)
		t.Logf("%v: %.1f allocs/op", g, avg)
		if avg > 80 {
			t.Errorf("%v: submit allocates %.1f/op, want one small budget (≤80) at every size", g, avg)
		}
	}
}

// TestSubmitAllocsPinnedBatch does the same for the batch path: per-job
// marginal cost must stay constant (pooled specs slice, pooled request
// slots), so a 64-job batch stays within 64× the single-job constant, and
// replication must add nothing to it.
func TestSubmitAllocsPinnedBatch(t *testing.T) {
	var batch workload.BatchText
	for i := 0; i < 64; i++ {
		batch.Jobs = append(batch.Jobs, workload.JobText{Rigid: profile.RigidSpec{K: 2, Cat: 2, Procs: 1, Steps: 2}})
	}
	body, _ := json.Marshal(batch)
	var journaled float64
	for _, row := range allocRows(t) {
		h := row.svc.Handler()
		rec := httptest.NewRecorder()
		submit := func() {
			req := httptest.NewRequest("POST", "/v1/jobs/batch", bytes.NewReader(body))
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				t.Fatalf("%s: batch status %d: %s", row.name, rec.Code, rec.Body)
			}
		}
		for i := 0; i < 300; i++ {
			submit()
		}
		// About 274 (338 under -race): four per job, all of them the
		// engine's — the rigid job, its work vector, its runtime — and a
		// fixed handler constant.
		least := leastAllocs(submit)
		if least > 350 {
			t.Fatalf("%s: batch path allocates %.1f/op for 64 jobs, want ≤350", row.name, least)
		}
		switch row.name {
		case "journaled":
			journaled = least
		case "replicated":
			if least != journaled {
				t.Fatalf("a replicated batch allocates %v, a journaled one %v", least, journaled)
			}
		}
	}
}
