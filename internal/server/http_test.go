package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"krad/internal/dag"
	"krad/internal/replicate"
	"krad/internal/workload"
)

// startHTTP spins up a free-running service behind an httptest server.
func startHTTP(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	return startHTTPClock(t, cfg, true)
}

// startHTTPClock optionally leaves the step loop stopped, freezing the
// virtual clock so pending-job states are stable for assertions.
func startHTTPClock(t *testing.T, cfg Config, run bool) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run {
		svc.Start()
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return svc, ts
}

func postJob(t *testing.T, url string, g *dag.Graph) (int, *http.Response) {
	t.Helper()
	body, err := json.Marshal(workload.JobText{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return -1, resp
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, resp
}

func getJob(t *testing.T, url string, id int) statusJSON {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", url, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %d: status %d", id, resp.StatusCode)
	}
	var st statusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// sseReader collects step events from GET /v1/events until the stream
// closes or stop is called.
type sseReader struct {
	mu        sync.Mutex
	events    int
	completed map[int]bool
	stop      func()
	done      chan struct{}
}

func streamEvents(t *testing.T, url string) *sseReader {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/events", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		cancel()
		t.Fatalf("events content-type %q", ct)
	}
	r := &sseReader{completed: make(map[int]bool), stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				continue
			}
			r.mu.Lock()
			r.events++
			for _, id := range ev.Completed {
				r.completed[id] = true
			}
			r.mu.Unlock()
		}
	}()
	return r
}

func (r *sseReader) snapshot() (events int, completed map[int]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[int]bool, len(r.completed))
	for k := range r.completed {
		m[k] = true
	}
	return r.events, m
}

// TestHTTPEndToEnd is the acceptance check: submit ≥ 10 jobs against a
// live server, stream events, and verify all jobs complete with
// consistent response times.
func TestHTTPEndToEnd(t *testing.T) {
	cfg := testConfig(3, 2, 2, 2)
	cfg.SubscriberBuffer = 1 << 14 // no drops: the test audits the stream
	svc, ts := startHTTP(t, cfg)

	events := streamEvents(t, ts.URL)
	defer events.stop()

	graphs := []*dag.Graph{
		dag.RoundRobinChain(3, 9),
		dag.ForkJoin(3, 5, 1, 2, 3),
		dag.UniformChain(3, 6, 2),
		dag.ForkJoin(3, 4, 2, 1, 2),
		dag.RoundRobinChain(3, 5),
		dag.UniformChain(3, 4, 1),
		dag.ForkJoin(3, 6, 3, 3, 3),
		dag.RoundRobinChain(3, 7),
		dag.UniformChain(3, 5, 3),
		dag.ForkJoin(3, 8, 1, 1, 1),
		dag.RoundRobinChain(3, 11),
		dag.Singleton(3, 2),
	}
	ids := make([]int, len(graphs))
	for i, g := range graphs {
		id, resp := postJob(t, ts.URL, g)
		if id < 0 {
			t.Fatalf("job %d rejected: status %d", i, resp.StatusCode)
		}
		ids[i] = id
	}

	waitFor(t, "all jobs complete", func() bool {
		return svc.Stats().Completed == int64(len(graphs))
	})

	caps := []int{2, 2, 2}
	for i, id := range ids {
		st := getJob(t, ts.URL, id)
		if st.State != "done" {
			t.Fatalf("job %d state %q", id, st.State)
		}
		if st.Response != st.Completion-st.Release {
			t.Errorf("job %d: response %d ≠ completion %d − release %d", id, st.Response, st.Completion, st.Release)
		}
		// Response can never beat the job's solo lower bound.
		solo := int64(st.Span)
		for a, w := range st.Work {
			if v := int64((w + caps[a] - 1) / caps[a]); v > solo {
				solo = v
			}
		}
		if st.Response < solo {
			t.Errorf("job %d (graph %d): response %d below solo bound %d", id, i, st.Response, solo)
		}
	}

	// The event stream saw every completion.
	waitFor(t, "stream catches up", func() bool {
		_, completed := events.snapshot()
		for _, id := range ids {
			if !completed[id] {
				return false
			}
		}
		return true
	})
	n, _ := events.snapshot()
	if n == 0 {
		t.Error("no step events streamed")
	}

	// Metrics expose the run.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("krad_jobs_completed_total %d", len(graphs)),
		fmt.Sprintf("krad_jobs_submitted_total %d", len(graphs)),
		fmt.Sprintf("krad_response_steps_count %d", len(graphs)),
		"krad_steps_total ",
		`krad_utilization{category="3"}`,
		`krad_response_steps_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// Healthz reports ok with matching counters.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Stats.Completed != int64(len(graphs)) {
		t.Errorf("healthz %+v", health)
	}
}

// TestHTTPConcurrentSubmissions hammers POST /v1/jobs from 8 goroutines
// while the step loop runs (the -race acceptance check). Rejected
// submissions (backpressure) are retried until admitted.
func TestHTTPConcurrentSubmissions(t *testing.T) {
	cfg := testConfig(2, 2, 2)
	cfg.MaxInFlight = 32 // small enough that backpressure actually fires
	svc, ts := startHTTP(t, cfg)

	events := streamEvents(t, ts.URL)
	defer events.stop()

	const workers = 8
	const perWorker = 15
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				body, _ := json.Marshal(workload.JobText{Graph: dag.ForkJoin(2, 3, 1, 2, 1)})
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusCreated {
						break
					}
					if resp.StatusCode != http.StatusServiceUnavailable {
						errs <- fmt.Errorf("worker %d job %d: status %d", w, i, resp.StatusCode)
						return
					}
					if attempt > 10000 {
						errs <- fmt.Errorf("worker %d job %d: starved by backpressure", w, i)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	waitFor(t, "all concurrent jobs complete", func() bool {
		return svc.Stats().Completed == workers*perWorker
	})
	st := svc.Stats()
	if st.Submitted != workers*perWorker {
		t.Errorf("submitted %d, want %d", st.Submitted, workers*perWorker)
	}
	if st.Response.N != workers*perWorker || st.Response.Min < 1 {
		t.Errorf("response summary %+v", st.Response)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	// Clock frozen: the far-future job below must stay pending.
	_, ts := startHTTPClock(t, testConfig(2, 1, 1), false)

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", got)
	}
	if got := post(`{"release": 3}`); got != http.StatusBadRequest {
		t.Errorf("graphless job: status %d", got)
	}
	// K mismatch: the engine rejects a 3-category job on a 2-category machine.
	body, _ := json.Marshal(workload.JobText{Graph: dag.Singleton(3, 1)})
	if got := post(string(body)); got != http.StatusBadRequest {
		t.Errorf("K-mismatched job: status %d", got)
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/banana"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric id: status %d", resp.StatusCode)
	}

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := del("999"); got != http.StatusNotFound {
		t.Errorf("cancel unknown: status %d", got)
	}

	// Cancel flow: a far-future job can be cancelled once, then conflicts.
	body, _ = json.Marshal(workload.JobText{Graph: dag.Singleton(2, 1), Release: 1 << 40})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID int `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	idStr := fmt.Sprint(created.ID)
	if got := del(idStr); got != http.StatusOK {
		t.Errorf("cancel pending: status %d", got)
	}
	if got := del(idStr); got != http.StatusConflict {
		t.Errorf("double cancel: status %d", got)
	}
	st := getJob(t, ts.URL, created.ID)
	if st.State != "cancelled" {
		t.Errorf("state %q after cancel", st.State)
	}
}

// TestPromoteErrorKeepsPercent: a failed promotion answers 500 with the
// receiver's error verbatim, not read as a format string. The journal
// directory's name carries a %, and a directory stands where the epoch
// file goes, so recording the promoted epoch fails with a message naming
// the path.
func TestPromoteErrorKeepsPercent(t *testing.T) {
	cfg := replConfig(t)
	cfg.Journal.Dir = filepath.Join(t.TempDir(), "device 100%full")
	svc, _, _ := startFollower(t, cfg, 0)
	epoch := openEpoch(t, cfg.Journal.Dir)
	if err := os.Mkdir(filepath.Join(cfg.Journal.Dir, replicate.EpochFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	_, want := epoch.Promote()
	if want == nil || !strings.Contains(want.Error(), "100%full") {
		t.Fatalf("blocked epoch write: %v, want an error naming the directory", want)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || body.Error != want.Error() {
		t.Errorf("promote answered %d %q, want 500 %q", resp.StatusCode, body.Error, want)
	}
}
