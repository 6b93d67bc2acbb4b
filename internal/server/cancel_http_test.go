package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/workload"
)

// postJobRelease submits a job with an explicit absolute release time.
func postJobRelease(t *testing.T, url string, g *dag.Graph, release int64) int {
	t.Helper()
	body, err := json.Marshal(workload.JobText{Graph: g, Release: release})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func deleteJob(t *testing.T, url string, id int) (int, statusJSON) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", url, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusJSON
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

// mustStep hand-drives the single shard's clock by one step and returns
// how many tasks ran (summed over categories).
func mustStep(t *testing.T, svc *Service) int {
	t.Helper()
	progressed, err := svc.shards[0].stepOnce()
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if !progressed {
		t.Fatal("engine idle, expected work")
	}
	v := svc.shards[0].view(new(metrics.Hist))
	total := 0
	for _, w := range v.snap.ExecutedTotal {
		total += int(w)
	}
	return total
}

// TestCancelActiveFreesProcessorsNextStep drives the clock by hand
// through the HTTP layer: with one processor, an active job is cancelled
// via DELETE and the very next step must execute another job's task —
// the freed processor is reused immediately, not a step late.
func TestCancelActiveFreesProcessorsNextStep(t *testing.T) {
	svc, ts := startHTTPClock(t, testConfig(1, 1), false) // frozen clock, P=[1]

	idA := postJobRelease(t, ts.URL, dag.UniformChain(1, 10, 1), 0)
	if got := mustStep(t, svc); got != 1 {
		t.Fatalf("step 1 executed %d tasks, want 1 (job A alone)", got)
	}
	if st := getJob(t, ts.URL, idA); st.State != "active" {
		t.Fatalf("job A state %q, want active", st.State)
	}

	// Admit B at the current clock: it releases on the next step but the
	// single processor is held by A.
	now := svc.shards[0].view(new(metrics.Hist)).snap.Now
	idB := postJobRelease(t, ts.URL, dag.UniformChain(1, 3, 1), now)

	// Cancel A while it is active.
	code, st := deleteJob(t, ts.URL, idA)
	if code != http.StatusOK || st.State != "cancelled" {
		t.Fatalf("cancel active: status %d state %q", code, st.State)
	}

	before := svc.shards[0].view(new(metrics.Hist)).snap.ExecutedTotal[0]
	if got := mustStep(t, svc); got != int(before)+1 {
		t.Fatalf("step after cancel executed %d total tasks, want %d — freed processor not reused on the very next step", got, before+1)
	}
	if st := getJob(t, ts.URL, idB); st.State != "active" {
		t.Fatalf("job B state %q after reclaiming the processor", st.State)
	}
	// B finishes in two more steps on the reclaimed processor.
	mustStep(t, svc)
	mustStep(t, svc)
	if st := getJob(t, ts.URL, idB); st.State != "done" {
		t.Fatalf("job B state %q, want done", st.State)
	}
	// A stays cancelled with no completion time.
	if st := getJob(t, ts.URL, idA); st.State != "cancelled" || st.Completion != 0 {
		t.Fatalf("job A after drain: %+v", st)
	}
}

// TestCancelPendingNeverReleases cancels a not-yet-released job via
// DELETE and steps the clock past its release time: the job must never
// become active and its would-be processors go to other work.
func TestCancelPendingNeverReleases(t *testing.T) {
	svc, ts := startHTTPClock(t, testConfig(1, 1), false)

	idA := postJobRelease(t, ts.URL, dag.UniformChain(1, 6, 1), 0)
	idB := postJobRelease(t, ts.URL, dag.UniformChain(1, 3, 1), 2) // pending until step 3
	if st := getJob(t, ts.URL, idB); st.State != "pending" {
		t.Fatalf("job B state %q, want pending", st.State)
	}

	code, st := deleteJob(t, ts.URL, idB)
	if code != http.StatusOK || st.State != "cancelled" {
		t.Fatalf("cancel pending: status %d state %q", code, st.State)
	}

	// Step well past B's release: every step must execute exactly one of
	// A's tasks — B never contends for the processor.
	for i := 0; i < 6; i++ {
		if got := mustStep(t, svc); got != i+1 {
			t.Fatalf("step %d: cumulative executed %d, want %d", i+1, got, i+1)
		}
	}
	if st := getJob(t, ts.URL, idA); st.State != "done" {
		t.Fatalf("job A state %q, want done", st.State)
	}
	if st := getJob(t, ts.URL, idB); st.State != "cancelled" || st.Completion != 0 {
		t.Fatalf("job B resurrected: %+v", st)
	}
	// Cancelling a done job conflicts; stats agree with what happened.
	if code, _ := deleteJob(t, ts.URL, idA); code != http.StatusConflict {
		t.Fatalf("cancel done job: status %d", code)
	}
	stats := svc.Stats()
	if stats.Completed != 1 || stats.Cancelled != 1 {
		t.Fatalf("stats %+v", stats)
	}
}
