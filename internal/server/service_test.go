package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sched"
	"krad/internal/sim"
)

func testConfig(k int, caps ...int) Config {
	return Config{
		Sim: sim.Config{
			K: k, Caps: caps, Scheduler: core.NewKRAD(k),
			Pick: dag.PickFIFO, ValidateAllotments: true,
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSubmitBackpressure(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.MaxInFlight = 4
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: nothing drains, so the admission bound fills up.
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("5th submit: %v, want ErrQueueFull", err)
	}
	st := svc.Stats()
	if st.Rejected != 1 || st.Submitted != 4 || st.InFlight != 4 {
		t.Errorf("stats %+v", st)
	}
}

func TestServiceRunsJobsAndDrains(t *testing.T) {
	svc, err := New(testConfig(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	const n = 10
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id, err := svc.Submit(sim.JobSpec{Graph: dag.ForkJoin(2, 4, 1, 2, 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	waitFor(t, "completions", func() bool { return svc.Stats().Completed == n })

	for _, id := range ids {
		st, ok := svc.Job(id)
		if !ok || st.Phase != sim.JobDone {
			t.Fatalf("job %d: %+v", id, st)
		}
		if st.Response() != st.Completion-st.Release || st.Response() < int64(st.Span) {
			t.Errorf("job %d inconsistent response: %+v", id, st)
		}
	}
	stats := svc.Stats()
	if stats.Response.N != n || stats.Response.Min < 1 {
		t.Errorf("response summary %+v", stats.Response)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(2, 1)}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v", err)
	}
}

func TestCloseDrainsInFlightJobs(t *testing.T) {
	svc, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	id, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 50, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, _ := svc.Job(id)
	if st.Phase != sim.JobDone {
		t.Errorf("in-flight job not drained before shutdown: %+v", st)
	}
}

func TestCancelPendingJob(t *testing.T) {
	// The loop is deliberately not started: a free-running engine
	// fast-forwards idle gaps, so a future-release job would execute
	// immediately. With the clock frozen, the pending phase is stable.
	svc, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1), Release: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, _ := svc.Job(id)
	if st.Phase != sim.JobCancelled {
		t.Errorf("job %d phase %v", id, st.Phase)
	}
	if got := svc.Stats().Cancelled; got != 1 {
		t.Errorf("cancelled count %d", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close of never-started service: %v", err)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSlowSubscriberDropsEvents(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.SubscriberBuffer = 1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ch, unsub := svc.Subscribe()
	defer unsub()
	_ = ch // never read: every event past the first must be dropped, not block

	// One event per step round of at most stepBatch steps: a chain four
	// batches long publishes four events into a buffer of one.
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 4*stepBatch, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drain", func() bool { return svc.Stats().Completed == 1 })
	if got := svc.Stats().EventsDropped; got == 0 {
		t.Error("no events dropped despite unread subscriber")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Shutdown closes the subscription channel.
	waitFor(t, "subscriber close", func() bool {
		select {
		case _, open := <-ch:
			return !open
		default:
			return false
		}
	})
}

func TestServiceSurvivesBrokenScheduler(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Sim.MaxSteps = 8 // trip the runaway guard quickly
	cfg.Sim.Scheduler = idleScheduler{}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "step error", func() bool { return svc.Err() != nil })
	if !strings.Contains(svc.Err().Error(), "exceeded") {
		t.Errorf("unexpected step error: %v", svc.Err())
	}
	// The service still answers queries and shuts down cleanly.
	if st := svc.Stats(); st.Submitted != 1 {
		t.Errorf("stats after failure: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close after step error: %v", err)
	}
}

// idleScheduler never allots anything — used to trip the runaway guard.
type idleScheduler struct{}

func (idleScheduler) Name() string { return "idle" }
func (idleScheduler) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	out := make([][]int, len(jobs))
	for i := range out {
		out[i] = make([]int, len(caps))
	}
	return out
}

// TestHistogram pins the /metrics fold of the response histogram: le bounds
// are upper-inclusive powers of two, cumulative, and +Inf is the count.
func TestHistogram(t *testing.T) {
	var h metrics.Hist
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	writeResponseHist(&b, &h)
	want := "# HELP krad_response_steps Job response times in virtual steps (all shards).\n# TYPE krad_response_steps histogram\n"
	for le, cum := range []int{2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4} {
		want += fmt.Sprintf("krad_response_steps_bucket{le=\"%d\"} %d\n", 1<<le, cum)
	}
	want += "krad_response_steps_bucket{le=\"+Inf\"} 4\nkrad_response_steps_sum 104.5\nkrad_response_steps_count 4\n"
	if b.String() != want {
		t.Errorf("exposition\n%s\nwant\n%s", b.String(), want)
	}
}
