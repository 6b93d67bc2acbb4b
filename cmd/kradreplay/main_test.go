package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/sched"
	"krad/internal/server"
	"krad/internal/sim"
	"krad/internal/workload"
)

func TestParseMix(t *testing.T) {
	w, err := parseMix("rigid=0.8,dag=0.1,mold=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if w["rigid"] != 0.8 || w["dag"] != 0.1 || w["mold"] != 0.1 {
		t.Fatalf("weights %v", w)
	}
	for _, bad := range []string{"", "rigid", "alien=1", "rigid=-1", "rigid=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestRetryDelay(t *testing.T) {
	// Every delay lands in the upper half of the capped hint, and the draws
	// differ: workers that all hit the cap must not retry in lockstep.
	for _, tc := range []struct {
		name   string
		header string
		cap    time.Duration
		want   time.Duration // the un-jittered delay
	}{
		{"Retry-After honored", "3", 10 * time.Second, 3 * time.Second},
		{"capped", "3", time.Second, time.Second},
		{"missing header floor", "", 10 * time.Second, 10 * time.Millisecond},
	} {
		seen := map[time.Duration]bool{}
		for i := 0; i < 64; i++ {
			d := retryDelay(tc.header, tc.cap, 0)
			if d < tc.want/2 || d > tc.want {
				t.Fatalf("%s: delay %v outside [%v, %v]", tc.name, d, tc.want/2, tc.want)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Errorf("%s: 64 draws all equal %v — no jitter", tc.name, tc.want)
		}
	}
	if d := retryDelay("", 0, 3); d != 0 {
		t.Errorf("zero cap: %v, want 0", d)
	}
}

// selfHost brings up an in-process kradd-equivalent (server.Service
// behind httptest) so run() is exercised end to end without a binary.
func selfHost(t *testing.T, k int, caps []int) string {
	t.Helper()
	svc, err := server.New(server.Config{
		Sim:          sim.Config{K: k, Caps: caps, Pick: dag.PickFIFO},
		NewScheduler: func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(k)) },
		MaxInFlight:  1 << 18,
		RetireDone:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return ts.URL
}

func TestRunSyntheticClosedLoop(t *testing.T) {
	addr := selfHost(t, 2, []int{8, 8})
	rep, err := run(options{
		addr: addr, jobs: 2000, mix: "rigid=0.8,dag=0.1,mold=0.1",
		workers: 4, batch: 1, seed: 7, retryCap: 100 * time.Millisecond,
		drain: true, drainMax: time.Minute, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 2000 || rep.Errors != 0 {
		t.Fatalf("accepted %d errors %d, want 2000/0", rep.Accepted, rep.Errors)
	}
	if rep.Latency.N == 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Fatalf("latency report %+v", rep.Latency)
	}
	if rep.Drain == nil || rep.Drain.Jobs != 2000 || rep.Drain.JobsPerSec <= 0 {
		t.Fatalf("drain report %+v", rep.Drain)
	}
	if rep.Mode != "closed-loop" {
		t.Fatalf("mode %q", rep.Mode)
	}
}

func TestRunSyntheticBatchedOpenLoop(t *testing.T) {
	addr := selfHost(t, 2, []int{8, 8})
	rep, err := run(options{
		addr: addr, jobs: 1200, mix: "rigid=1",
		workers: 2, batch: 64, rate: 100000, arrivals: "poisson", seed: 3,
		retryCap: 100 * time.Millisecond, drain: true, drainMax: time.Minute, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1200 {
		t.Fatalf("accepted %d, want 1200", rep.Accepted)
	}
	if rep.Mode != "open-loop/poisson" || rep.TargetRate != 100000 {
		t.Fatalf("mode %q rate %v", rep.Mode, rep.TargetRate)
	}
}

func TestRunSWFTrace(t *testing.T) {
	addr := selfHost(t, 3, []int{8, 8, 8})
	path := filepath.Join(t.TempDir(), "log.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteSyntheticSWF(f, 120, 5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := run(options{
		addr: addr, trace: path, jobs: 0, scale: 60, maxProcs: 4,
		workers: 4, batch: 8, retryCap: 100 * time.Millisecond,
		drain: true, drainMax: time.Minute, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 120 || rep.Errors != 0 {
		t.Fatalf("accepted %d errors %d, want 120/0", rep.Accepted, rep.Errors)
	}
	if rep.Source != "swf:"+path {
		t.Fatalf("source %q", rep.Source)
	}
}

// TestRunBackpressure drives a deliberately tiny queue so 503s occur, and
// checks the client retries them to completion while counting the sheds.
func TestRunBackpressure(t *testing.T) {
	svc, err := server.New(server.Config{
		Sim:          sim.Config{K: 1, Caps: []int{2}, Pick: dag.PickFIFO},
		NewScheduler: func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(1)) },
		MaxInFlight:  4,
		RetireDone:   true,
		// Paced stepping: free-running would drain the 4-slot queue
		// faster than 8 workers can fill it and no 503 would ever fire.
		StepEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	// 50 attempts at up to 50 ms outlast the whole ~2 s run, so a worker
	// cannot run out of retries while the queue is still draining (at 20 ms
	// one did about once in a hundred runs, even with jittered delays).
	rep, err := run(options{
		addr: ts.URL, jobs: 200, mix: "rigid=1",
		workers: 8, batch: 1, seed: 2, retryCap: 50 * time.Millisecond,
		drain: true, drainMax: time.Minute, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 200 {
		t.Fatalf("accepted %d, want 200 (sheds must be retried)", rep.Accepted)
	}
	if rep.Shed503 == 0 {
		t.Fatal("queue of 4 under 8 workers shed nothing — backpressure not exercised")
	}
}

// TestRunTenants spreads a run over three tenants of a fairness-gated
// service whose fleet bound is far below the offered load: over-quota
// submissions bounce with 429 and are retried, the per-tenant rows add up
// to the totals, and every job drains.
func TestRunTenants(t *testing.T) {
	svc, err := server.New(server.Config{
		Sim:          sim.Config{K: 1, Caps: []int{2}},
		NewScheduler: func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(1)) },
		MaxInFlight:  6,
		RetireDone:   true,
		Fairness:     &fairshare.Config{},
		StepEvery:    2 * time.Millisecond, // paced, as in TestRunBackpressure
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	rep, err := run(options{
		addr: ts.URL, jobs: 150, mix: "rigid=1", tenants: 3,
		workers: 9, batch: 1, seed: 2, retryCap: 50 * time.Millisecond,
		drain: true, drainMax: time.Minute, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 150 || rep.Errors != 0 {
		t.Fatalf("accepted %d errors %d, want 150/0", rep.Accepted, rep.Errors)
	}
	if rep.Shed429 == 0 {
		t.Fatal("9 workers against a fair-shared bound of 6 shed no 429")
	}
	if len(rep.Tenants) != 3 {
		t.Fatalf("tenant rows %+v, want 3", rep.Tenants)
	}
	var accepted, shed int64
	for i, tr := range rep.Tenants {
		if tr.Tenant != tenantName(i) || tr.Accepted != 50 {
			t.Errorf("tenant row %d: %+v, want %s with 50 accepted", i, tr, tenantName(i))
		}
		accepted += tr.Accepted
		shed += tr.Shed429
	}
	if accepted != rep.Accepted || shed != rep.Shed429 {
		t.Fatalf("per-tenant sums %d/%d, totals %d/%d", accepted, shed, rep.Accepted, rep.Shed429)
	}
	if rep.Drain == nil || rep.Drain.Jobs != 150 {
		t.Fatalf("drain %+v, want all 150 jobs", rep.Drain)
	}
}

// TestRunRetriesConnErrors resets the connection under the first few
// submissions — what a restarting daemon or a failover looks like from the
// client — and checks each is retried, counted apart from sheds, and
// nothing is lost.
func TestRunRetriesConnErrors(t *testing.T) {
	svc, err := server.New(server.Config{
		Sim:          sim.Config{K: 1, Caps: []int{4}},
		NewScheduler: func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(1)) },
		RetireDone:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	const resets = 5
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && posts.Add(1) <= resets {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			_ = conn.(*net.TCPConn).SetLinger(0) // close sends RST, not FIN
			conn.Close()
			return
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	rep, err := run(options{
		addr: ts.URL, jobs: 40, mix: "rigid=1",
		workers: 2, batch: 4, seed: 2, retryCap: 20 * time.Millisecond,
		drain: true, drainMax: time.Minute, quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 40 || rep.Errors != 0 {
		t.Fatalf("accepted %d errors %d, want 40/0", rep.Accepted, rep.Errors)
	}
	if rep.ConnRetries != resets {
		t.Fatalf("conn_retries %d, want %d (one per reset connection)", rep.ConnRetries, resets)
	}
	if rep.Shed429 != 0 || rep.Shed503 != 0 {
		t.Fatalf("resets counted as sheds: 429=%d 503=%d", rep.Shed429, rep.Shed503)
	}
	if rep.Drain == nil || rep.Drain.Jobs != 40 {
		t.Fatalf("drain %+v, want all 40 jobs", rep.Drain)
	}
}

// TestReplaySmokeRealKradd builds the real kradd and kradreplay binaries
// and drives one against the other. Gated behind KRAD_REPLAY_SMOKE=1:
// it compiles two binaries and opens a real port, which is CI-nightly
// material, not unit-test material.
func TestReplaySmokeRealKradd(t *testing.T) {
	if os.Getenv("KRAD_REPLAY_SMOKE") != "1" {
		t.Skip("set KRAD_REPLAY_SMOKE=1 to run the real-binary smoke test")
	}
	dir := t.TempDir()
	kradd := filepath.Join(dir, "kradd")
	replay := filepath.Join(dir, "kradreplay")
	for bin, pkg := range map[string]string{kradd: "krad/cmd/kradd", replay: "krad/cmd/kradreplay"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	jdir := filepath.Join(dir, "journal")
	daemon := exec.Command(kradd,
		"-addr", addr, "-caps", "8,8",
		"-queue", "200000", "-retire-done",
		"-journal-dir", jdir, "-fsync", "interval", "-snapshot-every", "0")
	daemon.Stdout = os.Stderr
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { daemon.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			daemon.Process.Kill()
		}
	}()
	base := "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("kradd never became ready")
		}
		time.Sleep(100 * time.Millisecond)
	}

	jobs := 20000
	if v := os.Getenv("KRAD_REPLAY_SMOKE_JOBS"); v != "" {
		fmt.Sscanf(v, "%d", &jobs)
	}
	outPath := filepath.Join(dir, "report.json")
	cmd := exec.Command(replay,
		"-addr", base, "-jobs", fmt.Sprint(jobs),
		"-mix", "rigid=0.9,dag=0.05,mold=0.05", "-workers", "8", "-batch", "16",
		"-drain-timeout", "5m", "-out", outPath)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("kradreplay: %v", err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != int64(jobs) || rep.Errors != 0 {
		t.Fatalf("accepted %d errors %d, want %d/0", rep.Accepted, rep.Errors, jobs)
	}
	if rep.Drain == nil || rep.Drain.Jobs != int64(jobs) {
		t.Fatalf("drain %+v", rep.Drain)
	}
	if rep.Journal == nil || rep.Journal.Syncs == 0 {
		t.Fatalf("journaled daemon reported no fsyncs: %+v", rep.Journal)
	}
	t.Logf("smoke: %d jobs, %.0f submit/s, drain %.0f jobs/s, %d fsyncs (%.1f%% of wall)",
		rep.Accepted, rep.SubmitRate, rep.Drain.JobsPerSec, rep.Journal.Syncs, 100*rep.Journal.SyncShare)
}
