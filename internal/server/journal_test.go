package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
)

func journaledConfig(t *testing.T, k int, caps ...int) Config {
	t.Helper()
	cfg := testConfig(k, caps...)
	cfg.Journal = &JournalConfig{Dir: t.TempDir()}
	return cfg
}

// drainAndClose closes the service, letting in-flight jobs finish.
func drainAndClose(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// stepShard drives one shard's clock by hand (the step-loop goroutine is
// not running in these tests, keeping timing deterministic).
func stepShard(t *testing.T, svc *Service, idx int) bool {
	t.Helper()
	ok, err := svc.shards[idx].stepOnce()
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestRestartReplaysExactly(t *testing.T) {
	cfg := journaledConfig(t, 2, 2, 1)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave admissions, steps and a cancel so the journal holds every
	// record type at specific clock values.
	id0, err := svc.Submit(sim.JobSpec{Graph: dag.RoundRobinChain(2, 6)})
	if err != nil {
		t.Fatal(err)
	}
	stepShard(t, svc, 0)
	stepShard(t, svc, 0)
	id1, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(2, 5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(2, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	stepShard(t, svc, 0)
	if err := svc.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	stepShard(t, svc, 0)
	before := svc.Stats()
	beforeJobs := map[int]sim.JobStatus{}
	for _, id := range []int{id0, id1, id2} {
		st, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		beforeJobs[id] = st
	}
	drainAndClose(t, svc)

	// "Restart the daemon": a fresh Service over the same journal dir.
	svc2, err := New(journaledConfigFrom(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	after := svc2.Stats()
	if after.Now != before.Now {
		t.Fatalf("restarted clock %d, want %d", after.Now, before.Now)
	}
	if after.Submitted != before.Submitted || after.Completed != before.Completed ||
		after.Cancelled != before.Cancelled || after.Active != before.Active ||
		after.Pending != before.Pending {
		t.Fatalf("restarted stats %+v, want %+v", after, before)
	}
	if after.Response.N != before.Response.N || after.Response.Mean != before.Response.Mean {
		t.Fatalf("restarted response summary %+v, want %+v", after.Response, before.Response)
	}
	for id, want := range beforeJobs {
		got, ok := svc2.Job(id)
		if !ok {
			t.Fatalf("job %d lost across restart", id)
		}
		if got.Phase != want.Phase || got.Release != want.Release || got.Completion != want.Completion {
			t.Fatalf("job %d: restarted %+v, want %+v", id, got, want)
		}
	}
	// The restarted service continues assigning IDs where the first left
	// off — no reuse, no gaps.
	id3, err := svc2.Submit(sim.JobSpec{Graph: dag.Singleton(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id2+1 {
		t.Fatalf("post-restart submit got ID %d, want %d", id3, id2+1)
	}
}

// journaledConfigFrom rebuilds a config sharing the first one's journal
// dir but nothing mutable (the scheduler must be fresh).
func journaledConfigFrom(cfg Config) Config {
	out := testConfig(cfg.Sim.K, cfg.Sim.Caps...)
	out.Shards = cfg.Shards
	out.NewScheduler = cfg.NewScheduler
	out.MaxInFlight = cfg.MaxInFlight
	out.Journal = &JournalConfig{
		Dir:           cfg.Journal.Dir,
		Sync:          cfg.Journal.Sync,
		SnapshotEvery: cfg.Journal.SnapshotEvery,
		OpenAppend:    cfg.Journal.OpenAppend,
	}
	return out
}

func TestRestartMatchesNeverCrashedOracle(t *testing.T) {
	// Run a workload to completion twice: once straight through, once with
	// a "crash" (journal close + fresh Service) in the middle. Their final
	// states must be bit-identical.
	run := func(crashAfter int) (Stats, map[int]sim.JobStatus) {
		cfg := journaledConfig(t, 1, 2)
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for i := 0; i < 6; i++ {
			id, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 2+i%3, 1)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			stepShard(t, svc, 0)
			if crashAfter > 0 && i == crashAfter {
				drainlessClose(t, svc)
				svc, err = New(journaledConfigFrom(cfg))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		for stepShard(t, svc, 0) {
		}
		st := svc.Stats()
		jobs := map[int]sim.JobStatus{}
		for _, id := range ids {
			j, _ := svc.Job(id)
			jobs[id] = j
		}
		drainAndClose(t, svc)
		return st, jobs
	}
	oracleStats, oracleJobs := run(0)
	crashedStats, crashedJobs := run(3)
	if crashedStats.Now != oracleStats.Now || crashedStats.Completed != oracleStats.Completed ||
		crashedStats.Submitted != oracleStats.Submitted {
		t.Fatalf("crashed run stats %+v, oracle %+v", crashedStats, oracleStats)
	}
	for id, want := range oracleJobs {
		got := crashedJobs[id]
		if got.Phase != want.Phase || got.Completion != want.Completion || got.Release != want.Release {
			t.Fatalf("job %d: crashed run %+v, oracle %+v", id, got, want)
		}
	}
}

// drainlessClose simulates a crash as closely as a clean process allows:
// stop without draining (jobs stay in-flight in the journal).
func drainlessClose(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: close abandons in-flight work immediately
	_ = svc.Close(ctx)
}

func TestDegradedDiskShedsAdmissionsKeepsScheduling(t *testing.T) {
	cfg := journaledConfig(t, 1, 2)
	budget := int64(1500)
	cfg.Journal.OpenAppend = func(path string) (journal.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &journal.FaultFile{F: f, N: budget}, nil
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Admit until the disk "fills".
	var admitted []int
	var degradedAt int = -1
	for i := 0; i < 64; i++ {
		id, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 4, 1)})
		if err != nil {
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("submit %d: %v, want ErrDegraded", i, err)
			}
			degradedAt = i
			break
		}
		admitted = append(admitted, id)
	}
	if degradedAt < 0 {
		t.Fatal("fault budget never tripped")
	}
	if len(admitted) == 0 {
		t.Fatal("no admission succeeded before the disk filled")
	}
	// Degradation is sticky: cancels refuse too, and readiness reports it.
	if err := svc.Cancel(admitted[0]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("cancel while degraded: %v, want ErrDegraded", err)
	}
	if ok, reason := svc.Ready(); ok || reason == "" {
		t.Fatalf("Ready() = %v %q while degraded", ok, reason)
	}
	st := svc.Stats()
	if st.Journal == nil || st.Journal.Degraded != 1 {
		t.Fatalf("stats journal %+v, want 1 degraded shard", st.Journal)
	}
	// In-flight jobs keep scheduling from memory: the already-admitted
	// work runs to completion even though nothing new is acknowledged.
	for stepShard(t, svc, 0) {
	}
	for _, id := range admitted {
		jst, ok := svc.Job(id)
		if !ok || jst.Phase != sim.JobDone {
			t.Fatalf("in-flight job %d did not finish under degraded disk: %+v (ok=%v)", id, jst, ok)
		}
	}
	drainlessClose(t, svc)

	// Restart on a healthy disk: every acknowledged admission is back
	// (re-derived by stepping, since tail steps after the failure were
	// unjournaled), the shed one never existed.
	svc2, err := New(Config{
		Sim:     cfg.Sim,
		Journal: &JournalConfig{Dir: cfg.Journal.Dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	for stepShard(t, svc2, 0) {
	}
	for _, id := range admitted {
		jst, ok := svc2.Job(id)
		if !ok || jst.Phase != sim.JobDone {
			t.Fatalf("job %d lost or unfinished after healthy restart: %+v (ok=%v)", id, jst, ok)
		}
	}
	if st := svc2.Stats(); st.Submitted != int64(len(admitted)) {
		t.Fatalf("restarted submitted=%d, want %d (no phantom admissions)", st.Submitted, len(admitted))
	}
}

func TestDegradedAdmissionRollsBackCleanly(t *testing.T) {
	// The admission that trips the fault must not leak: its ID is never
	// returned, and the journal holds no trace of it.
	cfg := journaledConfig(t, 1, 1)
	trip := false
	cfg.Journal.OpenAppend = func(path string) (journal.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		ff := &journal.FaultFile{F: f, N: 1 << 30}
		if !trip {
			trip = true
			ff.N = int64(len("KRADWAL\x01")) + 40 // room for the header + one small record
		}
		return ff, nil
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First submit fits the budget... or trips it; either way the invariant
	// below holds: successful submits survive restart, failed ones vanish.
	var acked []int
	for i := 0; i < 4; i++ {
		id, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)})
		if err == nil {
			acked = append(acked, id)
		} else if !errors.Is(err, ErrDegraded) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if len(acked) == 4 {
		t.Fatal("fault never tripped")
	}
	drainlessClose(t, svc)
	svc2, err := New(Config{Sim: cfg.Sim, Journal: &JournalConfig{Dir: cfg.Journal.Dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	if got := svc2.Stats().Submitted; got != int64(len(acked)) {
		t.Fatalf("restart sees %d submissions, %d were acknowledged", got, len(acked))
	}
}

// TestNonJournalableSubmitLeavesNoTrace pins the refusal order: a job shape
// the journal cannot describe is turned away before anything mutates — no
// engine ID burned, journal not latched — so the next acknowledged job is
// journaled at a base ID replay reproduces.
func TestNonJournalableSubmitLeavesNoTrace(t *testing.T) {
	cfg := journaledConfig(t, 1, 2)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nextID := func() int {
		sh := svc.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.eng.NextID()
	}
	before := nextID()
	src := profile.MustNew(1, "phased", []profile.Phase{{Tasks: []int{2}}, {Tasks: []int{1}}})
	if _, err := svc.Submit(sim.JobSpec{Source: src}); err == nil || !strings.Contains(err.Error(), "not journalable") {
		t.Fatalf("submit of a profile source on a journaled service: %v, want a located \"not journalable\" error", err)
	}
	if ok, reason := svc.Ready(); !ok {
		t.Fatalf("refused submit degraded the service: %s", reason)
	}
	if got := nextID(); got != before {
		t.Fatalf("refused submit moved the engine's next ID %d → %d", before, got)
	}
	id, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	drainlessClose(t, svc)

	svc2, err := New(journaledConfigFrom(cfg))
	if err != nil {
		t.Fatalf("restart after a refused submit: %v", err)
	}
	defer drainAndClose(t, svc2)
	if _, ok := svc2.Job(id); !ok {
		t.Fatalf("acknowledged job %d lost across restart", id)
	}
	if got := svc2.Stats().Submitted; got != 1 {
		t.Fatalf("restart sees %d submissions, want 1 (the refused one left no trace)", got)
	}
}

func TestJournalRefusesShardShrink(t *testing.T) {
	cfg := journaledConfig(t, 1, 2)
	cfg.Shards = 2
	cfg.NewScheduler = func() sched.Scheduler { return core.NewKRAD(cfg.Sim.K) }
	svc, err := New(cfg)
	if err != nil {
		t.Skipf("sharded journal config rejected: %v", err)
	}
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatal(err)
	}
	drainAndClose(t, svc)

	shrunk := journaledConfigFrom(cfg)
	shrunk.Shards = 1
	shrunk.NewScheduler = nil
	if _, err := New(shrunk); err == nil {
		t.Fatal("New accepted a journal dir written by a larger fleet")
	}
}

func TestCompactionBoundsReplay(t *testing.T) {
	cfg := journaledConfig(t, 1, 2)
	cfg.Journal.SnapshotEvery = 5
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 3, 1)}); err != nil {
			t.Fatal(err)
		}
		for stepShard(t, svc, 0) {
		}
		svc.shards[0].maybeCompact()
	}
	before := svc.Stats()
	if before.Journal.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", before.Journal)
	}
	if before.Journal.Records > 5+1 {
		t.Fatalf("journal holds %d records after compaction, want ≤ 6", before.Journal.Records)
	}
	drainAndClose(t, svc)

	svc2, err := New(journaledConfigFrom(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	after := svc2.Stats()
	if after.Now != before.Now || after.Completed != before.Completed ||
		after.Response.N != before.Response.N || after.Response.Mean != before.Response.Mean {
		t.Fatalf("restart from compacted journal: %+v, want %+v", after, before)
	}
	// IDs continue from the snapshot — the checkpoint carries the table.
	id, err := svc2.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("post-compaction submit got ID %d, want 4", id)
	}
}

func TestCorruptJournalFailsStartupLocated(t *testing.T) {
	cfg := journaledConfig(t, 1, 2)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	drainAndClose(t, svc)

	path := filepath.Join(cfg.Journal.Dir, "shard-000.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x20 // inside record 0's payload: interior damage, intact records after
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(journaledConfigFrom(cfg))
	if !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("New over a corrupt journal: %v, want ErrCorrupt", err)
	}
}

func TestReadyzEndpoints(t *testing.T) {
	cfg := journaledConfig(t, 1, 2)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz on a healthy service: %d", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz on a healthy service: %d", code)
	}
	drainAndClose(t, svc)
	// Draining/closed: liveness stays 200, readiness flips to 503.
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200 (liveness)", code)
	}
}

func TestDegradedHTTPIs503WithRetryAfter(t *testing.T) {
	cfg := journaledConfig(t, 1, 2)
	cfg.Journal.OpenAppend = func(path string) (journal.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &journal.FaultFile{F: f, N: int64(len("KRADWAL\x01")), Err: syscall.ENOSPC}, nil
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, err := json.Marshal(submitRequest{Graph: dag.Singleton(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on a degraded service: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}
	if code := readyzCode(t, ts.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded: %d, want 503", code)
	}
	drainlessClose(t, svc)
}

func readyzCode(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
