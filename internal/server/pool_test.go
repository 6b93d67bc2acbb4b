package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sched"
	"krad/internal/sim"
	"krad/internal/workload"
)

// poolConfig is testConfig with N shards behind the front-end.
func poolConfig(shards int, placement string, k int, caps ...int) Config {
	cfg := testConfig(k, caps...)
	cfg.Shards = shards
	cfg.Placement = placement
	cfg.NewScheduler = func() sched.Scheduler { return core.NewKRAD(k) }
	return cfg
}

func TestIDNamespacing(t *testing.T) {
	cases := []struct{ shard, local int }{
		{0, 0}, {0, 1}, {0, 12345}, {1, 0}, {1, 7}, {3, 1 << 20}, {15, 99},
	}
	for _, c := range cases {
		id := composeID(c.shard, c.local)
		if ShardOf(id) != c.shard || LocalID(id) != c.local {
			t.Errorf("compose(%d,%d)=%d → shard %d local %d", c.shard, c.local, id, ShardOf(id), LocalID(id))
		}
		if c.shard == 0 && id != c.local {
			t.Errorf("shard 0 id %d ≠ local %d: single-shard IDs must be unchanged", id, c.local)
		}
	}
}

func TestPlacementPolicies(t *testing.T) {
	loads := []int{5, 0, 3, 0}

	rr, err := NewPlacement("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, rr.Pick("", loads))
	}
	if want := []int{0, 1, 2, 3, 0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("round-robin picks %v, want %v", got, want)
	}

	ll, err := NewPlacement("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	if got := ll.Pick("", loads); got != 1 {
		t.Errorf("least-loaded picked %d (loads %v), want 1 (lowest index wins ties)", got, loads)
	}

	h, err := NewPlacement("hash")
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := h.Pick("tenant-a", loads), h.Pick("tenant-a", loads)
	if a1 != a2 {
		t.Errorf("hash placement not stable: %d then %d for the same key", a1, a2)
	}
	// Keyless submissions under hash fall back to round-robin rather than
	// piling onto one shard.
	k1, k2 := h.Pick("", loads), h.Pick("", loads)
	if k1 == k2 {
		t.Errorf("keyless hash picks did not rotate: %d, %d", k1, k2)
	}

	// Default is round-robin; junk is rejected.
	if p, err := NewPlacement(""); err != nil || p.Name() != PlaceRoundRobin {
		t.Errorf("empty placement: %v, %v", p, err)
	}
	if _, err := NewPlacement("banana"); err == nil {
		t.Error("unknown placement accepted")
	}
}

func TestNewRequiresSchedulerFactoryForShards(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := testConfig(2, 2, 2)
		cfg.Shards = shards
		cfg.NewScheduler = nil
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "NewScheduler") {
			t.Fatalf("Shards=%d without NewScheduler: err = %v, want one naming NewScheduler — engines would share one stateful scheduler", shards, err)
		}
	}
}

// TestPoolRunsAcrossShards submits a workload to a 3-shard round-robin
// pool and checks routing, namespaced status queries, event fan-out and
// aggregated stats.
func TestPoolRunsAcrossShards(t *testing.T) {
	cfg := poolConfig(3, PlaceRoundRobin, 2, 2, 2)
	cfg.SubscriberBuffer = 1 << 14
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Shards() != 3 {
		t.Fatalf("Shards() = %d", svc.Shards())
	}
	ch, unsub := svc.Subscribe()
	defer unsub()
	done := make(chan map[int]bool, 1)
	go func() {
		seen := make(map[int]bool)
		for ev := range ch {
			for _, id := range ev.Completed {
				if ShardOf(id) != ev.Shard {
					t.Errorf("event from shard %d completed id %d (shard %d)", ev.Shard, id, ShardOf(id))
				}
				seen[id] = true
			}
		}
		done <- seen
	}()
	svc.Start()

	const n = 12
	ids := make([]int, 0, n)
	perShard := make(map[int]int)
	for i := 0; i < n; i++ {
		id, err := svc.Submit(sim.JobSpec{Graph: dag.ForkJoin(2, 4, 1, 2, 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
		perShard[ShardOf(id)]++
	}
	// Round-robin spreads a uniform burst evenly.
	if len(perShard) != 3 || perShard[0] != 4 || perShard[1] != 4 || perShard[2] != 4 {
		t.Errorf("round-robin distribution %v, want 4 per shard", perShard)
	}

	waitFor(t, "completions", func() bool { return svc.Stats().Completed == n })
	for _, id := range ids {
		st, ok := svc.Job(id)
		if !ok || st.Phase != sim.JobDone {
			t.Fatalf("job %d: ok=%v %+v", id, ok, st)
		}
		if st.ID != id {
			t.Errorf("job %d status carries ID %d — namespacing lost", id, st.ID)
		}
	}

	st := svc.Stats()
	if st.Submitted != n || st.Completed != n || st.Response.N != n {
		t.Errorf("aggregated stats %+v", st)
	}
	if st.Shards != 3 || st.Placement != PlaceRoundRobin {
		t.Errorf("shards/placement %d/%q", st.Shards, st.Placement)
	}
	if st.Steps == 0 || st.Now == 0 {
		t.Errorf("clocks did not advance: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	seen := <-done
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("event stream missed completion of job %d", id)
		}
	}
}

// TestPoolResponseMergeMatchesOracle checks that the fleet's merged
// response summary equals a single summary computed over every job's
// individually queried response — the single-engine oracle for the merge.
func TestPoolResponseMergeMatchesOracle(t *testing.T) {
	svc, err := New(poolConfig(3, PlaceRoundRobin, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()

	graphs := []*dag.Graph{
		dag.RoundRobinChain(2, 9),
		dag.ForkJoin(2, 5, 1, 2, 1),
		dag.UniformChain(2, 6, 2),
		dag.ForkJoin(2, 4, 2, 1, 2),
		dag.RoundRobinChain(2, 5),
		dag.UniformChain(2, 4, 1),
		dag.Singleton(2, 2),
		dag.RoundRobinChain(2, 7),
		dag.UniformChain(2, 5, 1),
	}
	ids := make([]int, len(graphs))
	for i, g := range graphs {
		id, err := svc.Submit(sim.JobSpec{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	waitFor(t, "completions", func() bool { return svc.Stats().Completed == int64(len(graphs)) })

	oracle := make([]float64, 0, len(ids))
	for _, id := range ids {
		st, ok := svc.Job(id)
		if !ok || st.Phase != sim.JobDone {
			t.Fatalf("job %d: %+v", id, st)
		}
		oracle = append(oracle, float64(st.Response()))
	}
	want := metrics.Summarize(oracle)
	got := svc.Stats().Response
	// Responses are small integers, so the moments the fixed-size
	// histogram tracks exactly (N, Min, Max, Mean, StdDev — see
	// metrics.Hist) must match the oracle bit for bit; the quantiles
	// are bucketed estimates with a documented ~19% log-bucket error, so
	// they only need to land within that bound of the true order statistic.
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max || got.Mean != want.Mean {
		t.Errorf("merged response summary %+v ≠ oracle %+v (exact fields)", got, want)
	}
	if math.Abs(got.StdDev-want.StdDev) > 1e-9 {
		t.Errorf("merged response stddev %v ≠ oracle %v", got.StdDev, want.StdDev)
	}
	checkQ := func(stat string, g, w float64) {
		if math.Abs(g-w) > 0.25*w+1 {
			t.Errorf("merged response %s %v too far from oracle %v", stat, g, w)
		}
	}
	checkQ("p50", got.P50, want.P50)
	checkQ("p90", got.P90, want.P90)
	checkQ("p99", got.P99, want.P99)
}

func TestHashPlacementAffinityHTTP(t *testing.T) {
	cfg := poolConfig(4, PlaceHash, 2, 2, 2)
	_, ts := startHTTPClock(t, cfg, false) // frozen clock: jobs stay put

	submitKeyed := func(key string) int {
		t.Helper()
		body, _ := json.Marshal(workload.JobText{Graph: dag.Singleton(2, 1), Release: 1 << 30})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		if key != "" {
			req.Header.Set(PlacementKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit status %d: %s", resp.StatusCode, b)
		}
		var out struct {
			ID    int `json:"id"`
			Shard int `json:"shard"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Shard != ShardOf(out.ID) {
			t.Fatalf("response shard %d ≠ ShardOf(%d)=%d", out.Shard, out.ID, ShardOf(out.ID))
		}
		return out.Shard
	}

	first := submitKeyed("tenant-a")
	for i := 0; i < 5; i++ {
		if got := submitKeyed("tenant-a"); got != first {
			t.Fatalf("key tenant-a moved from shard %d to %d", first, got)
		}
	}
	// A different key is routed deterministically too (possibly the same
	// shard — only stability is guaranteed).
	b1 := submitKeyed("tenant-b")
	if got := submitKeyed("tenant-b"); got != b1 {
		t.Fatalf("key tenant-b moved from shard %d to %d", b1, got)
	}
}

func TestLeastLoadedPlacement(t *testing.T) {
	svc, err := New(poolConfig(2, PlaceLeastLoaded, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Frozen clock (never started): in-flight counts only grow, so the
	// placement sequence is deterministic: 0, 1, then tie → 0.
	spec := func() sim.JobSpec { return sim.JobSpec{Graph: dag.Singleton(1, 1), Release: 1 << 30} }
	var shards []int
	for i := 0; i < 4; i++ {
		id, err := svc.Submit(spec())
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, ShardOf(id))
	}
	if want := []int{0, 1, 0, 1}; !reflect.DeepEqual(shards, want) {
		t.Errorf("least-loaded routing %v, want %v", shards, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

func TestSubmitBatchHTTP(t *testing.T) {
	cfg := poolConfig(2, PlaceRoundRobin, 2, 2, 2)
	svc, ts := startHTTP(t, cfg)

	postBatch := func(body any) (*http.Response, []byte) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	jobs := make([]workload.JobText, 5)
	for i := range jobs {
		jobs[i] = workload.JobText{Graph: dag.ForkJoin(2, 3, 1, 2, 1)}
	}
	resp, body := postBatch(workload.BatchText{Jobs: jobs})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		IDs   []int `json:"ids"`
		Shard int   `json:"shard"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.IDs) != len(jobs) {
		t.Fatalf("batch returned %d ids for %d jobs", len(out.IDs), len(jobs))
	}
	for _, id := range out.IDs {
		if ShardOf(id) != out.Shard {
			t.Errorf("batch id %d on shard %d, batch placed on %d", id, ShardOf(id), out.Shard)
		}
	}
	waitFor(t, "batch completes", func() bool { return svc.Stats().Completed == int64(len(jobs)) })

	// All-or-nothing: a batch with one invalid member admits nothing.
	before := svc.Stats().Submitted
	bad := []workload.JobText{
		{Graph: dag.Singleton(2, 1)},
		{Graph: dag.Singleton(3, 1)}, // K mismatch
	}
	if resp, body := postBatch(workload.BatchText{Jobs: bad}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid batch status %d: %s", resp.StatusCode, body)
	}
	if after := svc.Stats().Submitted; after != before {
		t.Errorf("invalid batch admitted %d jobs", after-before)
	}
	if resp, _ := postBatch(workload.BatchText{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status %d", resp.StatusCode)
	}
	if resp, _ := postBatch(workload.BatchText{Jobs: []workload.JobText{{}}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("graphless batch member status %d", resp.StatusCode)
	}
}

// TestBatchBackpressureRetryAfter checks that an oversized batch is shed
// whole, with a Retry-After derived from the step pace.
func TestBatchBackpressureRetryAfter(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.MaxInFlight = 3
	cfg.StepEvery = 1700 * time.Millisecond // ceil → 2s
	_, ts := startHTTPClock(t, cfg, false)

	jobs := make([]workload.JobText, 4) // exceeds the bound outright
	for i := range jobs {
		jobs[i] = workload.JobText{Graph: dag.Singleton(1, 1)}
	}
	raw, _ := json.Marshal(workload.BatchText{Jobs: jobs})
	resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
	// Retry-After carries the step-pace base (ceil(1.7s) = 2) plus the
	// deterministic 0–3 s round-robin jitter.
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 2 || secs > 5 {
		t.Errorf("Retry-After %q, want 2..5 (ceil of 1.7s step + jitter)", resp.Header.Get("Retry-After"))
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		step time.Duration
		want int64
	}{
		{0, 1},                       // free-running: floor
		{10 * time.Millisecond, 1},   // sub-second: floor
		{time.Second, 1},             // exact
		{1500 * time.Millisecond, 2}, // ceil
		{3 * time.Second, 3},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.step); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.step, got, c.want)
		}
	}
}

// TestRetryAfterJitterBounds pins the jitter contract: successive shed
// responses cycle deterministically through base..base+3 seconds — every
// value stays inside the four-second window and the sequence actually
// varies (no thundering-herd single value).
func TestRetryAfterJitterBounds(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.StepEvery = 1700 * time.Millisecond // base = ceil(1.7s) = 2
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	seen := map[string]int{}
	for i := 0; i < 8; i++ {
		v := svc.retryAfterValue()
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 2 || secs > 5 {
			t.Fatalf("retryAfterValue() = %q, want 2..5", v)
		}
		seen[v]++
	}
	if len(seen) != 4 {
		t.Fatalf("8 draws hit %d distinct values %v, want the full 4-value cycle", len(seen), seen)
	}
	for v, n := range seen {
		if n != 2 {
			t.Fatalf("value %s drawn %d times in 8, want exactly 2 (round-robin)", v, n)
		}
	}
}

// TestSingleShardParity pins the -shards=1 compatibility contract beyond
// what the unmodified legacy tests cover: IDs are raw engine IDs and the
// SSE wire format carries no shard field.
func TestSingleShardParity(t *testing.T) {
	svc, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 3; want++ {
		id, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1), Release: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("single-shard id %d, want %d", id, want)
		}
	}
	ev, _ := json.Marshal(Event{Step: 1, Executed: []int{1}, Active: 1})
	if bytes.Contains(ev, []byte("shard")) {
		t.Errorf("shard-0 event JSON leaks a shard field: %s", ev)
	}
	st := svc.Stats()
	if st.Shards != 1 || st.MaxInFlight != 256 {
		t.Errorf("single-shard stats %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

// TestFleetAdmissionSharing checks the MaxInFlight split: base slots for
// every shard, the remainder going one each to the lowest-numbered
// shards, so the fleet bound reported in Stats equals MaxInFlight exactly
// (a 3-shard fleet with MaxInFlight 4 used to admit 6 via per-shard
// ceiling).
func TestFleetAdmissionSharing(t *testing.T) {
	cfg := poolConfig(3, PlaceRoundRobin, 1, 1)
	cfg.MaxInFlight = 4 // → shares of 2,1,1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 1, 1} {
		if got := svc.shards[i].maxInFlight; got != want {
			t.Errorf("shard %d share %d, want %d", i, got, want)
		}
	}
	if got := svc.Stats().MaxInFlight; got != 4 {
		t.Errorf("fleet MaxInFlight %d, want 4 (shares must sum to the bound)", got)
	}
	// Frozen clock: round-robin lands submissions 0,1,2,3 on shards
	// 0,1,2,0 — exactly filling the 2,1,1 shares — then every further
	// submission is shed.
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1), Release: 1 << 30}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1), Release: 1 << 30}); err == nil {
		t.Error("submission beyond the fleet bound accepted")
	}
	st := svc.Stats()
	if st.InFlight != 4 || st.Rejected != 1 {
		t.Errorf("stats %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

// TestShardIsolationOnFailure checks that one shard's fatal scheduler
// error does not stop the others: the broken shard reports through Err,
// the healthy shards keep completing work.
func TestShardIsolationOnFailure(t *testing.T) {
	cfg := poolConfig(2, PlaceRoundRobin, 1, 1)
	cfg.Sim.MaxSteps = 8
	calls := 0
	cfg.NewScheduler = func() sched.Scheduler {
		calls++
		if calls == 1 {
			return idleScheduler{} // shard 0 never allots → runaway guard
		}
		return core.NewKRAD(1)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	// Round-robin: first submission lands on shard 0 (broken), second on
	// shard 1 (healthy).
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if ShardOf(id2) != 1 {
		t.Fatalf("second job on shard %d, want 1", ShardOf(id2))
	}
	waitFor(t, "healthy shard completes", func() bool {
		st, _ := svc.Job(id2)
		return st.Phase == sim.JobDone
	})
	waitFor(t, "broken shard reports", func() bool { return svc.Err() != nil })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPoolMetricsExposition checks /metrics on a multi-shard service:
// fleet totals keep their pre-sharding names, per-shard series appear
// with shard labels, and the merged histogram count matches the fleet
// completion counter.
func TestPoolMetricsExposition(t *testing.T) {
	cfg := poolConfig(2, PlaceRoundRobin, 2, 2, 2)
	svc, ts := startHTTP(t, cfg)
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := svc.Submit(sim.JobSpec{Graph: dag.ForkJoin(2, 3, 1, 2, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "completions", func() bool { return svc.Stats().Completed == n })

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"krad_shards 2",
		fmt.Sprintf("krad_jobs_completed_total %d", n),
		fmt.Sprintf("krad_response_steps_count %d", n),
		`krad_shard_steps_total{shard="0"}`,
		`krad_shard_steps_total{shard="1"}`,
		`krad_shard_jobs_completed_total{shard="0"} 3`,
		`krad_shard_jobs_completed_total{shard="1"} 3`,
		`krad_shard_queue_depth{shard="0"} 0`,
		`krad_utilization{category="2"}`,
		`krad_engine_leap_steps_total`,
		`krad_engine_leap_blocked_total{reason="noleap"}`,
		`krad_engine_leap_blocked_total{reason="overload"}`,
		`krad_engine_leap_blocked_total{reason="dag-frontier"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if n := strings.Count(text, "# HELP krad_engine_leap_blocked_total"); n != 1 {
		t.Errorf("leap_blocked HELP emitted %d times, want 1", n)
	}
}
