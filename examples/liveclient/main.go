// Liveclient demonstrates the online scheduler service: it submits a
// trickle of randomly generated jobs to a kradd server over HTTP while
// the virtual clock runs, follows the SSE event stream, and reports each
// job's response time and slowdown against its solo execution bound.
//
// By default it self-hosts a server in-process so the demo is one command:
//
//	go run ./examples/liveclient
//
// Point it at a running daemon instead with:
//
//	go run ./cmd/kradd -addr :8080 -step 10ms &
//	go run ./examples/liveclient -addr http://localhost:8080
//
// With -burst the client submits every job up front through
// POST /v1/jobs/batch (one batch per shard, so round-robin placement
// spreads them evenly), then measures how fast the fleet drains the
// backlog. Against a self-hosted server this demonstrates the sharding
// payoff directly:
//
//	go run ./examples/liveclient -burst -jobs 64 -shards 1
//	go run ./examples/liveclient -burst -jobs 64 -shards 4
//
// In every mode the client audits itself before exiting: each submitted
// job ID is fetched back and must be in state "done". A silently lost
// submission makes the process exit non-zero.
//
// With -family the client picks the runtime family of the generated
// workload: "dag" (the default K-DAG mix), "moldable" (moldable tasks
// with concave speedup curves, submitted as {"mold": ...} bodies), or
// "mixed" (half each, exercising one engine over both families). In the
// moldable modes the client first demonstrates the server's located
// validation: it submits a deliberately malformed speedup curve and
// prints the 400 the server answers with before running the real
// workload:
//
//	go run ./examples/liveclient -family moldable
//	go run ./examples/liveclient -family mixed -jobs 24
//
// With -tenants N the client spreads submissions across N synthetic
// tenants via the X-Krad-Tenant header (a self-hosted server comes up
// with fairness enabled, so the tenants resolve to dynamically created
// equal-weight leaves). Submissions a tenant's fair share sheds with 429
// are retried after the server's Retry-After hint — separately from 503
// fleet backpressure, which means the whole service is full rather than
// one tenant over quota — and the final report breaks admitted, shed and
// retry counts out per tenant:
//
//	go run ./examples/liveclient -tenants 3 -jobs 24
//	go run ./examples/liveclient -burst -tenants 2 -jobs 64
//
// Submissions that bounce with 503 (admission backpressure, or a daemon
// whose journal disk has degraded) are retried: the client honors the
// server's Retry-After hint, layered under capped exponential backoff
// with jitter so a fleet of clients doesn't hammer in lockstep.
// Transport-level failures — connection refused or reset, the signature
// of a daemon restarting or a replication failover in progress — are
// retried on the same backoff but reported separately from 503s, so a
// failover experiment shows its reconnect story distinctly from
// backpressure. -max-retry-time caps the total wall clock any one
// request may spend retrying before the client gives up.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/metrics"
	"krad/internal/moldable"
	"krad/internal/sched"
	"krad/internal/server"
	"krad/internal/sim"
	"krad/internal/workload"
)

const (
	demoK = 2
)

var demoCaps = []int{4, 2}

func main() {
	log.SetFlags(0)
	log.SetPrefix("liveclient: ")
	var (
		addrFlag   = flag.String("addr", "", "kradd base URL (empty = self-host an in-process server)")
		jobsFlag   = flag.Int("jobs", 12, "number of jobs to submit")
		gapFlag    = flag.Duration("gap", 150*time.Millisecond, "wall-clock gap between submissions (trickle mode)")
		seedFlag   = flag.Int64("seed", 7, "workload seed")
		shardsFlag = flag.Int("shards", 1, "self-host: number of engine shards")
		placeFlag  = flag.String("placement", server.PlaceRoundRobin, "self-host: shard placement policy")
		burstFlag  = flag.Bool("burst", false, "submit all jobs up front via /v1/jobs/batch and measure drain throughput")
		tenantFlag = flag.Int("tenants", 0, "spread submissions across N synthetic tenants via the X-Krad-Tenant header (0 = no header; self-host enables fairness)")
		familyFlag = flag.String("family", "dag", "runtime family of the generated workload: dag, moldable or mixed")
		retryFlag  = flag.Duration("max-retry-time", 30*time.Second, "total wall clock one request may spend retrying 503/429/connection errors (0 = retry-count limit only)")
	)
	flag.Parse()
	maxRetryTime = *retryFlag

	base := *addrFlag
	if base == "" {
		// The trickle demo paces the clock so submissions interleave with
		// execution; the burst demo free-runs to measure raw throughput.
		step := 5 * time.Millisecond
		if *burstFlag {
			step = 0
		}
		base = selfHost(*shardsFlag, *placeFlag, step, *tenantFlag > 0)
		fmt.Printf("self-hosted kradd at %s (K=%d caps=%v, k-rad, shards=%d placement=%s fairness=%t)\n\n",
			base, demoK, demoCaps, *shardsFlag, *placeFlag, *tenantFlag > 0)
	}
	base = strings.TrimRight(base, "/")

	// The machine shape comes from the server, not from assumptions.
	stats, err := fetchStats(base)
	if err != nil {
		log.Fatalf("cannot reach %s: %v (start one with: go run ./cmd/kradd)", base, err)
	}
	fmt.Printf("server: scheduler=%s K=%d caps=%v shards=%d placement=%s\n",
		stats.Scheduler, stats.K, stats.Caps, stats.Shards, stats.Placement)

	// Generate the job mix client-side; the server only sees wire specs
	// (graph bodies for DAG jobs, moldable specs for moldable jobs).
	specs, err := generateWorkload(*familyFlag, stats.K, *jobsFlag, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}

	// Before the real workload, the moldable modes demonstrate the
	// server-side validation: a malformed speedup curve must bounce with a
	// located 400 and never reach the engine.
	if *familyFlag != "dag" {
		demoBadCurve(base)
	}

	var ids []int
	if *burstFlag {
		ids = runBurst(base, stats, specs, *tenantFlag)
	} else {
		ids = runTrickle(base, specs, *gapFlag, *tenantFlag)
	}

	// Audit every submission: fetch each ID back and require it done. A
	// job the server handed an ID for but never finished is a lost
	// submission — report it and exit non-zero.
	perShard := make(map[int]int)
	lost := 0
	for _, id := range ids {
		st, err := fetchJob(base, id)
		switch {
		case err != nil:
			log.Printf("job %d: %v", id, err)
			lost++
		case st.State != "done":
			log.Printf("job %d: state %q, want done", id, st.State)
			lost++
		default:
			perShard[server.ShardOf(id)]++
		}
	}
	shards := stats.Shards
	if shards < 1 {
		shards = 1
	}
	fmt.Println("\nper-shard completions:")
	for s := 0; s < shards; s++ {
		fmt.Printf("  shard %d: %3d jobs\n", s, perShard[s])
	}
	if retries503 > 0 || retriesConn > 0 {
		fmt.Printf("\nsubmission retries: %d × 503 backpressure (Retry-After honored), %d × connection refused/reset (daemon restart or failover)\n",
			retries503, retriesConn)
	} else {
		fmt.Println("\nsubmission retries: 0")
	}
	fmt.Printf("submission latency: %s\n", submitLat.Report())
	if *tenantFlag > 0 {
		fmt.Println("\nper-tenant admission (shed = 429 fair-share bounces, each retried):")
		for i := 0; i < *tenantFlag; i++ {
			c := tenantCount(tenantName(i))
			fmt.Printf("  %-8s admitted %3d  shed %3d  retries %3d\n", tenantName(i), c.admitted, c.shed, c.retries)
		}
	}
	if lost > 0 {
		log.Fatalf("%d of %d submissions lost", lost, len(ids))
	}

	if !*burstFlag {
		report(base, stats, ids)
	}
}

// runTrickle submits jobs one at a time with a wall-clock gap, watching
// the SSE stream for their completions. With tenants > 0 submissions
// rotate across the synthetic tenant headers.
func runTrickle(base string, specs []sim.JobSpec, gap time.Duration, tenants int) []int {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan server.Event, 1024)
	go streamEvents(ctx, base, events)

	ids := make([]int, 0, len(specs))
	for i, spec := range specs {
		tenant := ""
		if tenants > 0 {
			tenant = tenantName(i % tenants)
		}
		id, err := submit(base, tenant, spec)
		if err != nil {
			log.Fatalf("submit job %d: %v", i, err)
		}
		ids = append(ids, id)
		fam, tasks, span, work := describeSpec(spec)
		fmt.Printf("submitted job %2d  family=%-8s tasks=%-3d span=%-3d work=%v%s\n",
			id, fam, tasks, span, work, tenantSuffix(tenant))
		time.Sleep(gap)
	}

	// Wait for every submitted job to complete, watching the stream.
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	deadline := time.After(30 * time.Second)
	var steps int
	for len(want) > 0 {
		select {
		case ev := <-events:
			steps++
			for _, id := range ev.Completed {
				if want[id] {
					delete(want, id)
					fmt.Printf("  step %4d: job %d done (%d still running)\n", ev.Step, id, len(want))
				}
			}
		case <-deadline:
			log.Fatalf("timed out; %d jobs unfinished", len(want))
		}
	}
	fmt.Printf("\nall %d jobs completed (watched %d step events)\n", len(ids), steps)
	return ids
}

// runBurst submits the whole workload at once — one batch per shard via
// POST /v1/jobs/batch (one batch per tenant instead when tenants > 0,
// since the tenant header covers the whole request) — then polls
// aggregate stats until the fleet has drained the backlog, reporting
// virtual steps per wall-clock second.
func runBurst(base string, before server.Stats, specs []sim.JobSpec, tenants int) []int {
	shards := before.Shards
	if shards < 1 {
		shards = 1
	}
	batches := shards
	if tenants > 0 {
		batches = tenants
	}
	var ids []int
	for b := 0; b < batches; b++ {
		var batch []sim.JobSpec
		for i := b; i < len(specs); i += batches {
			batch = append(batch, specs[i])
		}
		if len(batch) == 0 {
			continue
		}
		tenant := ""
		if tenants > 0 {
			tenant = tenantName(b)
		}
		batchIDs, shard, err := submitBatch(base, tenant, batch)
		if err != nil {
			log.Fatalf("batch %d: %v", b, err)
		}
		fmt.Printf("batch %d → shard %d (%d jobs)%s\n", b, shard, len(batchIDs), tenantSuffix(tenant))
		ids = append(ids, batchIDs...)
	}

	start := time.Now()
	deadline := start.Add(60 * time.Second)
	cur := before
	for cur.Completed-before.Completed < int64(len(ids)) {
		if time.Now().After(deadline) {
			log.Printf("timed out: %d/%d completed", cur.Completed-before.Completed, len(ids))
			break
		}
		time.Sleep(10 * time.Millisecond)
		var err error
		if cur, err = fetchStats(base); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	steps := cur.Steps - before.Steps
	fmt.Printf("\ndrained %d jobs in %v — %d virtual steps, %.0f steps/s aggregate\n",
		len(ids), elapsed.Round(time.Millisecond), steps, float64(steps)/elapsed.Seconds())
	return ids
}

// report prints each job's response time against its solo lower bound
// max(span, max_α ceil(work_α / P_α)) — the best any schedule could do
// for that job alone on one shard's machine.
func report(base string, stats server.Stats, ids []int) {
	type row struct {
		id, solo       int64
		family         string
		response, slow float64
	}
	rows := make([]row, 0, len(ids))
	for _, id := range ids {
		st, err := fetchJob(base, id)
		if err != nil {
			log.Fatal(err)
		}
		solo := int64(st.Span)
		for a, w := range st.Work {
			if lb := int64((w + stats.Caps[a] - 1) / stats.Caps[a]); lb > solo {
				solo = lb
			}
		}
		rows = append(rows, row{
			id: int64(id), solo: solo, family: st.Family,
			response: float64(st.Response),
			slow:     float64(st.Response) / float64(solo),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].slow > rows[j].slow })
	fmt.Println("\njob  family    response  solo-bound  slowdown")
	for _, r := range rows {
		fmt.Printf("%3d  %-8s  %8.0f  %10d  %7.2fx\n", r.id, r.family, r.response, r.solo, r.slow)
	}
}

// selfHost starts an in-process kradd on a loopback port and returns its
// base URL. Each shard gets its own K-RAD instance — schedulers are
// stateful and must not be shared across engines. With fair set, the
// server gates admission by fair share: the client's synthetic tenant
// headers resolve to dynamically created equal-weight leaves.
func selfHost(shards int, placement string, stepEvery time.Duration, fair bool) string {
	var fairCfg *fairshare.Config
	if fair {
		fairCfg = &fairshare.Config{}
	}
	svc, err := server.New(server.Config{
		Sim: sim.Config{
			// The floor layer makes the self-hosted server moldable-capable;
			// for pure-DAG workloads it is a transparent pass-through.
			K: demoK, Caps: demoCaps, Scheduler: sched.WithFloors(core.NewKRAD(demoK)),
			Pick: dag.PickFIFO, ValidateAllotments: true,
		},
		StepEvery:    stepEvery,
		Shards:       shards,
		Placement:    placement,
		NewScheduler: func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(demoK)) },
		Fairness:     fairCfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, svc.Handler()) }()
	return "http://" + ln.Addr().String()
}

// jobStatus mirrors the GET /v1/jobs/{id} wire form.
type jobStatus struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	Family   string `json:"family"`
	Release  int64  `json:"release"`
	Response int64  `json:"response"`
	Work     []int  `json:"work"`
	Span     int    `json:"span"`
}

// retries503 counts submissions that bounced with 503 and were retried;
// retriesConn counts transport-level retries (connection refused or
// reset — a daemon restarting or failing over, not shedding load).
// Submissions run on one goroutine, so plain counters suffice.
var (
	retries503   int
	retriesConn  int
	maxRetryTime time.Duration
	// submitLat is the wall-clock latency histogram of accepted
	// submission requests — the same log-bucketed histogram kradreplay
	// uses (internal/metrics.Hist), so a trickle demo and a
	// million-job replay report comparable percentiles.
	submitLat metrics.Hist
)

// tenantCounts tracks one synthetic tenant's admission outcomes: jobs
// admitted, 429 fair-share bounces (each retried), and total retry waits.
type tenantCounts struct {
	admitted, shed, retries int
}

var tenantCounters = map[string]*tenantCounts{}

// tenantCount returns tenant's counter cell, creating it on first use.
func tenantCount(tenant string) *tenantCounts {
	c, ok := tenantCounters[tenant]
	if !ok {
		c = &tenantCounts{}
		tenantCounters[tenant] = c
	}
	return c
}

// tenantName names synthetic tenant i; the value is a queue-tree path.
func tenantName(i int) string { return fmt.Sprintf("team-%d", i) }

// tenantSuffix formats the report tag appended to submission lines.
func tenantSuffix(tenant string) string {
	if tenant == "" {
		return ""
	}
	return "  tenant=" + tenant
}

// isConnErr reports a transport-level failure worth retrying: the daemon
// refused the connection (restarting, or a failover target not serving
// yet) or cut it mid-request (reset/EOF — the process died under us).
// These are distinct from 503, which is a healthy daemon shedding load.
func isConnErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// postRetry posts a JSON body (tagged with the tenant header when tenant
// is non-empty), retrying 503 and 429 responses plus connection
// refused/reset transport errors. 503 is fleet backpressure — the whole
// service is full or degraded; 429 means this tenant exhausted its fair
// share while the service still has capacity, so the bounce is charged
// to the tenant's shed count before retrying; connection errors mean the
// daemon itself is down or mid-failover and are counted apart so the
// report separates the reconnect story from backpressure. Each retry
// waits at least the server's Retry-After hint (whole seconds on the
// wire) and at least the current backoff step — doubling from 25ms,
// capped at 2s — plus up to 50% jitter so concurrent clients
// desynchronize. Retrying stops at maxRetries attempts or when the next
// wait would cross -max-retry-time, whichever comes first. Any other
// status or error, success or failure, is returned to the caller as-is.
func postRetry(url, tenant string, body []byte) (*http.Response, error) {
	backoff := 25 * time.Millisecond
	const (
		maxBackoff = 2 * time.Second
		maxRetries = 20
	)
	start := time.Now()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(server.TenantHeader, tenant)
		}
		attemptStart := time.Now()
		resp, err := http.DefaultClient.Do(req)
		status := 0
		retryAfter := ""
		switch {
		case err == nil && resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusTooManyRequests:
			submitLat.Observe(time.Since(attemptStart).Seconds())
			return resp, nil
		case err == nil:
			status = resp.StatusCode
			retryAfter = resp.Header.Get("Retry-After")
			resp.Body.Close()
		case isConnErr(err):
			// Retryable transport failure; falls through to the backoff.
		default:
			return nil, err
		}
		if attempt == maxRetries {
			if err != nil {
				return nil, fmt.Errorf("giving up after %d retries: %w", maxRetries, err)
			}
			return nil, fmt.Errorf("giving up after %d retries: server still answering %d", maxRetries, status)
		}
		wait := backoff
		if secs, aerr := strconv.Atoi(retryAfter); aerr == nil && secs > 0 {
			if hint := time.Duration(secs) * time.Second; hint > wait {
				wait = hint
			}
		}
		wait += time.Duration(rand.Int63n(int64(wait)/2 + 1))
		if maxRetryTime > 0 && time.Since(start)+wait > maxRetryTime {
			if err != nil {
				return nil, fmt.Errorf("-max-retry-time %v exhausted after %d retries: %w", maxRetryTime, attempt+1, err)
			}
			return nil, fmt.Errorf("-max-retry-time %v exhausted after %d retries: server still answering %d", maxRetryTime, attempt+1, status)
		}
		switch {
		case err != nil:
			retriesConn++
		case status == http.StatusTooManyRequests:
			tenantCount(tenant).shed++
		default:
			retries503++
		}
		if tenant != "" {
			tenantCount(tenant).retries++
		}
		time.Sleep(wait)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// generateWorkload builds the client-side job mix for the requested
// runtime family. "mixed" interleaves DAG and moldable jobs so one engine
// step loop runs both families side by side.
func generateWorkload(family string, k, jobs int, seed int64) ([]sim.JobSpec, error) {
	dagMix := func(n int, seed int64) ([]sim.JobSpec, error) {
		return workload.Mix{K: k, Jobs: n, MinSize: 4, MaxSize: 24, Seed: seed}.Generate()
	}
	moldMix := func(n int, seed int64) []sim.JobSpec {
		return moldable.Generate(moldable.GenOpts{
			K: k, Jobs: n, MinTasks: 4, MaxTasks: 12, MaxWork: 24, MaxProcs: 6, Seed: seed,
		})
	}
	switch family {
	case "dag":
		return dagMix(jobs, seed)
	case "moldable":
		return moldMix(jobs, seed), nil
	case "mixed":
		graphs, err := dagMix((jobs+1)/2, seed)
		if err != nil {
			return nil, err
		}
		molds := moldMix(jobs/2, seed+1)
		specs := make([]sim.JobSpec, 0, jobs)
		for i := 0; len(specs) < jobs; i++ {
			if i < len(graphs) {
				specs = append(specs, graphs[i])
			}
			if i < len(molds) {
				specs = append(specs, molds[i])
			}
		}
		return specs, nil
	default:
		return nil, fmt.Errorf("unknown -family %q (want dag, moldable or mixed)", family)
	}
}

// describeSpec summarizes a job spec for the submission log, working for
// both wire forms: graph-backed specs and moldable sources.
func describeSpec(spec sim.JobSpec) (family string, tasks, span int, work []int) {
	if spec.Graph != nil {
		return "dag", spec.Graph.NumTasks(), spec.Graph.Span(), spec.Graph.WorkVector()
	}
	src := spec.Source
	return sim.FamilyOf(src).String(), src.TotalTasks(), src.Span(), src.WorkVector()
}

// jobBody builds the POST /v1/jobs wire body for a spec: {"graph": ...}
// for DAG jobs, {"mold": ...} for moldable jobs.
func jobBody(spec sim.JobSpec) (map[string]any, error) {
	body := map[string]any{}
	if spec.Release != 0 {
		body["release"] = spec.Release
	}
	switch {
	case spec.Graph != nil:
		body["graph"] = spec.Graph
	default:
		mj, ok := spec.Source.(*moldable.Job)
		if !ok {
			return nil, fmt.Errorf("job source %T has no wire encoding", spec.Source)
		}
		body["mold"] = mj.Spec()
	}
	return body, nil
}

// demoBadCurve submits a deliberately malformed moldable spec — a
// super-linear power-law curve — and shows the located 400 the server
// answers with. Anything but a 400 is a bug worth dying over.
func demoBadCurve(base string) {
	bad := moldable.Spec{K: demoK, Name: "bad-curve", Tasks: []moldable.TaskSpec{
		{Cat: 1, Work: 8, Max: 4, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 1.7}},
	}}
	body, err := json.Marshal(map[string]any{"mold": bad})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := postRetry(base+"/v1/jobs", "", body)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatalf("bad-curve demo: decoding response: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		log.Fatalf("bad-curve demo: status %s, want 400 (%s)", resp.Status, out.Error)
	}
	fmt.Printf("validation demo: malformed curve rejected with 400: %s\n\n", out.Error)
}

func submit(base, tenant string, spec sim.JobSpec) (int, error) {
	payload, err := jobBody(spec)
	if err != nil {
		return -1, err
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return -1, err
	}
	resp, err := postRetry(base+"/v1/jobs", tenant, body)
	if err != nil {
		return -1, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return -1, fmt.Errorf("status %s", resp.Status)
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return -1, err
	}
	if tenant != "" {
		tenantCount(tenant).admitted++
	}
	return out.ID, nil
}

// submitBatch posts one all-or-nothing batch; the server admits every
// job onto a single shard under one engine lock.
func submitBatch(base, tenant string, specs []sim.JobSpec) ([]int, int, error) {
	jobs := make([]map[string]any, len(specs))
	for i, spec := range specs {
		payload, err := jobBody(spec)
		if err != nil {
			return nil, 0, err
		}
		jobs[i] = payload
	}
	body, err := json.Marshal(map[string]any{"jobs": jobs})
	if err != nil {
		return nil, 0, err
	}
	resp, err := postRetry(base+"/v1/jobs/batch", tenant, body)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, 0, fmt.Errorf("status %s", resp.Status)
	}
	var out struct {
		IDs   []int `json:"ids"`
		Shard int   `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, err
	}
	if len(out.IDs) != len(specs) {
		return nil, 0, fmt.Errorf("submitted %d jobs, got %d ids", len(specs), len(out.IDs))
	}
	if tenant != "" {
		tenantCount(tenant).admitted += len(out.IDs)
	}
	return out.IDs, out.Shard, nil
}

func fetchJob(base string, id int) (jobStatus, error) {
	var st jobStatus
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", base, id))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("job %d: status %s", id, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func fetchStats(base string) (server.Stats, error) {
	var out struct {
		Stats server.Stats `json:"stats"`
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return out.Stats, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Stats, err
}

// streamEvents is a minimal SSE client: it forwards each "data:" payload
// on /v1/events as a decoded server.Event.
func streamEvents(ctx context.Context, base string, out chan<- server.Event) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("event stream: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		select {
		case out <- ev:
		case <-ctx.Done():
			return
		}
	}
}
