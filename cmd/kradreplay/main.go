// Kradreplay is the closed-loop load generator for kradd: it replays an
// SWF archive trace or a synthetic job stream against a live daemon over
// HTTP and reports admission latency percentiles, drain throughput and
// backpressure behavior as a JSON document.
//
// Modes:
//
//	closed loop (default): -workers W submitters each keep exactly one
//	    request in flight — offered load adapts to what the daemon
//	    sustains, the honest way to measure a saturated submit path.
//	open loop (-rate R): submissions are paced at R jobs/s (poisson or
//	    uniform gaps via -arrivals) regardless of responses; latency
//	    then includes queueing delay when the daemon falls behind.
//
// Workload sources:
//
//	-trace log.swf   stream records out of a Standard Workload Format
//	    log (Parallel Workloads Archive); each becomes a rigid job in
//	    a category assigned by partition modulo -k.
//	-jobs N          without -trace: N synthetic jobs drawn from the
//	    -mix of runtime families (rigid, dag, mold).
//
// Backpressure: 429 (tenant over fair share) and 503 (queue full,
// journal degraded) responses are counted, the server's Retry-After
// hint honored (capped by -retry-cap), and the job retried. Transport
// errors — connection refused or reset, EOF: a daemon restarting or a
// failover in progress — are retried on the same schedule and counted
// apart as conn_retries. The final report separates accepted, shed and
// errored submissions, and the process exits 1 when any submission was
// lost or the drain stalled.
//
// With -tenants N batches rotate over N synthetic tenants (X-Krad-Tenant:
// team-0 … team-<N-1>; pair with kradd -fairness) and the report breaks
// accepted and 429-shed counts out per tenant.
//
// Examples:
//
//	kradd -addr :8080 -caps 16,16,16 -queue 100000 &
//	kradreplay -addr http://localhost:8080 -jobs 1000000 -workers 16
//	kradreplay -addr http://localhost:8080 -trace kth_sp2.swf -timescale 60
//	kradreplay -addr http://localhost:8080 -jobs 50000 -rate 5000 -arrivals poisson
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/server"
	"krad/internal/workload"
)

type options struct {
	addr     string
	trace    string
	jobs     int
	scale    int64
	maxProcs int
	mix      string
	workers  int
	rate     float64
	arrivals string
	batch    int
	seed     int64
	skew     string
	skewKeys int
	tenants  int
	retryCap time.Duration
	drain    bool
	drainMax time.Duration
	out      string
	quiet    bool
}

// report is the JSON document kradreplay emits.
type report struct {
	Addr        string  `json:"addr"`
	Source      string  `json:"source"`
	Mode        string  `json:"mode"`
	Workers     int     `json:"workers"`
	Batch       int     `json:"batch"`
	TargetRate  float64 `json:"target_rate,omitempty"`
	Skew        string  `json:"skew,omitempty"`
	Jobs        int64   `json:"jobs"`
	Accepted    int64   `json:"accepted"`
	Shed429     int64   `json:"shed_429"`
	Shed503     int64   `json:"shed_503"`
	ConnRetries int64   `json:"conn_retries"`
	Errors      int64   `json:"errors"`
	WallSeconds float64 `json:"wall_seconds"`
	SubmitRate  float64 `json:"submit_jobs_per_sec"`

	Latency metrics.LatencyReport `json:"admit_latency"`

	Tenants []tenantReport `json:"tenants,omitempty"`

	Drain   *drainReport  `json:"drain,omitempty"`
	Journal *journalDelta `json:"journal,omitempty"`
}

// tenantReport is one -tenants tenant's share of accepted and shed_429.
type tenantReport struct {
	Tenant   string `json:"tenant"`
	Accepted int64  `json:"accepted"`
	Shed429  int64  `json:"shed_429"`
}

type drainReport struct {
	Jobs        int64   `json:"jobs"`
	Seconds     float64 `json:"seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	Steps       int64   `json:"virtual_steps"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// journalDelta is the fsync overhead the run imposed on the daemon,
// from /healthz journal stats before and after.
type journalDelta struct {
	Syncs        int64   `json:"syncs"`
	SyncSeconds  float64 `json:"sync_seconds"`
	SyncsPerKJob float64 `json:"syncs_per_1k_jobs"`
	// SyncShare is fsync seconds over the run's wall seconds: the
	// fraction of real time the journal spent inside fsync.
	SyncShare float64 `json:"sync_share_of_wall"`
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "http://localhost:8080", "kradd base URL")
	flag.StringVar(&o.trace, "trace", "", "SWF trace to replay (empty = synthetic stream)")
	flag.IntVar(&o.jobs, "jobs", 10000, "jobs to submit (with -trace: cap, 0 = whole log)")
	flag.Int64Var(&o.scale, "timescale", 60, "SWF seconds per virtual step")
	flag.IntVar(&o.maxProcs, "max-procs", 8, "cap per-job processor demand (0 = none)")
	flag.StringVar(&o.mix, "mix", "rigid=1", "synthetic family mix, e.g. rigid=0.8,dag=0.1,mold=0.1")
	flag.IntVar(&o.workers, "workers", 8, "concurrent submitters")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop target rate, jobs/s (0 = closed loop)")
	flag.StringVar(&o.arrivals, "arrivals", "poisson", "open-loop gap distribution: poisson or uniform")
	flag.IntVar(&o.batch, "batch", 1, "jobs per POST (>1 uses /v1/jobs/batch)")
	flag.Int64Var(&o.seed, "seed", 1, "synthetic workload seed")
	flag.StringVar(&o.skew, "skew", "", "skewed placement keys per batch: zipf (polynomial key frequencies), hot (90% one key), empty = no placement key; pair with kradd -placement hash")
	flag.IntVar(&o.skewKeys, "skew-keys", 64, "distinct placement keys -skew draws from")
	flag.IntVar(&o.tenants, "tenants", 0, "rotate batches over N synthetic tenants via the X-Krad-Tenant header (0 = no header; pair with kradd -fairness)")
	flag.DurationVar(&o.retryCap, "retry-cap", 2*time.Second, "cap on honoring Retry-After hints")
	flag.BoolVar(&o.drain, "drain", true, "wait for the daemon to drain and measure throughput")
	flag.DurationVar(&o.drainMax, "drain-timeout", 10*time.Minute, "give up draining after this long without progress")
	flag.StringVar(&o.out, "out", "", "write the JSON report here (empty = stdout)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress progress logging")
	flag.Parse()

	// The report comes first, the verdict second: a run that lost
	// submissions or stalled draining still says what it measured.
	rep, err := run(o)
	if rep != nil {
		if werr := writeReport(rep, o.out); werr != nil {
			log.Fatal(werr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if rep.Errors > 0 {
		log.Fatalf("kradreplay: %d of %d submissions lost", rep.Errors, rep.Jobs)
	}
}

// writeReport writes rep as indented JSON to path, or to stdout without one.
func writeReport(rep *report, path string) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// counters is what the submit workers tally; tenants has one cell per
// -tenants tenant.
type counters struct {
	accepted, shed429, shed503, connRetries, errors atomic.Int64
	tenants                                         []tenantTally
}

type tenantTally struct{ accepted, shed429 atomic.Int64 }

// run drives one replay. A drain that stalls returns the report so far
// together with the error.
func run(o options) (*report, error) {
	if o.workers < 1 || o.batch < 1 || o.tenants < 0 {
		return nil, fmt.Errorf("kradreplay: need workers ≥ 1, batch ≥ 1 and tenants ≥ 0")
	}
	before, status, err := fetchHealth(o.addr)
	if err != nil {
		return nil, fmt.Errorf("kradreplay: daemon not reachable: %w", err)
	}
	if before.K < 1 {
		return nil, fmt.Errorf("kradreplay: daemon not ready: /healthz says %q and carries no stats yet", status)
	}

	src, name, err := newSource(o, before.K)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Addr: o.addr, Source: name, Workers: o.workers, Batch: o.batch,
		Mode: "closed-loop",
	}
	if o.rate > 0 {
		rep.Mode = "open-loop/" + o.arrivals
		rep.TargetRate = o.rate
	}

	keyGen, err := newKeyGen(o.skew, o.seed+2, o.skewKeys)
	if err != nil {
		return nil, err
	}
	if o.skew != "" && o.skew != "none" {
		rep.Skew = o.skew
	}

	jobs := make(chan workItem, o.workers*2)
	go feed(o, src, keyGen, jobs)

	hists := make([]metrics.Hist, o.workers) // one per worker, merged below
	c := &counters{tenants: make([]tenantTally, o.tenants)}
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	for w := range hists {
		wg.Add(1)
		go func(hist *metrics.Hist) {
			defer wg.Done()
			for item := range jobs {
				submitBatch(o, client, item, hist, c)
			}
		}(&hists[w])
	}
	wg.Wait()
	var hist metrics.Hist
	for w := range hists {
		hist.Merge(&hists[w])
	}
	wall := time.Since(start)

	rep.Accepted = c.accepted.Load()
	rep.Shed429 = c.shed429.Load()
	rep.Shed503 = c.shed503.Load()
	rep.ConnRetries = c.connRetries.Load()
	rep.Errors = c.errors.Load()
	rep.Jobs = rep.Accepted + rep.Errors
	for i := range c.tenants {
		rep.Tenants = append(rep.Tenants, tenantReport{
			Tenant: tenantName(i), Accepted: c.tenants[i].accepted.Load(), Shed429: c.tenants[i].shed429.Load(),
		})
	}
	rep.WallSeconds = wall.Seconds()
	if wall > 0 {
		rep.SubmitRate = float64(rep.Accepted) / wall.Seconds()
	}
	rep.Latency = hist.Report()
	if !o.quiet {
		log.Printf("submitted %d jobs in %v (%.0f jobs/s): %s; shed 429=%d 503=%d conn-retries=%d errors=%d",
			rep.Accepted, wall.Round(time.Millisecond), rep.SubmitRate, rep.Latency, rep.Shed429, rep.Shed503, rep.ConnRetries, rep.Errors)
	}

	if o.drain && rep.Accepted > 0 {
		dr, err := waitDrain(o, before, rep.Accepted, start)
		if err != nil {
			return rep, err
		}
		rep.Drain = dr
	}
	after, _, err := fetchHealth(o.addr)
	if err != nil {
		return rep, err
	}
	if bj, aj := before.Journal, after.Journal; bj != nil && aj != nil {
		d := &journalDelta{
			Syncs:       aj.Syncs - bj.Syncs,
			SyncSeconds: aj.SyncSeconds - bj.SyncSeconds,
		}
		if rep.Accepted > 0 {
			d.SyncsPerKJob = float64(d.Syncs) * 1000 / float64(rep.Accepted)
		}
		if total := time.Since(start).Seconds(); total > 0 {
			d.SyncShare = d.SyncSeconds / total
		}
		rep.Journal = d
	}
	return rep, nil
}

// newSource builds the job iterator. It returns batches of exactly
// o.batch jobs (the tail may be shorter) for a daemon of k categories.
func newSource(o options, k int) (func() ([]workload.JobText, error), string, error) {
	if o.trace != "" {
		f, err := os.Open(o.trace)
		if err != nil {
			return nil, "", err
		}
		rd := workload.NewSWFReader(f)
		swf := workload.SWFOptions{
			K: k, TimeScale: o.scale, MaxProcs: o.maxProcs,
			// A record's partition picks its category; one with none goes
			// round-robin by acceptance order.
			Category: func(rec workload.SWFRecord, i int) dag.Category {
				if rec.Partition > 0 {
					return dag.Category((rec.Partition-1)%k + 1)
				}
				return dag.Category(i%k + 1)
			},
		}
		emitted := 0
		next := func() ([]workload.JobText, error) {
			var out []workload.JobText
			for len(out) < o.batch && (o.jobs <= 0 || emitted < o.jobs) {
				_, sp, err := rd.NextRigid(swf)
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				out = append(out, workload.JobText{Rigid: sp})
				emitted++
			}
			if len(out) == 0 {
				f.Close()
				return nil, io.EOF
			}
			return out, nil
		}
		return next, "swf:" + o.trace, nil
	}

	weights, err := parseMix(o.mix)
	if err != nil {
		return nil, "", err
	}
	rng := rand.New(rand.NewSource(o.seed))
	emitted := 0
	next := func() ([]workload.JobText, error) {
		if emitted >= o.jobs {
			return nil, io.EOF
		}
		n := o.batch
		if rest := o.jobs - emitted; n > rest {
			n = rest
		}
		out := make([]workload.JobText, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, synthJob(rng, k, weights, emitted+i))
		}
		emitted += n
		return out, nil
	}
	return next, "synthetic:" + o.mix, nil
}

// parseMix parses "rigid=0.8,dag=0.1,mold=0.1" into cumulative weights.
func parseMix(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		fam, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("kradreplay: bad -mix entry %q", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("kradreplay: bad -mix weight %q", part)
		}
		switch fam {
		case "rigid", "dag", "mold":
			out[fam] += w
		default:
			return nil, fmt.Errorf("kradreplay: unknown family %q in -mix (want rigid, dag, mold)", fam)
		}
	}
	total := 0.0
	for _, w := range out {
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("kradreplay: -mix has zero total weight")
	}
	return out, nil
}

// synthJob draws one synthetic job from the family mix: small rigid
// rectangles, tiny DAG chains, or single-task moldable jobs with a
// power-law speedup curve.
func synthJob(rng *rand.Rand, k int, weights map[string]float64, i int) workload.JobText {
	total := weights["rigid"] + weights["dag"] + weights["mold"]
	r := rng.Float64() * total
	cat := dag.Category(i%k + 1)
	switch {
	case r < weights["rigid"]:
		return workload.JobText{Rigid: profile.RigidSpec{
			K: k, Name: fmt.Sprintf("syn-%d", i), Cat: int(cat),
			Procs: 1 + rng.Intn(4), Steps: 1 + rng.Intn(8),
		}}
	case r < weights["rigid"]+weights["dag"]:
		if rng.Intn(2) == 0 {
			return workload.JobText{Graph: dag.Singleton(k, cat)}
		}
		return workload.JobText{Graph: dag.RoundRobinChain(k, 2+rng.Intn(6))}
	default:
		return workload.JobText{Mold: &moldable.Spec{
			K: k, Name: fmt.Sprintf("syn-%d", i),
			Tasks: []moldable.TaskSpec{{
				Cat: int(cat), Work: 4 + rng.Intn(12), Max: 4,
				Curve: moldable.CurveSpec{Type: "powerlaw", Alpha: 0.8},
			}},
		}}
	}
}

// workItem is one batch plus the placement key ("" when -skew is off) and
// tenant index (-1 when -tenants is off) it submits under.
type workItem struct {
	jobs   []workload.JobText
	key    string
	tenant int
}

// tenantHeader names the submitting tenant's fair-share queue (the
// client-side spelling of the server's X-Krad-Tenant header).
const tenantHeader = "X-Krad-Tenant"

// tenantName names synthetic tenant i; the value is a queue-tree path.
func tenantName(i int) string { return "team-" + strconv.Itoa(i) }

// feed pushes job batches into the channel: as fast as workers take them
// in closed-loop mode, or paced at -rate in open-loop mode. keyGen, when
// set, stamps each batch with a skewed placement key; with -tenants the
// batches rotate over the tenants.
func feed(o options, src func() ([]workload.JobText, error), keyGen func() string, jobs chan<- workItem) {
	defer close(jobs)
	rng := rand.New(rand.NewSource(o.seed + 1))
	var next time.Time
	for n := 0; ; n++ {
		batch, err := src()
		if err == io.EOF {
			return
		}
		if err != nil {
			log.Printf("kradreplay: workload source: %v", err)
			return
		}
		if o.rate > 0 {
			gap := float64(len(batch)) / o.rate // seconds this batch is worth
			d := gap
			if o.arrivals == "poisson" {
				d = rng.ExpFloat64() * gap
			}
			if next.IsZero() {
				next = time.Now()
			}
			next = next.Add(time.Duration(d * float64(time.Second)))
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
		}
		item := workItem{jobs: batch, tenant: -1}
		if o.tenants > 0 {
			item.tenant = n % o.tenants
		}
		if keyGen != nil {
			item.key = keyGen()
		}
		jobs <- item
	}
}

// isConnErr reports a transport failure worth retrying: the daemon refused
// the connection (restarting, or a failover target not serving yet) or cut
// it mid-request (reset, EOF). A 503, by contrast, is a healthy daemon
// shedding load.
func isConnErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// maxAttempts bounds the retries of one batch, sheds and transport errors
// together.
const maxAttempts = 50

// submitBatch posts one batch (singly via /v1/jobs when -batch=1),
// retrying shed submissions with the server's Retry-After hint and
// transport errors on the same schedule. The item's placement key and
// tenant, when present, ride the request headers.
func submitBatch(o options, client *http.Client, item workItem, hist *metrics.Hist, c *counters) {
	batch := item.jobs
	n := int64(len(batch))
	path := "/v1/jobs/batch"
	var body []byte
	var err error
	if len(batch) == 1 && o.batch == 1 {
		path = "/v1/jobs"
		body, err = batch[0].AppendJSON(nil)
	} else {
		body, err = (&workload.BatchText{Jobs: batch}).AppendJSON(nil)
	}
	if err != nil {
		c.errors.Add(n)
		return
	}
	for attempt := 0; ; attempt++ {
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, o.addr+path, bytes.NewReader(body))
		if err != nil {
			c.errors.Add(n)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if item.key != "" {
			req.Header.Set(placementKeyHeader, item.key)
		}
		if item.tenant >= 0 {
			req.Header.Set(tenantHeader, tenantName(item.tenant))
		}
		resp, err := client.Do(req)
		retryAfter := "" // the hint a shed carries; a transport error has none
		switch {
		case err != nil && isConnErr(err):
			c.connRetries.Add(1)
		case err != nil:
			c.errors.Add(n)
			return
		default:
			lat := time.Since(start).Seconds()
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated:
				hist.Observe(lat)
				c.accepted.Add(n)
				if item.tenant >= 0 {
					c.tenants[item.tenant].accepted.Add(n)
				}
				return
			case http.StatusServiceUnavailable:
				c.shed503.Add(1)
			case http.StatusTooManyRequests:
				c.shed429.Add(1)
				if item.tenant >= 0 {
					c.tenants[item.tenant].shed429.Add(1)
				}
			default:
				c.errors.Add(n)
				return
			}
			retryAfter = resp.Header.Get("Retry-After")
		}
		if attempt >= maxAttempts {
			c.errors.Add(n)
			return
		}
		time.Sleep(retryDelay(retryAfter, o.retryCap, attempt))
	}
}

// retryDelay honors the server's Retry-After hint, capped, with a small
// attempt-scaled floor so a missing header still backs off. The result is
// drawn uniformly from the upper half of that delay: once the cap binds,
// every worker would otherwise sleep the same time and retry in lockstep,
// and against a queue shorter than the worker count the same worker can
// lose every round.
func retryDelay(header string, cap time.Duration, attempt int) time.Duration {
	d := time.Duration(10*(attempt+1)) * time.Millisecond
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > cap {
		d = cap
	}
	if d <= 0 { // -retry-cap 0 or negative: retry at once
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// waitDrain polls /healthz until the daemon has completed everything this
// run submitted, returning drain throughput over the full run.
func waitDrain(o options, before *server.Stats, accepted int64, start time.Time) (*drainReport, error) {
	target := before.Completed + accepted
	lastProgress := time.Now()
	lastDone := int64(-1)
	for {
		cur, _, err := fetchHealth(o.addr)
		if err != nil {
			return nil, err
		}
		if cur.Completed >= target {
			elapsed := time.Since(start)
			steps := cur.Steps - before.Steps
			dr := &drainReport{
				Jobs:    accepted,
				Seconds: elapsed.Seconds(),
				Steps:   steps,
			}
			if dr.Seconds > 0 {
				dr.JobsPerSec = float64(accepted) / dr.Seconds
				dr.StepsPerSec = float64(steps) / dr.Seconds
			}
			if !o.quiet {
				log.Printf("drained %d jobs in %v (%.0f jobs/s, %d virtual steps)",
					accepted, elapsed.Round(time.Millisecond), dr.JobsPerSec, steps)
			}
			return dr, nil
		}
		if cur.Completed != lastDone {
			lastDone = cur.Completed
			lastProgress = time.Now()
		} else if time.Since(lastProgress) > o.drainMax {
			return nil, fmt.Errorf("kradreplay: drain stalled at %d/%d completed", cur.Completed, target)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchHealth reads /healthz: the daemon's Stats and its status line.
func fetchHealth(addr string) (*server.Stats, string, error) {
	resp, err := http.Get(addr + "/healthz")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	var h struct {
		Status string
		Stats  server.Stats
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, "", err
	}
	return &h.Stats, h.Status, nil
}
