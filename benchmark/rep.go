package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"krad/internal/server"
)

// run drives one request script against one target, counting and timing
// every operation. Closed loop, one client, one goroutine: the next
// operation starts when the previous returns, so a handler time is
// service time with no queueing in it.
type run struct {
	t  target
	tr *tracer // nil outside the traced repetition
	// decode fills each request's specs just before its submit, outside the
	// timed span, for targets below HTTP. Decoding the whole input up
	// front instead would park every job on the heap and tax each pass's
	// garbage collector with work the real run never has.
	decode bool
	// calib, when set, interleaves reference chunks with the operations
	// (see calib.go); work is the operations' own time so far.
	calib *calibrator
	work  time.Duration
	// clock, when set, is the journal files' fsync clock (trace.go): the
	// fsync wait inside an operation is taken out of its time.
	clock *fileClock

	attempted int
	failed    int
	count     [numSpanKinds]int64
	total     [numSpanKinds]time.Duration
	admitMS   []float64 // every submit's handler time, exact
	steps     int64     // virtual steps executed
}

// ref converts a duration measured during this run to the reference
// machine's (calib.go); the identity for a run without a calibrator.
func (r *run) ref(d time.Duration) time.Duration {
	if r.calib == nil {
		return d
	}
	return r.calib.ref(d)
}

func (r *run) begin(kind uint8) time.Time {
	now := time.Now()
	if r.tr != nil {
		r.tr.begin(kind, now)
	}
	return now
}

func (r *run) finish(kind uint8, start time.Time, ok bool) time.Duration {
	end := time.Now()
	if r.tr != nil {
		r.tr.end(end)
	}
	d := end.Sub(start)
	if r.clock != nil {
		d -= r.clock.take()
	}
	r.attempted++
	if !ok {
		r.failed++
	}
	r.count[kind]++
	r.total[kind] += d
	if r.calib != nil {
		r.work += d
		r.calib.keepPace(r.work)
	}
	return d
}

func (r *run) submit(req *request) []int {
	if r.decode {
		specs, err := decodeSpecs(req.body)
		if err != nil {
			panic(err) // the body was encoded from the same structs
		}
		req.specs = specs
		defer func() { req.specs = nil }()
	}
	start := r.begin(spanSubmit)
	ids, ok := r.t.submit(req)
	d := r.finish(spanSubmit, start, ok)
	r.admitMS = append(r.admitMS, float64(d)/float64(time.Millisecond))
	return ids
}

func (r *run) status(id int) {
	start := r.begin(spanStatus)
	r.finish(spanStatus, start, r.t.status(id))
}

func (r *run) cancel(id int) {
	start := r.begin(spanCancel)
	r.finish(spanCancel, start, r.t.cancel(id))
}

func (r *run) scrape() {
	start := r.begin(spanScrape)
	r.finish(spanScrape, start, r.t.scrape())
}

func (r *run) step(n int64) int64 {
	start := r.begin(spanStep)
	did, err := r.t.step(n)
	r.finish(spanStep, start, err == nil)
	r.steps += did
	return did
}

// submitPhase sends every request of the input, stepping the clock
// between them as the workload prescribes. tenant_churn also reads each
// new job, cancels one of them, re-reads the previous iteration's jobs
// after the step, and scrapes /metrics and /healthz every 32 iterations.
func (w *workloadDef) submitPhase(r *run, in *input) {
	var prev, cur []int
	for i := range in.reqs {
		req := &in.reqs[i]
		ids := r.submit(req)
		if w.churn {
			cur = append(cur[:0], ids...)
			for _, id := range cur {
				r.status(id)
			}
			if req.cancel < len(cur) {
				r.cancel(cur[req.cancel])
			}
		}
		if w.stepAfter > 0 {
			r.step(w.stepAfter)
		}
		if w.churn {
			for _, id := range prev {
				r.status(id)
			}
			prev, cur = cur, prev
			if i%32 == 31 {
				r.scrape()
			}
		}
	}
}

// drain steps until every shard is idle.
func (w *workloadDef) drain(r *run) {
	for r.step(w.drainStep) > 0 {
	}
}

// virtual holds the counters that do not depend on the machine: the same
// input must reproduce them exactly, on every repetition, decorated or
// not, and the restarted service must report them again.
type virtual struct {
	Jobs         int64
	Completed    int64
	Cancelled    int64
	Makespan     int64
	Steps        int64
	JournalBytes int64
	MeanResponse float64
}

// repResult is one repetition's raw measurements.
type repResult struct {
	virtual
	wall        time.Duration // first request to engine idle, reference chunks and fsync wait taken out
	cpu         time.Duration // process user+system over the same interval, reference chunks taken out
	gcCPU       float64       // seconds of it the runtime charges to GC
	mallocs     uint64        // heap objects allocated, the reference chunks' taken out
	calib       calibrator    // reference chunks interleaved with the timed phase
	admitChunks int64         // how many of them ran before the last request was admitted
	retained    int64         // live heap growth at the end of admission
	shed        int64         // submissions the fair-share gate refused
	fsync       time.Duration // wait inside journal fsyncs, taken out of every timing
	setup       time.Duration
	calibMS     float64
	run         *run
	dir         string // journal directory, kept only when the caller asks
	problems    []string
}

// repOptions vary a repetition for the traced run.
type repOptions struct {
	tr         *tracer // install decorators and record spans
	keepDir    bool    // leave the journal on disk for the journal passes
	noFairness bool    // run with Config.Fairness nil (the fair-share gate's baseline)
}

// runRep executes one repetition of w on a fresh journal directory under
// workdir: timed phase, close, restart over the written journal.
func runRep(w *workloadDef, in *input, workdir string, opt repOptions) (*repResult, error) {
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	if !opt.keepDir {
		defer os.RemoveAll(dir)
	}
	res := &repResult{dir: dir}
	res.calibMS = calibrate()

	clock := &fileClock{tr: opt.tr}
	config := func() server.Config {
		cfg := w.config(dir, clock)
		if opt.noFairness {
			cfg.Fairness = nil
		}
		return cfg
	}
	runtime.GC()
	svc, err := server.New(config())
	if err != nil {
		return nil, fmt.Errorf("%s: server.New: %w", w.name, err)
	}
	baseHeap := heapAfterGC()
	r := &run{
		t:       newHTTPTarget(svc.Handler(), svc, in.tenants),
		tr:      opt.tr,
		calib:   &res.calib,
		clock:   clock,
		admitMS: make([]float64, 0, len(in.reqs)),
	}
	res.run = r

	// Timed phase. The heap reading between admission and drain stops the
	// world twice, so its wall and CPU time are taken back out.
	m0, gc0, cpu0, t0 := mallocs(), gcCPUSeconds(), cpuTime(), time.Now()
	w.submitPhase(r, in)
	res.admitChunks = res.calib.chunks
	tPause, cpuPause, gcPause := time.Now(), cpuTime(), gcCPUSeconds()
	res.retained = int64(heapAfterGC()) - int64(baseHeap)
	pausedWall, pausedCPU, pausedGC := time.Since(tPause), cpuTime()-cpuPause, gcCPUSeconds()-gcPause
	w.drain(r)
	res.fsync = clock.total
	res.wall = time.Since(t0) - pausedWall - res.calib.total - res.fsync
	res.cpu = cpuTime() - cpu0 - pausedCPU - res.calib.total
	res.gcCPU = gcCPUSeconds() - gc0 - pausedGC
	res.mallocs = mallocs() - m0 - uint64(res.calib.chunks)*chunkMallocs

	st := svc.Stats()
	res.virtual = virtual{
		Jobs:         st.Submitted,
		Completed:    st.Completed,
		Cancelled:    st.Cancelled,
		Makespan:     st.Now,
		Steps:        st.Steps,
		MeanResponse: st.Response.Mean,
	}
	for _, t := range st.Tenants {
		res.shed += t.Shed
	}
	if st.InFlight != 0 {
		res.problem("engine not idle after drain: %d in flight", st.InFlight)
	}
	if st.Submitted != int64(in.jobs) {
		res.problem("accepted %d of %d jobs", st.Submitted, in.jobs)
	}
	if st.Completed+st.Cancelled != st.Submitted {
		res.problem("completed %d + cancelled %d != accepted %d", st.Completed, st.Cancelled, st.Submitted)
	}
	if st.Steps != r.steps {
		res.problem("Stats().Steps %d != steps StepAll reported %d", st.Steps, r.steps)
	}
	if err := svc.Err(); err != nil {
		res.problem("step loop error: %v", err)
	}
	clock.off = true
	if err := closeService(svc); err != nil {
		res.problem("close: %v", err)
	}
	walBytes, err := journalBytes(dir)
	if err != nil {
		return nil, err
	}
	res.JournalBytes = walBytes

	// Restart: the daemon's set-up is server.New over the journal it just
	// wrote — decode every record, replay every mutation — until Ready.
	svc, r.t = nil, nil
	clock.off = false
	runtime.GC()
	start := time.Now()
	if opt.tr != nil {
		opt.tr.begin(spanRestart, start)
	}
	svc2, err := server.New(config())
	ready := false
	if err == nil {
		ready, _ = svc2.Ready()
	}
	end := time.Now()
	if opt.tr != nil {
		opt.tr.end(end)
	}
	res.setup = end.Sub(start)
	if err != nil {
		return nil, fmt.Errorf("%s: restart: %w", w.name, err)
	}
	if !ready {
		res.problem("restarted service not ready")
	}
	// Steps is process-local by design (attachJournal restarts it at 0), so
	// it is not part of the restart comparison.
	st2 := svc2.Stats()
	if st2.Completed != st.Completed || st2.Cancelled != st.Cancelled || st2.Submitted != st.Submitted ||
		st2.Now != st.Now || st2.Response.Mean != st.Response.Mean || st2.Response.N != st.Response.N {
		res.problem("restart diverged: completed %d/%d cancelled %d/%d accepted %d/%d now %d/%d mean response %v/%v",
			st2.Completed, st.Completed, st2.Cancelled, st.Cancelled, st2.Submitted, st.Submitted,
			st2.Now, st.Now, st2.Response.Mean, st.Response.Mean)
	}
	clock.off = true
	if err := closeService(svc2); err != nil {
		res.problem("close after restart: %v", err)
	}
	return res, nil
}

func (res *repResult) problem(format string, args ...any) {
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

func closeService(svc *server.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return svc.Close(ctx)
}

// journalBytes sums the shard WAL files under dir.
func journalBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
