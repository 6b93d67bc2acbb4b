package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"krad/internal/journal"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/replicate"
	"krad/internal/server"
	"krad/internal/sim"
)

// leapReasons are the label values of sim.LeapBlocked.Each, fixed here so
// the per-layer metric list is a constant.
var leapReasons = []string{
	"noleap", "speed", "observer", "trace", "floors", "hold", "runtime", "scheduler", "overload", "dag-frontier",
}

// perLayer is the per-layer metric list of BENCHMARK.json, in order. A
// value of 0 on a workload means the layer is not exercised there (no
// reads on admit_stream, no DAGs on overload_drain, the live and steal
// passes on their one workload each).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "server.http_us_per_job", unit: "us"},
		{name: "server.submit_core_us_per_job", unit: "us"},
		{name: "server.step_glue_us_per_round", unit: "us"},
		{name: "server.step_rounds", unit: "count", higher: true},
		{name: "server.vsteps_per_round", unit: "1", higher: true},
		{name: "server.status_us_per_read", unit: "us"},
		{name: "server.cancel_us_per_op", unit: "us"},
		{name: "server.scrape_ms", unit: "ms"},
		{name: "server.restart_glue_s", unit: "s"},
		{name: "server.admit_p99_ms", unit: "ms"},
		{name: "server.cold_start_ms", unit: "ms"},
		{name: "server.live_accepted_per_s", unit: "1/s", higher: true},
		{name: "server.live_admit_p50_ms", unit: "ms"},
		{name: "server.live_admit_p99_ms", unit: "ms"},
		{name: "server.live_rounds_per_kjob", unit: "1"},
		{name: "server.steal_drain_ms", unit: "ms"},
		{name: "server.steal_jobs_moved", unit: "count", higher: true},
		{name: "sim.admit_us_per_job", unit: "us"},
		{name: "sim.step_us_per_round", unit: "us"},
		{name: "sim.leap_share", unit: "1", higher: true},
	}
	for _, r := range leapReasons {
		defs = append(defs, metricDef{name: "sim.leap_blocked." + r, unit: "count"})
	}
	return append(defs,
		metricDef{name: "sched.allot_calls", unit: "count"},
		metricDef{name: "sched.allot_us_per_call", unit: "us"},
		metricDef{name: "sched.views_per_call", unit: "1"},
		metricDef{name: "sched.allot_share", unit: "1"},
		metricDef{name: "journal.append_us_per_job", unit: "us"},
		metricDef{name: "journal.writes_per_kjob", unit: "1"},
		metricDef{name: "journal.bytes_per_write", unit: "B", higher: true},
		metricDef{name: "journal.syncs", unit: "count"},
		metricDef{name: "journal.sync_ms_p50", unit: "ms"},
		metricDef{name: "journal.read_us_per_record", unit: "us"},
		metricDef{name: "journal.replay_us_per_record", unit: "us"},
		metricDef{name: "journal.records", unit: "count"},
		metricDef{name: "dag.decode_us_per_job", unit: "us"},
		metricDef{name: "dag.tasks_per_job", unit: "1"},
		metricDef{name: "moldable.fromspec_us_per_job", unit: "us"},
		metricDef{name: "profile.fromrigid_ns_per_job", unit: "ns"},
		metricDef{name: "fairshare.gate_us_per_submit", unit: "us"},
		metricDef{name: "fairshare.shed", unit: "count"},
		metricDef{name: "replicate.encode_ns_per_record", unit: "ns"},
		metricDef{name: "replicate.decode_ns_per_record", unit: "ns"},
		metricDef{name: "replicate.bytes_per_record", unit: "B"},
		metricDef{name: "budget.submit_coverage_pct", unit: "%", higher: true},
		metricDef{name: "budget.step_coverage_pct", unit: "%", higher: true},
		metricDef{name: "harness.noop_us_per_op", unit: "us"},
		metricDef{name: "harness.gen_s", unit: "s"},
		metricDef{name: "machine.calib_ms", unit: "ms"},
		metricDef{name: "runtime.gc_cpu_share", unit: "1"},
		metricDef{name: "trace.overhead_pct", unit: "%"},
	)
}()

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides, yielding 0 for an empty denominator (a layer the workload
// does not exercise).
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

func runTraced(o options, run []*workloadDef, inputs []*input, env *environment) (int, error) {
	code := 0
	var results []result
	for i, w := range run {
		out, problems, err := traceWorkload(o, w, inputs[i], env)
		if err != nil {
			return 0, err
		}
		fmt.Printf("\n%s  seed %d  %d jobs  traced run\n", w.name, o.seed, inputs[i].jobs)
		for _, m := range perLayer {
			fmt.Printf("  %-34s %16.6g %s\n", m.name, out.Metrics[m.name].Value, m.unit)
		}
		for _, p := range problems {
			fmt.Println("  PROBLEM:", p)
		}
		if !out.Correct {
			code = 1
		}
		results = append(results, out)
	}
	printEnv(env)
	for _, r := range results {
		printResult(r)
	}
	return code, nil
}

// traceWorkload runs one plain and one decorated repetition of w, then
// the component passes over the same input, and assembles the per-layer
// metrics. End-to-end numbers never come from here.
func traceWorkload(o options, w *workloadDef, in *input, env *environment) (result, []string, error) {
	v := make(map[string]float64)
	var problems []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, w.name+": "+fmt.Sprintf(format, args...))
		}
	}

	plain, err := runRep(w, in, o.workdir, repOptions{})
	if err != nil {
		return result{}, nil, err
	}
	tr := newTracer()
	traced, err := runRep(w, in, o.workdir, repOptions{tr: tr, keepDir: true})
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(traced.dir)
	env.note(plain)
	env.note(traced)
	for _, res := range []*repResult{plain, traced} {
		for _, p := range res.problems {
			problems = append(problems, w.name+": "+p)
		}
		check(res.run.failed == 0, "%d of %d operations failed", res.run.failed, res.run.attempted)
	}
	check(traced.virtual == plain.virtual, "decorated repetition's virtual counters %+v differ from the undecorated %+v", traced.virtual, plain.virtual)
	if _, err := tr.write(o.traceDir, w.name); err != nil {
		return result{}, nil, err
	}

	jobs := float64(in.jobs)
	submits := float64(len(in.reqs))

	// Counts and spans of the two repetitions. Every timing below is on
	// the reference machine's scale (run.ref), so that a difference between
	// two passes is a difference between layers and not between two moments
	// of the machine.
	pr, trr := plain.run, traced.run
	stepRounds := float64(tr.underN[spanStep][spanAllot])
	v["server.step_rounds"] = stepRounds
	v["server.vsteps_per_round"] = per(float64(traced.Steps), stepRounds)
	v["server.status_us_per_read"] = per(us(pr.ref(pr.total[spanStatus])), float64(pr.count[spanStatus]))
	v["server.cancel_us_per_op"] = per(us(pr.ref(pr.total[spanCancel])), float64(pr.count[spanCancel]))
	v["server.scrape_ms"] = per(ms(pr.ref(pr.total[spanScrape])), float64(pr.count[spanScrape]))
	v["server.admit_p99_ms"] = percentile(pr.admitMS, 99) * plain.calib.medianFactor(plain.admitChunks)
	v["sched.allot_calls"] = stepRounds
	v["sched.allot_us_per_call"] = per(us(trr.ref(tr.under[spanStep][spanAllot])), stepRounds)
	v["sched.views_per_call"] = per(float64(tr.views), float64(tr.count[spanAllot]))
	v["sched.allot_share"] = per(float64(tr.under[spanStep][spanAllot]+tr.under[spanStep][spanLeap]), float64(trr.total[spanStep]))
	v["journal.writes_per_kjob"] = per(1000*float64(tr.count[spanWrite]), jobs)
	v["journal.bytes_per_write"] = per(float64(tr.writeBytes), float64(tr.count[spanWrite]))
	v["journal.syncs"] = float64(len(tr.syncs))
	syncMS := make([]float64, len(tr.syncs))
	for i, d := range tr.syncs {
		syncMS[i] = ms(d)
	}
	v["journal.sync_ms_p50"] = median(syncMS)
	v["fairshare.shed"] = float64(plain.shed)
	v["harness.gen_s"] = in.genTime.Seconds()
	v["machine.calib_ms"] = median([]float64{plain.calibMS, traced.calibMS})
	v["runtime.gc_cpu_share"] = per(plain.gcCPU, plain.cpu.Seconds())
	plainWall, tracedWall := pr.ref(plain.wall), trr.ref(traced.wall)
	v["trace.overhead_pct"] = 100 * float64(tracedWall-plainWall) / float64(tracedWall)

	// Component passes, each over the same input.
	svcRun, svcTr, err := servicePass(w, in, o.workdir)
	if err != nil {
		return result{}, nil, err
	}
	check(svcRun.failed == 0, "service pass: %d operations failed", svcRun.failed)
	engRun, engTr, eng, err := enginePass(w, in)
	if err != nil {
		return result{}, nil, err
	}
	check(engRun.failed == 0, "engine pass: %d operations failed", engRun.failed)
	check(eng.now() == plain.Makespan, "bare-engine pass ended at step %d, the service at %d", eng.now(), plain.Makespan)
	appendTotal, err := journalAppendPass(in, o.workdir)
	if err != nil {
		return result{}, nil, err
	}
	dec := decodePass(in)
	noop := &run{t: newHTTPTarget(&noopHandler{}, nil, in.tenants), calib: &calibrator{}}
	w.submitPhase(noop, in)
	var noopTotal time.Duration
	for _, d := range noop.total {
		noopTotal += noop.ref(d)
	}

	// Submit path: handler = HTTP layer + service core + engine admit +
	// journal file writes; each term is a difference of two passes, both
	// decorated, so the decorators' own cost cancels.
	handler := pr.ref(pr.total[spanSubmit])
	svcSubmit := svcRun.ref(svcRun.total[spanSubmit])
	simAdmit := engRun.ref(engRun.total[spanSubmit])
	writesUnderSubmit := svcRun.ref(svcTr.under[spanSubmit][spanWrite])
	v["server.http_us_per_job"] = us(trr.ref(trr.total[spanSubmit])-svcSubmit) / jobs
	v["server.submit_core_us_per_job"] = us(svcSubmit-simAdmit-writesUnderSubmit) / jobs
	v["sim.admit_us_per_job"] = us(simAdmit) / jobs
	v["journal.append_us_per_job"] = us(appendTotal) / jobs

	// Step path: StepAll = server glue + engine round (scheduler inside) +
	// journal file writes.
	engRounds := float64(engTr.count[spanAllot])
	engStep := engRun.ref(engRun.total[spanStep])
	engSched := engRun.ref(engTr.total[spanAllot] + engTr.total[spanLeap])
	svcStep := svcRun.ref(svcRun.total[spanStep])
	writesUnderStep := svcRun.ref(svcTr.under[spanStep][spanWrite])
	v["sim.step_us_per_round"] = per(us(engStep-engSched), engRounds)
	v["server.step_glue_us_per_round"] = per(us(svcStep-engStep-writesUnderStep), stepRounds)
	var snap sim.EngineSnapshot
	var leapt, stepped int64
	for _, e := range eng.engines {
		s := e.Snapshot()
		leapt += s.LeapSteps
		stepped += s.Now
		snap.LeapBlocked.Add(s.LeapBlocked)
	}
	v["sim.leap_share"] = per(float64(leapt), float64(stepped))
	snap.LeapBlocked.Each(func(reason string, n int64) { v["sim.leap_blocked."+reason] = float64(n) })

	// Job families, each over the workload's own jobs of that family.
	v["dag.decode_us_per_job"] = per(us(dec.dagDecode), float64(dec.dags))
	v["dag.tasks_per_job"] = per(float64(dec.dagTasks), float64(dec.dags))
	v["moldable.fromspec_us_per_job"] = per(us(dec.moldBuild), float64(dec.molds))
	v["profile.fromrigid_ns_per_job"] = per(float64(dec.rigidBuild.Nanoseconds()), float64(dec.rigids))

	// Journal read side and replication frames, over the WAL the decorated
	// repetition wrote.
	jr, err := journalReadPass(w, traced.dir)
	if err != nil {
		return result{}, nil, err
	}
	check(jr.now == plain.Makespan, "journal replay ended at step %d, the service at %d", jr.now, plain.Makespan)
	v["journal.records"] = float64(jr.records)
	v["journal.read_us_per_record"] = per(us(jr.read), float64(jr.records))
	v["journal.replay_us_per_record"] = per(us(jr.replay), float64(jr.records))
	v["server.restart_glue_s"] = (plain.setup - jr.read - jr.replay).Seconds()
	v["replicate.encode_ns_per_record"] = per(float64(jr.encode.Nanoseconds()), float64(jr.records))
	v["replicate.decode_ns_per_record"] = per(float64(jr.decode.Nanoseconds()), float64(jr.records))
	v["replicate.bytes_per_record"] = per(float64(jr.frameBytes), float64(jr.records))

	// The fair-share gate is what a submit costs with Fairness set over
	// what it costs with Fairness nil.
	var gate time.Duration
	if w.fairness {
		off, err := runRep(w, in, o.workdir, repOptions{noFairness: true})
		if err != nil {
			return result{}, nil, err
		}
		check(off.run.failed == 0, "fairness-off repetition: %d operations failed", off.run.failed)
		gate = handler - off.run.ref(off.run.total[spanSubmit])
		v["fairshare.gate_us_per_submit"] = us(gate) / submits
	}

	// Budget: how much of the handler and StepAll spans the standalone
	// component measurements explain. What is left is server glue, which
	// the server.* rows above measure as a residual.
	if gate < 0 {
		gate = 0
	}
	v["budget.submit_coverage_pct"] = 100 * per(float64(dec.wire+dec.moldBuild+dec.rigidBuild+simAdmit+appendTotal+gate), float64(handler))
	v["budget.step_coverage_pct"] = 100 * per(float64(engStep+writesUnderStep), float64(svcStep))
	v["harness.noop_us_per_op"] = per(us(noopTotal), float64(noop.attempted))

	cold, err := coldStart(w, o.workdir)
	if err != nil {
		return result{}, nil, err
	}
	v["server.cold_start_ms"] = cold

	// The concurrent path and work stealing live only in the Start()ed
	// service's loop, which the hand-stepped driver never enters.
	if w.live {
		live, err := livePass(w, in, o.workdir, o.seconds)
		if err != nil {
			return result{}, nil, err
		}
		check(live.failed == 0, "live pass: %d requests failed", live.failed)
		v["server.live_accepted_per_s"] = live.acceptedPerS
		v["server.live_admit_p50_ms"] = live.p50
		v["server.live_admit_p99_ms"] = live.p99
		v["server.live_rounds_per_kjob"] = live.roundsPerKJob
	}
	if w.steal {
		drainMS, moved, err := stealPass()
		if err != nil {
			return result{}, nil, err
		}
		v["server.steal_drain_ms"] = drainMS
		v["server.steal_jobs_moved"] = moved
	}

	out := result{
		Correct:   len(problems) == 0,
		Attempted: plain.run.attempted + traced.run.attempted,
		Failed:    plain.run.failed + traced.run.failed,
		Metrics:   make(map[string]metricValue, len(perLayer)),
	}
	for _, m := range perLayer {
		out.Metrics[m.name] = metricValue{v[m.name], m.unit}
	}
	return out, problems, nil
}

// servicePass drives the script into Service.SubmitBatchTenant and
// friends on a journaled, never-started service, with the scheduler and
// journal-file decorators installed so file writes can be told from the
// server's own work.
func servicePass(w *workloadDef, in *input, workdir string) (*run, *tracer, error) {
	dir, err := os.MkdirTemp(workdir, w.name+"-svc-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	clock := &fileClock{tr: tr}
	runtime.GC()
	svc, err := server.New(w.config(dir, clock))
	if err != nil {
		return nil, nil, err
	}
	r := &run{t: &serviceTarget{svc: svc, tenants: in.tenants}, tr: tr, decode: true, calib: &calibrator{}, clock: clock}
	w.submitPhase(r, in)
	w.drain(r)
	clock.off = true
	return r, tr, closeService(svc)
}

// enginePass drives the script into bare engines.
func enginePass(w *workloadDef, in *input) (*run, *tracer, *engineTarget, error) {
	tr := newTracer()
	runtime.GC()
	t, err := newEngineTarget(w, tr, in)
	if err != nil {
		return nil, nil, nil, err
	}
	r := &run{t: t, tr: tr, decode: true, calib: &calibrator{}}
	w.submitPhase(r, in)
	w.drain(r)
	return r, tr, t, nil
}

// journalAppendPass times the journal alone: AdmitRecord plus Append for
// every request's specs, into a fresh WAL under the daemon's sync policy.
func journalAppendPass(in *input, workdir string) (time.Duration, error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var clock fileClock
	jn, _, err := journal.Open(filepath.Join(dir, "shard-000.wal"), journal.Options{
		Sync: journal.SyncInterval, Interval: 100 * time.Millisecond, OpenAppend: clock.openAppend,
	})
	if err != nil {
		return 0, err
	}
	runtime.GC()
	var c calibrator
	var own time.Duration
	base := 0
	for i := range in.reqs {
		specs, err := decodeSpecs(in.reqs[i].body)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		rec, err := journal.AdmitRecord(base, specs)
		if err == nil {
			err = jn.Append(rec)
		}
		own += time.Since(start) - clock.take()
		if err != nil {
			return 0, err
		}
		c.keepPace(own)
		base += in.reqs[i].n
	}
	return c.ref(own), jn.Close()
}

// timedLoop runs f(i) for i in [0, n), interleaving reference chunks
// every stride iterations, and returns the loop's own time on the
// reference machine's scale. A stride above 1 keeps the clock reads out of
// a loop whose f takes nanoseconds.
func timedLoop(n, stride int, f func(i int)) time.Duration {
	var c calibrator
	var own time.Duration
	for lo := 0; lo < n; lo += stride {
		start := time.Now()
		for i := lo; i < min(lo+stride, n); i++ {
			f(i)
		}
		own += time.Since(start)
		c.keepPace(own)
	}
	return c.ref(own)
}

// decodeTimes are the standalone costs of turning bodies into job specs.
type decodeTimes struct {
	wire       time.Duration // json.Unmarshal of every request body
	dagDecode  time.Duration // json.Unmarshal of every DAG job alone
	moldBuild  time.Duration // moldable.FromSpec, once per moldable job
	rigidBuild time.Duration // profile.FromRigidSpec, once per rigid job

	dags, dagTasks, molds, rigids int
}

func decodePass(in *input) decodeTimes {
	var d decodeTimes
	var dagBodies [][]byte
	var molds []moldable.Spec
	var rigids []profile.RigidSpec
	runtime.GC()
	d.wire = timedLoop(len(in.reqs), 1, func(i int) {
		var b wireBatch
		if err := json.Unmarshal(in.reqs[i].body, &b); err != nil {
			panic(err) // the body was encoded from the same struct
		}
	})
	// A second, untimed decode sorts the jobs by family.
	for i := range in.reqs {
		var b wireBatch
		_ = json.Unmarshal(in.reqs[i].body, &b)
		for _, j := range b.Jobs {
			switch {
			case j.Graph != nil:
				body, _ := json.Marshal(wireJob{Graph: j.Graph})
				dagBodies = append(dagBodies, body)
				d.dagTasks += j.Graph.NumTasks()
			case j.Mold != nil:
				molds = append(molds, *j.Mold)
			default:
				rigids = append(rigids, *j.Rigid)
			}
		}
	}
	d.dags, d.molds, d.rigids = len(dagBodies), len(molds), len(rigids)
	d.dagDecode = timedLoop(d.dags, 1, func(i int) {
		var j wireJob
		_ = json.Unmarshal(dagBodies[i], &j)
	})
	d.moldBuild = timedLoop(d.molds, 64, func(i int) { _, _ = moldable.FromSpec(molds[i]) })
	d.rigidBuild = timedLoop(d.rigids, 64, func(i int) { _, _ = profile.FromRigidSpec(rigids[i]) })
	return d
}

// journalRead is the read side of the WAL a repetition wrote.
type journalRead struct {
	records        int
	read, replay   time.Duration
	encode, decode time.Duration
	frameBytes     int
	now            int64
}

// journalReadPass decodes every shard WAL under dir (journal.ReadFile),
// replays it into a fresh bare engine (journal.Replay), and frames every
// record for replication (EncodeFrame, DecodeFrame).
func journalReadPass(w *workloadDef, dir string) (journalRead, error) {
	var out journalRead
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil {
		return out, err
	}
	sort.Strings(paths)
	cfg := w.config("", nil)
	for shard, path := range paths {
		runtime.GC()
		start := time.Now()
		recs, err := journal.ReadFile(path)
		out.read += time.Since(start)
		if err != nil {
			return out, err
		}
		out.records += len(recs)

		c := cfg.Sim
		c.Seed += int64(shard) << 32
		c.Scheduler = cfg.NewScheduler()
		eng, err := sim.NewEngine(c)
		if err != nil {
			return out, err
		}
		start = time.Now()
		err = journal.Replay(eng, recs)
		out.replay += time.Since(start)
		if err != nil {
			return out, err
		}
		if eng.Now() > out.now {
			out.now = eng.Now()
		}

		for i, rec := range recs {
			f := replicate.Frame{T: replicate.FrameRecs, Epoch: 1, Shard: shard, Seq: int64(i + 1), Recs: []journal.Record{rec}}
			start = time.Now()
			payload, err := replicate.EncodeFrame(f)
			mid := time.Now()
			if err != nil {
				return out, err
			}
			_, err = replicate.DecodeFrame(payload)
			end := time.Now()
			if err != nil {
				return out, err
			}
			out.encode += mid.Sub(start)
			out.decode += end.Sub(mid)
			out.frameBytes += len(payload)
		}
	}
	return out, nil
}

// coldStart is the median of 51 server.New calls on empty journal
// directories, in milliseconds: too small and too noisy to gate, reported
// so nobody mistakes it for setup_s.
func coldStart(w *workloadDef, workdir string) (float64, error) {
	var samples []float64
	for i := 0; i < 51; i++ {
		dir, err := os.MkdirTemp(workdir, "cold-")
		if err != nil {
			return 0, err
		}
		start := time.Now()
		svc, err := server.New(w.config(dir, nil))
		if err == nil {
			_, _ = svc.Ready()
		}
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		samples = append(samples, ms(d))
		err = closeService(svc)
		os.RemoveAll(dir)
		if err != nil {
			return 0, err
		}
	}
	return median(samples), nil
}
