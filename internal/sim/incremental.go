package sim

import (
	"fmt"
	"sort"

	"krad/internal/dag"
	"krad/internal/sched"
)

// JobPhase is a job's position in the admit → release → complete lifecycle.
type JobPhase int

const (
	// JobPending means admitted but not yet released (release time ahead
	// of the clock).
	JobPending JobPhase = iota
	// JobActive means released and executing.
	JobActive
	// JobDone means every task has executed.
	JobDone
	// JobCancelled means the job was withdrawn before completing; its
	// processors were freed at the following step.
	JobCancelled
	// JobStolen means the job was withdrawn while still pending and
	// re-admitted on another engine (cross-shard work stealing). Terminal
	// for THIS engine; the job's lifecycle continues under a new ID on the
	// engine it migrated to.
	JobStolen
)

// String returns the lowercase phase name used in status reports.
func (p JobPhase) String() string {
	switch p {
	case JobPending:
		return "pending"
	case JobActive:
		return "active"
	case JobDone:
		return "done"
	case JobCancelled:
		return "cancelled"
	case JobStolen:
		return "stolen"
	default:
		return fmt.Sprintf("JobPhase(%d)", int(p))
	}
}

// JobStatus is the externally visible state of one admitted job.
type JobStatus struct {
	ID      int
	Release int64
	Phase   JobPhase
	// Family is the job's runtime family (FamilyUnknown for sources that
	// do not declare one).
	Family RuntimeFamily
	// Completion is the step the job finished at (0 while unfinished).
	Completion int64
	// CancelledAt is the clock value when Cancel was called (0 otherwise).
	CancelledAt int64
	// Work[α−1] is T1(Ji, α); Span is T∞(Ji).
	Work []int
	Span int
}

// Response returns completion − release for finished jobs and 0 otherwise.
func (s JobStatus) Response() int64 {
	if s.Phase != JobDone {
		return 0
	}
	return s.Completion - s.Release
}

// StepInfo reports what one Engine.Step or Engine.StepN call did.
type StepInfo struct {
	// Step is the clock after the call (the last step executed, or the
	// unchanged clock when Idle).
	Step int64
	// Idle is true when the engine had nothing to do: no active jobs and
	// no pending releases. The clock does not advance on idle calls.
	Idle bool
	// Steps is the number of unit steps executed by the call: 1 for a
	// non-idle Step, up to n for StepN(n), 0 when Idle.
	Steps int64
	// LeapSteps counts how many of Steps were covered by event-leaps —
	// executed by repeating a provably stable allotment instead of a fresh
	// scheduling round. 0 when leaping was never possible.
	LeapSteps int64
	// Executed[α−1] counts the α-tasks executed during the call (summed
	// over Steps). The slice is an engine-owned buffer reused by the next
	// Step/StepN call — copy it before publishing it anywhere that
	// outlives the next call. Nil when Idle.
	Executed []int
	// Released lists job IDs that became active during the call. Like
	// Executed, the slice is an engine-owned buffer reused by the next
	// call — copy before retaining.
	Released []int
	// Completed lists job IDs that finished during the call. Like
	// Executed, the slice is an engine-owned buffer reused by the next
	// call — copy before retaining.
	Completed []int
	// Active is the number of jobs still running after the call.
	Active int
}

// EngineSnapshot is a point-in-time summary of an Engine.
type EngineSnapshot struct {
	Now  int64
	K    int
	Caps []int
	// Admitted = Pending + Active + Completed + Cancelled + Stolen.
	Admitted  int
	Pending   int
	Active    int
	Completed int
	Cancelled int
	// Stolen counts jobs withdrawn while pending and migrated to another
	// engine (cross-shard work stealing). 0 on engines that never donated.
	Stolen int
	// Makespan is the latest completion step seen so far.
	Makespan int64
	// ExecutedTotal[α−1] is the cumulative α-tasks executed.
	ExecutedTotal []int64
	// LeapSteps is the cumulative number of steps executed via event-leap
	// without a fresh scheduling round (Σ over leaps of leap length − 1).
	// Observational only; not carried across checkpoints.
	LeapSteps int64
	// LeapBlocked counts the scheduling rounds that had a multi-step
	// budget but could not leap, by blocking reason. Observational only;
	// not carried across checkpoints.
	LeapBlocked LeapBlocked
}

// LeapBlocked counts scheduling rounds where a multi-step budget remained
// but no event-leap was taken, by reason — the operator-facing answer to
// "why isn't this deployment leaping". Rounds merely bounded by an
// imminent release or the runaway guard are not counted: nothing is
// misconfigured there. Fields are cumulative counts.
type LeapBlocked struct {
	NoLeap      int64 // Config.NoLeap set
	Speed       int64 // Config.Speed > 1: micro-rounds need per-step boundaries
	Observer    int64 // Config.Observer must see every scheduling round
	Trace       int64 // TraceTasks needs per-step task identities
	Floors      int64 // a FloorRuntime without HoldRuntime pinned processors this round
	Hold        int64 // a hold-capable runtime was not held, or its held window ends too soon
	Runtime     int64 // an active job's runtime lacks LeapRuntime
	Scheduler   int64 // scheduler lacks sched.Stable or reported horizon 0
	Overload    int64 // horizon 0 while a category had more active jobs than processors
	DAGFrontier int64 // a DAG instance's frontier level could promote (StableFor 0)
}

// Each calls fn for every reason with its metric label and count, in a
// fixed order, so exporters enumerate without reflection.
func (b LeapBlocked) Each(fn func(reason string, n int64)) {
	fn("noleap", b.NoLeap)
	fn("speed", b.Speed)
	fn("observer", b.Observer)
	fn("trace", b.Trace)
	fn("floors", b.Floors)
	fn("hold", b.Hold)
	fn("runtime", b.Runtime)
	fn("scheduler", b.Scheduler)
	fn("overload", b.Overload)
	fn("dag-frontier", b.DAGFrontier)
}

// Add folds o's counts into b — exporters use it to aggregate across
// engine shards.
func (b *LeapBlocked) Add(o LeapBlocked) {
	b.NoLeap += o.NoLeap
	b.Speed += o.Speed
	b.Observer += o.Observer
	b.Trace += o.Trace
	b.Floors += o.Floors
	b.Hold += o.Hold
	b.Runtime += o.Runtime
	b.Scheduler += o.Scheduler
	b.Overload += o.Overload
	b.DAGFrontier += o.DAGFrontier
}

// Utilization returns, per category, the fraction of processor-steps spent
// executing tasks up to Now: ExecutedTotal[α] / (Pα · Now).
func (s EngineSnapshot) Utilization() []float64 {
	u := make([]float64, s.K)
	if s.Now == 0 {
		return u
	}
	for a, w := range s.ExecutedTotal {
		u[a] = float64(w) / (float64(s.Caps[a]) * float64(s.Now))
	}
	return u
}

// jobState is the engine's bookkeeping for one job.
type jobState struct {
	id      int
	release int64
	rt      RuntimeJob
	// caps caches the runtime's optional capabilities (bound once at
	// admission; see family.go) so hot paths never type-switch.
	caps        runtimeCaps
	family      RuntimeFamily
	work        []int
	span        int
	tasks       int // src.TotalTasks(), cached for the work gauges
	phase       JobPhase
	completed   int64 // 0 while running (completion steps are ≥ 1)
	cancelledAt int64
	// spec is the original admission spec, retained only while the job is
	// pending so Withdraw can hand it to another engine; cleared on
	// release, cancellation and withdrawal so active jobs pin nothing.
	spec JobSpec
}

// Engine is the incremental form of the simulator: the same machine Run
// drives, but with jobs admitted (and cancelled) while the clock runs.
// An Engine is NOT goroutine-safe — callers that share one across
// goroutines must serialize access (internal/server does).
type Engine struct {
	cfg Config

	now  int64
	jobs []*jobState // all admitted jobs, indexed by ID; nil once retired
	// pending holds admitted, not-yet-released jobs sorted by (release,
	// ID); the live window is pending[pendOff:]. Releases advance pendOff
	// instead of re-slicing so the backing array's capacity is recovered
	// when the queue drains — a steady submit→release cycle reallocates
	// nothing.
	pending    []*jobState
	pendOff    int
	active     []*jobState // released, unfinished; ascending ID
	free       []*jobState // retired jobStates recycled by the next Admit
	remaining  int         // admitted − completed − cancelled − stolen
	completedN int
	cancelledN int
	stolenN    int // jobs withdrawn by cross-shard work stealing

	totalWork  int64 // total admitted unit tasks (feeds the runaway bound)
	maxRelease int64

	// Work gauges (see PendingWork and EstWork): incrementally maintained
	// task counts, updated by the same mutations the counters above track
	// so reading them costs nothing.
	pendingWork int64 // Σ tasks over pending (not-yet-released) jobs
	estWork     int64 // estimated unexecuted tasks over pending + active jobs

	trace       *Trace
	makespan    int64
	overloaded  []bool
	execTotal   []int64
	leapSteps   int64       // cumulative event-leap steps (see EngineSnapshot.LeapSteps)
	leapBlocked LeapBlocked // per-reason counts of rounds that could not leap

	// The scheduler as the engine drives it, bound once at construction:
	// delta is told of every change by the slot table's writers (slots.go)
	// and asked for grants — cfg.Scheduler itself, or sched.FromDense around
	// one that knows only the dense contract. stable is cfg.Scheduler's own
	// report either way: FromDense hands it views that read like e.views.
	delta  sched.DeltaAllotter
	stable sched.Stable

	// The slot table (slots.go): per-slot arrays parallel to active, and
	// the aggregates over them, maintained incrementally instead of being
	// rebuilt every round.
	views       []sched.JobView // what the scheduler sees; slot i is active[i]
	desire      []int           // flat desire rows; views[i].Desire is row i
	floor       []int           // flat floor rows; nil until a floor-bearing job is released
	flags       []uint8         // slotHeld | slotSoftUnheld | slotHardFloor | slotNoLeap | slotFloored
	allot       [][]int         // the allotment rows applyGrants writes; zero between rounds
	allotBack   []int
	activeCount []int           // per category: slots with desire > 0
	hardFloors  int             // slots flagged slotHardFloor
	softUnheld  int             // slots flagged slotSoftUnheld
	noLeap      int             // slots flagged slotNoLeap
	floored     int             // slots flagged slotFloored
	changed     []bool          // per category: did refreshSlot's last re-read change that entry
	heads       []int           // per category: applyGrants' position in that category's grants,
	nextID      []int           // and the job ID there
	touched     []int32         // slots with a non-zero allotment row this round, ascending
	gone        []int32         // slots completed this round (or the one cancelled), ascending
	checkViews  []sched.JobView // the touched slots' views and rows, gathered
	checkRows   [][]int         // for ValidateAllotments
	slotOracle  func(error)

	// Reused per-round buffers.
	leapBuf    sched.Matrix // totals buffer for event-leaps
	doneIDs    []int        // completions of the current round
	stepExec   []int        // tasks executed in the current round, per category
	perStepBuf []int        // per-step allotment bound passed to StableRuntime

	// Per-call accumulators for StepN (a call may span many rounds).
	callExec []int
	callDone []int
	callRel  []int
}

// NewEngine validates the job-independent configuration and returns an
// empty engine at clock 0. Jobs arrive through Admit; time advances
// through Step.
func NewEngine(cfg Config) (*Engine, error) {
	if err := checkEngineConfig(&cfg); err != nil {
		return nil, err
	}
	cfg.Caps = append([]int(nil), cfg.Caps...)
	e := &Engine{
		cfg:         cfg,
		trace:       newTrace(cfg.Trace, cfg.K),
		overloaded:  make([]bool, cfg.K),
		execTotal:   make([]int64, cfg.K),
		stepExec:    make([]int, cfg.K),
		callExec:    make([]int, cfg.K),
		perStepBuf:  make([]int, cfg.K),
		activeCount: make([]int, cfg.K),
		changed:     make([]bool, cfg.K),
		heads:       make([]int, cfg.K),
		nextID:      make([]int, cfg.K),
	}
	if e.delta, _ = cfg.Scheduler.(sched.DeltaAllotter); e.delta == nil {
		e.delta = sched.FromDense(cfg.Scheduler)
	}
	e.stable, _ = cfg.Scheduler.(sched.Stable)
	if cl, ok := cfg.Scheduler.(sched.Clairvoyant); ok {
		cl.SetOracle(engineOracle{e})
	}
	return e, nil
}

// Now returns the clock: the index of the last executed step (0 before the
// first step).
func (e *Engine) Now() int64 { return e.now }

// SchedulerName reports the configured scheduler's self-description.
func (e *Engine) SchedulerName() string { return e.cfg.Scheduler.Name() }

// Remaining returns the number of admitted jobs that have neither
// completed nor been cancelled.
func (e *Engine) Remaining() int { return e.remaining }

// Idle reports whether the engine has nothing to do: no active jobs and no
// pending releases.
func (e *Engine) Idle() bool { return len(e.active) == 0 && e.pendingLen() == 0 }

// pendingLen is the number of admitted, not-yet-released jobs.
func (e *Engine) pendingLen() int { return len(e.pending) - e.pendOff }

// NextID is the ID the next admission will receive. Monotonic; retirement
// never lowers it.
func (e *Engine) NextID() int { return len(e.jobs) }

// PendingWork is the total task count of admitted, not-yet-released jobs —
// the work a victim engine could donate to cross-shard stealing without
// touching any runtime state. Maintained incrementally; reading it is free.
func (e *Engine) PendingWork() int64 { return e.pendingWork }

// EstWork estimates the unexecuted tasks across pending and active jobs:
// admitted work minus drained steps, maintained incrementally so the hot
// path never scans the job table. Exact for unit-task families; for
// moldable runtimes it is an estimate (duration-weighted task counts) that
// self-corrects to zero whenever the engine drains idle.
func (e *Engine) EstWork() int64 {
	if e.remaining == 0 {
		return 0
	}
	if e.estWork < e.pendingWork {
		return e.pendingWork
	}
	return e.estWork
}

// Admit adds a job to the running engine and returns its assigned ID.
// IDs are assigned in admission order, so admitting jobs in release order
// reproduces Run's ID assignment exactly. The release time must not lie in
// the past (release ≥ Now); a job released at r becomes schedulable at
// step r+1.
func (e *Engine) Admit(spec JobSpec) (int, error) {
	js, tasks, err := e.prepare(spec, len(e.jobs))
	if err != nil {
		return -1, err
	}
	e.commit(js, tasks)
	return js.id, nil
}

// AdmitBatch admits every spec under one validation pass, assigning IDs in
// slice order. It is all-or-nothing: if any spec is invalid, no job is
// admitted and the engine is unchanged. Besides atomicity, the point is
// contention: callers that serialize engine access (internal/server) pay
// one lock acquisition for the whole burst instead of one per job.
func (e *Engine) AdmitBatch(specs []JobSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	base := len(e.jobs)
	states := make([]*jobState, len(specs))
	taskCounts := make([]int, len(specs))
	for i, spec := range specs {
		js, tasks, err := e.prepare(spec, base+i)
		if err != nil {
			// All-or-nothing: return already-prepared states to the free
			// list (prepare may have popped them from it).
			for _, prev := range states[:i] {
				e.free = append(e.free, prev)
			}
			return nil, err
		}
		states[i], taskCounts[i] = js, tasks
	}
	ids := make([]int, len(specs))
	for i, js := range states {
		e.commit(js, taskCounts[i])
		ids[i] = js.id
	}
	return ids, nil
}

// CheckAdmit reports the error AdmitBatch(specs) would return, changing
// nothing: a caller that must make an admission durable before committing
// it (internal/server's journal-then-apply order) validates here first, so
// the admission it then journals cannot fail. Under TraceTasks the check
// mints a throw-away runtime per job to see whether it reports task IDs;
// every other configuration allocates nothing.
func (e *Engine) CheckAdmit(specs []JobSpec) error {
	for i, spec := range specs {
		id := len(e.jobs) + i
		if err := e.checkAdmissible(spec, id); err != nil {
			return err
		}
		if e.cfg.Trace >= TraceTasks {
			src := spec.source()
			if _, ok := src.NewRuntime(e.cfg.Pick, e.cfg.Seed+int64(id)).(TaskRuntime); !ok {
				return errNoTaskIDs(id, src)
			}
		}
	}
	return nil
}

// checkAdmissible is the runtime-free half of admission validation: the
// spec's shape against the configuration and its release against the clock.
func (e *Engine) checkAdmissible(spec JobSpec, id int) error {
	if err := checkSpec(&e.cfg, spec, id); err != nil {
		return err
	}
	if spec.Release < e.now {
		return fmt.Errorf("sim: job %d release %d is in the past (clock is at %d)", id, spec.Release, e.now)
	}
	return nil
}

func errNoTaskIDs(id int, src JobSource) error {
	return fmt.Errorf("sim: job %d (%s) runtime cannot report task IDs; TraceTasks requires DAG-backed jobs", id, src.Name())
}

// prepare validates one spec against the engine's clock and configuration
// and builds its jobState without touching engine state, so a batch can
// validate every member before admitting any. Retired jobStates are
// recycled from the free list: sources implementing WorkAppender and
// RuntimeReuser make the steady-state admit→complete→retire→admit cycle
// allocation-free.
func (e *Engine) prepare(spec JobSpec, id int) (*jobState, int, error) {
	if err := e.checkAdmissible(spec, id); err != nil {
		return nil, 0, err
	}
	src := spec.source()
	var js *jobState
	if n := len(e.free); n > 0 {
		js = e.free[n-1]
		e.free = e.free[:n-1]
	}
	seed := e.cfg.Seed + int64(id)
	var rt RuntimeJob
	if js != nil && js.rt != nil {
		if ru, ok := src.(RuntimeReuser); ok {
			rt, _ = ru.ReuseRuntime(js.rt, e.cfg.Pick, seed)
		}
	}
	if rt == nil {
		rt = src.NewRuntime(e.cfg.Pick, seed)
	}
	if js != nil {
		work := js.work[:0]
		if wa, ok := src.(WorkAppender); ok {
			work = wa.AppendWork(work)
		} else {
			work = append(work, src.WorkVector()...)
		}
		*js = jobState{id: id, release: spec.Release, rt: rt, work: work, span: src.Span(), phase: JobPending}
	} else {
		js = &jobState{
			id:      id,
			release: spec.Release,
			rt:      rt,
			work:    src.WorkVector(),
			span:    src.Span(),
			phase:   JobPending,
		}
	}
	js.caps = bindCaps(rt)
	js.family = FamilyOf(src)
	if e.cfg.Trace >= TraceTasks && js.caps.task == nil {
		e.free = append(e.free, js)
		return nil, 0, errNoTaskIDs(id, src)
	}
	js.tasks = src.TotalTasks()
	js.spec = spec
	return js, js.tasks, nil
}

// commit registers a prepared jobState with the engine.
func (e *Engine) commit(js *jobState, tasks int) {
	e.jobs = append(e.jobs, js)
	e.insertPending(js)
	e.remaining++
	e.totalWork += int64(tasks)
	e.pendingWork += int64(tasks)
	e.estWork += int64(tasks)
	if js.release > e.maxRelease {
		e.maxRelease = js.release
	}
}

// Cancel withdraws an unfinished job. A pending job simply never releases;
// an active job is removed from the schedule, so the processors it held
// are available to the scheduler from the next step on. Completed or
// already-cancelled jobs cannot be cancelled.
func (e *Engine) Cancel(id int) error {
	if id < 0 || id >= len(e.jobs) || e.jobs[id] == nil {
		return fmt.Errorf("sim: no job %d", id)
	}
	js := e.jobs[id]
	switch js.phase {
	case JobDone:
		return fmt.Errorf("sim: job %d already completed at step %d", id, js.completed)
	case JobCancelled:
		return fmt.Errorf("sim: job %d already cancelled", id)
	case JobStolen:
		return fmt.Errorf("sim: job %d was withdrawn by work stealing", id)
	case JobPending:
		live := removeJob(e.pending[e.pendOff:], js)
		e.pending = e.pending[:e.pendOff+len(live)]
		e.pendingWork -= int64(js.tasks)
		e.estWork -= int64(js.tasks)
		js.spec = JobSpec{}
	case JobActive:
		i := e.activeIndex(id)
		e.dropSlot(i)
		e.gone = append(e.gone[:0], int32(i))
		e.removeSlots(e.gone)
		for _, w := range js.rt.RemainingWork() {
			e.estWork -= int64(w)
		}
		if e.estWork < 0 {
			e.estWork = 0
		}
	}
	js.phase = JobCancelled
	js.cancelledAt = e.now
	e.remaining--
	e.cancelledN++
	return nil
}

// Withdraw removes a pending (not-yet-released) job so it can be
// re-admitted on another engine — the sim half of cross-shard work
// stealing. It returns the job's original spec (with its original release)
// so the thief admits bit-identically what the victim lost. Only pending
// jobs are stealable: they carry no runtime state, so migration is exactly
// cancel-here + admit-there. The job's phase becomes JobStolen — terminal
// for this engine — and its ID is never reused.
func (e *Engine) Withdraw(id int) (JobSpec, error) {
	if id < 0 || id >= len(e.jobs) || e.jobs[id] == nil {
		return JobSpec{}, fmt.Errorf("sim: no job %d", id)
	}
	js := e.jobs[id]
	if js.phase != JobPending {
		return JobSpec{}, fmt.Errorf("sim: job %d is %s; only pending jobs can be withdrawn", id, js.phase)
	}
	live := removeJob(e.pending[e.pendOff:], js)
	e.pending = e.pending[:e.pendOff+len(live)]
	spec := js.spec
	spec.Release = js.release
	js.spec = JobSpec{}
	js.phase = JobStolen
	js.cancelledAt = e.now
	e.remaining--
	e.stolenN++
	e.pendingWork -= int64(js.tasks)
	e.estWork -= int64(js.tasks)
	if e.estWork < 0 {
		e.estWork = 0
	}
	return spec, nil
}

// StealCandidates appends pending job IDs to buf, newest release first,
// until their cumulative task count reaches targetWork or maxJobs IDs are
// collected, and returns the extended slice. Walking the pending queue from
// the tail prefers the jobs released furthest in the future — the ones
// least likely to start before a thief can re-admit them. The caller then
// withdraws each ID; no engine state changes here.
func (e *Engine) StealCandidates(buf []int, maxJobs int, targetWork int64) []int {
	var got int64
	for i := len(e.pending) - 1; i >= e.pendOff && len(buf) < maxJobs && got < targetWork; i-- {
		js := e.pending[i]
		buf = append(buf, js.id)
		got += int64(js.tasks)
	}
	return buf
}

// Retire forgets a terminal (completed or cancelled) job, recycling its
// state for a future Admit. After Retire, Job(id) reports the job unknown
// and the ID is never reassigned — IDs stay monotonic, so admission-order
// reproducibility and journal replay are unaffected (retirement is a local
// memory optimization, not a scheduling event, and is deliberately not
// journaled). Long-running services retire jobs once their terminal status
// has been recorded elsewhere, bounding engine memory under streams of
// millions of jobs. Retired jobs are omitted from Result and Checkpoint;
// aggregate counters (Snapshot, checkpoint totals) still include them.
func (e *Engine) Retire(id int) error {
	if id < 0 || id >= len(e.jobs) || e.jobs[id] == nil {
		return fmt.Errorf("sim: no job %d", id)
	}
	js := e.jobs[id]
	if js.phase != JobDone && js.phase != JobCancelled && js.phase != JobStolen {
		return fmt.Errorf("sim: job %d is %s; only completed, cancelled or stolen jobs can be retired", id, js.phase)
	}
	e.jobs[id] = nil
	e.free = append(e.free, js)
	return nil
}

// Job returns the status of an admitted job.
func (e *Engine) Job(id int) (JobStatus, bool) {
	if id < 0 || id >= len(e.jobs) || e.jobs[id] == nil {
		return JobStatus{}, false
	}
	js := e.jobs[id]
	return JobStatus{
		ID:          js.id,
		Release:     js.release,
		Phase:       js.phase,
		Family:      js.family,
		Completion:  js.completed,
		CancelledAt: js.cancelledAt,
		Work:        append([]int(nil), js.work...),
		Span:        js.span,
	}, true
}

// JobRef is Job without the defensive work-vector copy: the returned
// status's Work aliases engine-owned memory that is recycled when the job
// is retired, so callers must copy anything they retain past the call. It
// exists for allocation-free status plumbing — a server rebuilding its
// job-status index after replay reads every job through it without a
// per-job allocation.
func (e *Engine) JobRef(id int) (JobStatus, bool) {
	if id < 0 || id >= len(e.jobs) || e.jobs[id] == nil {
		return JobStatus{}, false
	}
	js := e.jobs[id]
	return JobStatus{
		ID:          js.id,
		Release:     js.release,
		Phase:       js.phase,
		Family:      js.family,
		Completion:  js.completed,
		CancelledAt: js.cancelledAt,
		Work:        js.work,
		Span:        js.span,
	}, true
}

// Completion returns the step a job finished at (0 while unfinished)
// without copying its work vector — the allocation-free fast path for
// per-completion accounting in serving loops.
func (e *Engine) Completion(id int) (int64, bool) {
	if id < 0 || id >= len(e.jobs) || e.jobs[id] == nil {
		return 0, false
	}
	return e.jobs[id].completed, true
}

// Snapshot summarizes the engine's current state.
func (e *Engine) Snapshot() EngineSnapshot {
	return EngineSnapshot{
		Now:           e.now,
		K:             e.cfg.K,
		Caps:          append([]int(nil), e.cfg.Caps...),
		Admitted:      len(e.jobs),
		Pending:       e.pendingLen(),
		Active:        len(e.active),
		Completed:     e.completedN,
		Cancelled:     e.cancelledN,
		Stolen:        e.stolenN,
		Makespan:      e.makespan,
		ExecutedTotal: append([]int64(nil), e.execTotal...),
		LeapSteps:     e.leapSteps,
		LeapBlocked:   e.leapBlocked,
	}
}

// maxStepsBound is the runaway guard: the configured MaxSteps, or the
// automatic bound derived from the work admitted so far.
func (e *Engine) maxStepsBound() int64 {
	if e.cfg.MaxSteps != 0 {
		return e.cfg.MaxSteps
	}
	return 4*(e.totalWork+e.maxRelease) + 64
}

// Step advances the clock by one executed step: it releases due jobs
// (fast-forwarding over idle intervals, exactly like Run), asks the
// scheduler for allotments, executes them, and detects completions. When
// the engine is idle it returns StepInfo{Idle: true} without advancing the
// clock, so a live service's virtual time freezes while empty.
func (e *Engine) Step() (StepInfo, error) { return e.stepN(1) }

// StepN advances the clock by up to n executed steps under one call,
// stopping early only when the engine goes idle. It is bit-identical to
// calling Step n times and merging the results — same virtual time, job
// IDs, scheduler state, traces and totals — but exploits event-leaps
// where provably safe: when the scheduler reports a stable horizon
// (sched.Stable), every active job supports closed-form multi-step
// execution (LeapRuntime), no release is due and no observer/trace/speed
// feature needs per-step hooks, many steps are executed per scheduling
// round. Chunking is also immaterial: StepN(a) followed by StepN(b)
// leaves the engine in the same state as StepN(a+b).
func (e *Engine) StepN(n int64) (StepInfo, error) {
	if n < 1 {
		return StepInfo{}, fmt.Errorf("sim: StepN(%d): need n ≥ 1", n)
	}
	return e.stepN(n)
}

// stepN is the shared Step/StepN driver: release due jobs, fast-forward
// idle gaps, and run scheduling rounds until budget steps have executed
// or the engine is idle.
func (e *Engine) stepN(budget int64) (StepInfo, error) {
	e.callRel = e.callRel[:0]
	e.callDone = e.callDone[:0]
	for a := range e.callExec {
		e.callExec[a] = 0
	}
	var steps, leaps int64
	for steps < budget {
		if e.Idle() {
			break
		}
		t := e.now + 1
		if t > e.maxStepsBound() {
			return StepInfo{}, fmt.Errorf("sim: scheduler %q exceeded %d steps with %d jobs unfinished — likely a non-work-conserving allotment bug", e.cfg.Scheduler.Name(), e.maxStepsBound(), e.remaining)
		}
		// Release: a job released at r is schedulable from step r+1.
		for e.pendOff < len(e.pending) && e.pending[e.pendOff].release < t {
			js := e.pending[e.pendOff]
			e.pending[e.pendOff] = nil
			e.pendOff++
			js.phase = JobActive
			// Release hands the job's state to its runtime: it is no longer
			// stealable, so drop the retained spec and its pending-work share.
			e.pendingWork -= int64(js.tasks)
			js.spec = JobSpec{}
			e.insertActive(js)
			e.callRel = append(e.callRel, js.id)
		}
		if e.pendOff == len(e.pending) {
			// Queue drained: recover the backing array's full capacity.
			e.pending = e.pending[:0]
			e.pendOff = 0
		}
		if len(e.active) == 0 {
			// Idle interval: fast-forward to the next release (the loop's
			// t = now+1 then lands on release+1).
			e.now = e.pending[e.pendOff].release
			continue
		}
		e.now = t
		did, err := e.executeRound(t, budget-steps)
		if err != nil {
			return StepInfo{}, err
		}
		steps += did
		if did > 1 {
			leaps += did - 1
		}
	}
	e.leapSteps += leaps
	if e.remaining == 0 {
		// Drained: snap the work estimate back to truth so estimation error
		// from moldable runtimes cannot accumulate across bursts.
		e.estWork = 0
		e.pendingWork = 0
	}
	info := StepInfo{
		Step:      e.now,
		Idle:      steps == 0,
		Steps:     steps,
		LeapSteps: leaps,
		Active:    len(e.active),
	}
	if steps > 0 {
		info.Executed = e.callExec
	}
	if len(e.callRel) > 0 {
		info.Released = e.callRel
	}
	if len(e.callDone) > 0 {
		info.Completed = e.callDone
	}
	return info, nil
}

// executeRound runs one scheduling round at step t: ask the scheduler, which
// has been told every change to the slot table, for step t's grants, then
// execute them for one step or, when the whole system is provably in a
// stable regime, for up to budget steps in one event-leap. It returns how
// many steps were executed (≥ 1).
//
// The views are not rebuilt: they are current by the slot-table invariant
// (slots.go), and only the slots this round touches — the grants name them,
// nothing is scanned — are executed, advanced, checked for completion and
// re-read, which is all the idle-step law requires.
func (e *Engine) executeRound(t int64, budget int64) (int64, error) {
	if e.slotOracle != nil {
		if err := e.checkSlots(); err != nil {
			e.slotOracle(fmt.Errorf("step %d: %w", t, err))
		}
	}
	n := len(e.active)
	overloadNow := false
	for a, c := range e.activeCount {
		if c > e.cfg.Caps[a] {
			e.overloaded[a] = true
			overloadNow = true
		}
	}

	allot := e.allot[:n]
	var touched []int32
	grants, err := e.delta.AllotDelta(t, e.cfg.Caps)
	if err == nil {
		touched, err = e.applyGrants(grants)
	}
	if err != nil {
		e.clearAllot(n)
		return 0, fmt.Errorf("sim: step %d: %w", t, err)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer(t, e.views, allot)
	}
	if e.cfg.ValidateAllotments {
		// Rows of zeros for floor-free jobs satisfy every Section 2
		// condition and add nothing to a column sum, so checking the
		// touched rows checks the matrix. Two cases go to the validator
		// whole: every row touched (nothing to leave out), and a job that
		// pins processors handed a row of zeros (for the validator to name).
		views, rows := e.views, allot
		if len(touched) < n && e.flooredAmong(touched) == e.floored {
			views, rows = e.checkViews[:0], e.checkRows[:0]
			for _, i := range touched {
				views = append(views, e.views[i])
				rows = append(rows, allot[i])
			}
			e.checkViews, e.checkRows = views, rows
		}
		if err := sched.ValidateAllotments(views, e.cfg.Caps, rows); err != nil {
			e.clearAllot(n)
			return 0, fmt.Errorf("sim: step %d: %w", t, err)
		}
	}

	// Event-leap: repeat this exact allotment for n steps when it is
	// provably what single-stepping would have produced. Requires the
	// scheduler to vouch for its own output (Stable), every active job to
	// either support closed-form multi-step execution (drain law) or be in
	// a held phase (hold law), every DAG-backed runtime to vouch its
	// frontier level cannot promote mid-window (StableRuntime), every held
	// job to vouch no lease finishes mid-window (HoldRuntime), and no
	// per-step hook that would observe the skipped rounds. tryLeap counts
	// the blocking reason otherwise.
	if budget > 1 {
		if m := e.tryLeap(t, allot, budget, overloadNow); m > 1 {
			e.leapRound(t, allot, m)
			return m, nil
		}
	}

	// Execute one step. Each job consumes min(allotment, desire) ready
	// tasks per category; completed tasks release successors at the step
	// (or micro-round, under speed augmentation) boundary.
	for a := range e.stepExec {
		e.stepExec[a] = 0
	}
	rounds := e.cfg.Speed
	if rounds < 1 {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		e.execute(t, touched, allot)
		for _, i := range touched {
			e.active[i].rt.Advance()
		}
	}
	for a, c := range e.stepExec {
		e.execTotal[a] += int64(c)
		e.callExec[a] += c
		e.estWork -= int64(c)
	}
	if e.estWork < 0 {
		e.estWork = 0
	}

	// Step boundary: detect completions among the touched slots, re-read
	// the survivors, and hand the rows back zeroed.
	e.doneIDs = e.doneIDs[:0]
	e.gone = e.gone[:0]
	for _, ti := range touched {
		i := int(ti)
		clear(allot[i])
		j := e.active[i]
		if !j.rt.Done() {
			e.rereadSlot(i)
			continue
		}
		j.completed = t
		j.phase = JobDone
		if t > e.makespan {
			e.makespan = t
		}
		e.doneIDs = append(e.doneIDs, j.id)
		e.remaining--
		e.completedN++
		e.dropSlot(i)
		e.gone = append(e.gone, ti)
	}
	if len(e.gone) > 0 {
		e.removeSlots(e.gone)
		e.callDone = append(e.callDone, e.doneIDs...)
	}
	e.trace.endStep(t, n, len(e.doneIDs))
	return 1, nil
}

// applyGrants merges the scheduler's per-category grants, each ascending
// by job ID, into the engine's allotment rows and returns the slots written —
// the round's touched list, ascending. Slots ascend with IDs, so each job is
// looked for from where the last was found, galloping: O(log gap) per job,
// not O(log n).
func (e *Engine) applyGrants(grants [][]sched.CatGrant) ([]int32, error) {
	k, n := e.cfg.K, len(e.views)
	if len(grants) != k {
		return nil, fmt.Errorf("scheduler %q granted in %d categories, want %d", e.cfg.Scheduler.Name(), len(grants), k)
	}
	// next[a] is the job ID at the head of category a's grants.
	const none = int(^uint(0) >> 1)
	touched, heads, next := e.touched[:0], e.heads, e.nextID
	for a, g := range grants {
		heads[a], next[a] = 0, none
		if len(g) > 0 {
			next[a] = g[0].ID
		}
	}
	for lo := 0; ; lo++ {
		id := none
		for _, x := range next {
			id = min(id, x)
		}
		if id == none {
			break
		}
		if lo >= n || e.views[lo].ID != id {
			hi := lo
			for step := 1; hi < n && e.views[hi].ID < id; step <<= 1 {
				lo = hi + 1
				hi += step
			}
			hi = min(hi, n)
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); e.views[mid].ID < id {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == n || e.views[lo].ID != id {
				e.touched = touched
				return nil, fmt.Errorf("scheduler %q granted processors to job %d, which is not active (or not in ascending ID order)", e.cfg.Scheduler.Name(), id)
			}
		}
		row := e.allot[lo]
		for a, x := range next {
			if x != id {
				continue
			}
			g, h := grants[a], heads[a]
			row[a] = g[h].N
			heads[a], next[a] = h+1, none
			if h+1 < len(g) {
				next[a] = g[h+1].ID
			}
		}
		touched = append(touched, int32(lo))
	}
	e.touched = touched
	return touched, nil
}

// tryLeap decides whether the round at step t may extend into an event-leap
// and for how many steps (≤ budget; 1 means "no leap"). When a disqualifier
// blocks the leap it increments the matching LeapBlocked counter; rounds
// merely clipped to one step by an imminent release or the runaway guard
// count nothing.
func (e *Engine) tryLeap(t int64, allot [][]int, budget int64, overloadNow bool) int64 {
	switch {
	case e.cfg.NoLeap:
		e.leapBlocked.NoLeap++
	case e.cfg.Speed > 1:
		e.leapBlocked.Speed++
	case e.cfg.Observer != nil:
		e.leapBlocked.Observer++
	case e.trace.level >= TraceTasks:
		e.leapBlocked.Trace++
	case e.hardFloors > 0:
		e.leapBlocked.Floors++
	case e.softUnheld > 0:
		e.leapBlocked.Hold++
	case e.noLeap > 0:
		e.leapBlocked.Runtime++
	case e.stable == nil:
		e.leapBlocked.Scheduler++
	default:
		h := e.stable.StableHorizon()
		if h <= 0 {
			if overloadNow {
				e.leapBlocked.Overload++
			} else {
				e.leapBlocked.Scheduler++
			}
			return 1
		}
		n := budget
		if h < budget-1 {
			n = h + 1
		}
		// A job released at r joins the views at step r+1: the leap must
		// not run past the step preceding that.
		if e.pendingLen() > 0 {
			if m := e.pending[e.pendOff].release - t + 1; m < n {
				n = m
			}
		}
		if m := e.maxStepsBound() - t + 1; m < n {
			n = m
		}
		if n <= 1 {
			return 1
		}
		// Per-job windows. Held jobs: the lease countdowns bound how long
		// the held phase provably lasts (the window must end before any
		// finish). DAG-backed runtimes: the scheduler's horizon covers how
		// desires evolve, but each instance must additionally vouch that
		// none of the covered boundaries can promote tasks (level
		// stability). The per-step bound is the step-t allotment plus the
		// one processor the rotating DEQ remainder may add on later covered
		// steps (the Stable contract's per-step bound).
		for i, j := range e.active {
			if e.flags[i]&slotHeld != 0 {
				hf := j.caps.hold.HoldFor()
				if hf <= 0 {
					e.leapBlocked.Hold++
					return 1
				}
				if hf < n-1 {
					n = hf + 1
				}
				continue
			}
			if j.caps.stable == nil {
				continue
			}
			for a, v := range allot[i] {
				if v > 0 {
					v++
				}
				e.perStepBuf[a] = v
			}
			sf := j.caps.stable.StableFor(e.perStepBuf)
			if sf <= 0 {
				e.leapBlocked.DAGFrontier++
				return 1
			}
			if sf < n-1 {
				n = sf + 1
			}
		}
		return n
	}
	return 1
}

// leapRound executes the n consecutive steps t..t+n−1 in closed form. The
// scheduler vouched (StableHorizon) that its cross-step state is frozen
// and the per-step allotments over the window are computable by
// LeapTotals; the caller established that no release, completion or phase
// boundary falls inside it. Job state advances by the aggregate totals
// (LeapTasks); per-step execution counts — every covered step's column
// sums equal step t's (the stability contract) — feed the trace rows at
// TraceSteps, so the result is bit-identical to single-stepping.
func (e *Engine) leapRound(t int64, allot [][]int, n int64) {
	totals := e.leapBuf.Shape(len(e.views), e.cfg.K)
	e.stable.LeapTotals(t, e.views, e.cfg.Caps, n, totals)
	for i, j := range e.active {
		if e.flags[i]&slotHeld != 0 {
			j.caps.hold.LeapHold(n)
		} else {
			j.caps.leap.LeapTasks(totals[i])
		}
	}
	// Per-step category totals: column sums of the step-t matrix, constant
	// across the window.
	for a := range e.stepExec {
		e.stepExec[a] = 0
	}
	for _, row := range allot {
		for a, v := range row {
			e.stepExec[a] += v
		}
	}
	for a, c := range e.stepExec {
		e.execTotal[a] += int64(c) * n
		e.callExec[a] += c * int(n)
		e.estWork -= int64(c) * n
	}
	if e.estWork < 0 {
		e.estWork = 0
	}
	if e.trace.level >= TraceSteps {
		for s := t; s < t+n; s++ {
			e.trace.recordCounts(s, e.stepExec)
			e.trace.endStep(s, len(e.active), 0)
		}
	}
	e.now = t + n - 1
	// A leap moves every job: the whole table is re-read.
	for i := range e.active {
		e.rereadSlot(i)
	}
	e.clearAllot(len(e.active))
}

// Result assembles the run outcome from the jobs admitted so far: makespan,
// per-job completions (cancelled jobs report Completion 0), overload flags
// and the trace. It may be called at any point; Run calls it once all jobs
// have completed.
func (e *Engine) Result() *Result {
	speed := e.cfg.Speed
	if speed < 1 {
		speed = 1
	}
	res := &Result{
		Scheduler:  e.cfg.Scheduler.Name(),
		K:          e.cfg.K,
		Caps:       append([]int(nil), e.cfg.Caps...),
		Speed:      speed,
		Makespan:   e.makespan,
		Overloaded: append([]bool(nil), e.overloaded...),
		Trace:      e.trace,
	}
	res.Jobs = make([]JobResult, 0, len(e.jobs))
	for _, j := range e.jobs {
		if j == nil {
			continue // retired
		}
		res.Jobs = append(res.Jobs, JobResult{
			ID:         j.id,
			Release:    j.release,
			Completion: j.completed,
			Work:       j.work,
			Span:       j.span,
		})
	}
	return res
}

// insertPending inserts into the pending queue, keeping (release, ID)
// order — the stable-sort order Run admits in.
func (e *Engine) insertPending(js *jobState) {
	live := e.pending[e.pendOff:]
	i := sort.Search(len(live), func(i int) bool {
		p := live[i]
		if p.release != js.release {
			return p.release > js.release
		}
		return p.id > js.id
	})
	e.pending = append(e.pending, nil)
	live = e.pending[e.pendOff:]
	copy(live[i+1:], live[i:])
	live[i] = js
}

// removeJob deletes js from a slice, preserving order.
func removeJob(list []*jobState, js *jobState) []*jobState {
	for i, p := range list {
		if p == js {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// execute runs the touched slots' allotments in slot (ascending ID) order.
func (e *Engine) execute(t int64, touched []int32, allot [][]int) {
	taskLevel := e.trace.level >= TraceTasks
	for _, i := range touched {
		j := e.active[i]
		for a, n := range allot[i][:e.cfg.K] {
			if n == 0 {
				continue
			}
			if taskLevel {
				run := j.caps.task.ExecuteTasks(dag.Category(a+1), n)
				e.trace.record(t, j.id, a+1, run)
				e.stepExec[a] += len(run)
			} else {
				ran := j.rt.Execute(dag.Category(a+1), n)
				e.trace.add(t, a+1, ran)
				e.stepExec[a] += ran
			}
		}
	}
}

// engineOracle adapts the engine's job table to sched.Oracle for
// clairvoyant baselines. It reads through the engine so jobs admitted
// after SetOracle are visible.
type engineOracle struct{ e *Engine }

func (o engineOracle) RemainingWork(jobID int) []int {
	js := o.e.jobs[jobID]
	if js == nil {
		return nil // retired; schedulers only query live jobs
	}
	return js.rt.RemainingWork()
}

func (o engineOracle) ReleaseTime(jobID int) int64 {
	js := o.e.jobs[jobID]
	if js == nil {
		return 0
	}
	return js.release
}
