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

// jobState is the engine's bookkeeping for one live (pending or active)
// job; the job's status lives in the engine's status table. At the step the
// job ends, its jobState goes back onto the free list.
type jobState struct {
	id      int
	release int64
	// rt is the job's runtime from admission until the step the job ends;
	// caps caches its optional capabilities (bound once at admission; see
	// family.go) so hot paths never type-switch. release clears both.
	rt    RuntimeJob
	caps  runtimeCaps
	tasks int // src.TotalTasks(), cached for the work gauges
	// spec is the original admission spec, retained only while the job is
	// pending so Withdraw can hand it to another engine; cleared on
	// release, cancellation and withdrawal so active jobs pin nothing.
	spec JobSpec
}

// Engine is the incremental form of the simulator: the same machine Run
// drives, but with jobs admitted (and cancelled) while the clock runs.
// An Engine is NOT goroutine-safe — callers that share one across
// goroutines must serialize access (internal/server does). ReadJob alone
// may run beside that one writer.
type Engine struct {
	cfg Config

	now int64
	// recs holds every admitted job's status, indexed by ID; Retire drops
	// a record. Live jobs also have a jobState, in pending or active.
	recs statusTable
	// pending holds admitted, not-yet-released jobs sorted by (release,
	// ID); the live window is pending[pendOff:]. Releases advance pendOff
	// instead of re-slicing so the backing array's capacity is recovered
	// when the queue drains — a steady submit→release cycle reallocates
	// nothing.
	pending    []*jobState
	pendOff    int
	active     []*jobState // the slot table's jobs: released, unfinished, ascending ID; nil in a hole
	live       int         // slots of active that hold a job
	free       []*jobState // ended jobs' states, recycled by the next Admit
	batch      []*jobState // AdmitBatch's prepared states, reused per call
	remaining  int         // admitted − completed − cancelled − stolen
	completedN int
	cancelledN int
	stolenN    int // jobs withdrawn by cross-shard work stealing

	// parked holds released runtimes that their sources can reset in
	// place, one pool per RuntimeFamily; parkedN counts all of them, and
	// burst is the largest admission so far — one Admit, or one
	// AdmitBatch's length — which bounds them and the free list (see
	// release). noRecycle (set by tests only) parks and recycles nothing.
	parked    [FamilyMoldable + 1][]ReusableRuntime
	parkedN   int
	burst     int
	noRecycle bool

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
	// report either way: FromDense hands it views of the residual desires,
	// which leapRound rebuilds for LeapTotals.
	delta  sched.DeltaAllotter
	stable sched.Stable

	// The slot table (slots.go): per-slot arrays parallel to active, and
	// the aggregates over them, maintained incrementally instead of being
	// rebuilt every round. A hole's rows are zero and its view keeps the ID
	// of the job that left it.
	views       []sched.JobView // what the scheduler sees; slot i is active[i]
	desire      []int           // flat desire rows; views[i].Desire is row i
	floor       []int           // flat floor rows; nil until a floor-bearing job is released
	flags       []uint8         // slotHeld | slotSoftUnheld | slotHardFloor | slotNoLeap
	allot       [][]int         // the allotment rows applyGrants writes; zero between rounds
	allotBack   []int
	activeCount []int   // per category: slots with desire > 0
	hardFloors  int     // slots flagged slotHardFloor
	softUnheld  int     // slots flagged slotSoftUnheld
	noLeap      int     // slots flagged slotNoLeap
	pinned      []int   // per category: Σ floors over the slots
	floorIDs    []int   // the jobs whose view carries floors, ascending
	residual    []int   // the residual desire row report hands the scheduler
	resCaps     []int   // caps − pinned, what the scheduler partitions
	changed     []bool  // per category: did refreshSlot's last re-read change that entry
	heads       []int   // per category: applyGrants' position in that category's grants,
	nextID      []int   // and the job ID there
	touched     []int32 // slots with a non-zero allotment row this round, ascending
	slotOracle  func(error)

	// Reused per-round buffers.
	leapBuf    sched.Matrix    // totals buffer for event-leaps
	leapViews  []sched.JobView // the residual views LeapTotals reads under floors
	zeros      []int           // a held job's residual desire row
	doneIDs    []int           // completions of the current round
	stepExec   []int           // tasks executed in the current round, per category
	perStepBuf []int           // per-step allotment bound passed to StableRuntime

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
		recs:        statusTable{k: cfg.K},
		trace:       newTrace(cfg.Trace, cfg.K),
		overloaded:  make([]bool, cfg.K),
		execTotal:   make([]int64, cfg.K),
		stepExec:    make([]int, cfg.K),
		callExec:    make([]int, cfg.K),
		perStepBuf:  make([]int, cfg.K),
		activeCount: make([]int, cfg.K),
		pinned:      make([]int, cfg.K),
		residual:    make([]int, cfg.K),
		resCaps:     make([]int, cfg.K),
		zeros:       make([]int, cfg.K),
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
func (e *Engine) Idle() bool { return e.live == 0 && e.pendingLen() == 0 }

// pendingLen is the number of admitted, not-yet-released jobs.
func (e *Engine) pendingLen() int { return len(e.pending) - e.pendOff }

// NextID is the ID the next admission will receive. Monotonic; retirement
// never lowers it.
func (e *Engine) NextID() int { return e.recs.Len() }

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
	js, err := e.prepare(spec, e.NextID())
	if err != nil {
		return -1, err
	}
	e.commit(js)
	e.burst = max(e.burst, 1)
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
	base := e.NextID()
	states := e.batch[:0]
	for i, spec := range specs {
		js, err := e.prepare(spec, base+i)
		if err != nil {
			// All-or-nothing: park the prepared runtimes and return the
			// states to the free list (prepare may have popped them from it).
			for _, prev := range states {
				e.release(prev, FamilyOf(prev.spec.source()))
				e.recycle(prev)
			}
			e.batch = states
			return nil, err
		}
		states = append(states, js)
	}
	e.batch = states
	ids := make([]int, len(specs))
	for i, js := range states {
		e.commit(js)
		ids[i] = js.id
	}
	e.burst = max(e.burst, len(specs))
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
		id := e.NextID() + i
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
// validate every member before admitting any. Runtimes come from the
// parked pool of the job's family when its source implements
// RuntimeReuser, and jobStates from the free list the ends of earlier jobs
// fill, on every engine. With both warm, and a source implementing
// WorkAppender, the steady-state admit→complete cycle allocates nothing
// beyond a status page per 128 admissions.
func (e *Engine) prepare(spec JobSpec, id int) (*jobState, error) {
	if err := e.checkAdmissible(spec, id); err != nil {
		return nil, err
	}
	src := spec.source()
	family := FamilyOf(src)
	seed := e.cfg.Seed + int64(id)
	var rt RuntimeJob
	if ru, ok := src.(RuntimeReuser); ok && e.pooled(family) {
		rt = e.unpark(ru, family, seed)
	}
	if rt == nil {
		rt = src.NewRuntime(e.cfg.Pick, seed)
	}
	var js *jobState
	if n := len(e.free); n > 0 {
		js = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		js = new(jobState)
	}
	*js = jobState{id: id, release: spec.Release, rt: rt, caps: bindCaps(rt)}
	if e.cfg.Trace >= TraceTasks && js.caps.task == nil {
		e.release(js, family)
		e.recycle(js)
		return nil, errNoTaskIDs(id, src)
	}
	js.tasks = src.TotalTasks()
	js.spec = spec
	return js, nil
}

// pooled reports whether family f has a pool of parked runtimes.
func (e *Engine) pooled(f RuntimeFamily) bool { return f >= 0 && int(f) < len(e.parked) }

// unpark re-arms the newest parked runtime of family f for ru's job. It
// returns nil when that pool is empty or ReuseRuntime refuses its top.
func (e *Engine) unpark(ru RuntimeReuser, f RuntimeFamily, seed int64) RuntimeJob {
	pool := e.parked[f]
	n := len(pool)
	if n == 0 {
		return nil
	}
	rt, ok := ru.ReuseRuntime(pool[n-1], e.cfg.Pick, seed)
	if !ok {
		return nil
	}
	pool[n-1] = nil
	e.parked[f] = pool[:n-1]
	e.parkedN--
	return rt
}

// release drops a job's runtime at the step the job ends, or when its
// admission is refused, so no terminal job pins a runtime, graph or spec.
// A runtime its source can reset in place is parked in the pool of its
// family f while the pools hold fewer runtimes than the engine has live
// (pending + active) jobs plus its largest admission; past that bound a
// pool gives one back. The pools so shrink with the live set, and an idle
// engine keeps enough for one more admission as large as any before it:
// runtimes outlive a lull between bursts, not the peak of the live set.
func (e *Engine) release(js *jobState, f RuntimeFamily) {
	if p, ok := js.rt.(ReusableRuntime); ok && e.pooled(f) && !e.noRecycle && e.parkedN < e.remaining+e.burst {
		p.Park()
		e.parked[f] = append(e.parked[f], p)
		e.parkedN++
	} else if e.parkedN > e.remaining+e.burst {
		for f, pool := range e.parked {
			if n := len(pool); n > 0 {
				pool[n-1] = nil
				e.parked[f] = pool[:n-1]
				e.parkedN--
				break
			}
		}
	}
	js.rt, js.caps = nil, runtimeCaps{}
}

// recycle puts a released job's state on the free list for the next
// admission while the list holds fewer states than the engine has live
// jobs plus its largest admission — the pools' bound — and past that bound
// gives one back.
func (e *Engine) recycle(js *jobState) {
	js.spec = JobSpec{}
	switch n := len(e.free); {
	case e.noRecycle:
	case n < e.remaining+e.burst:
		e.free = append(e.free, js)
	case n > e.remaining+e.burst:
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	}
}

// end finishes a live job whose state has left pending and active: its
// status record moves to phase at step at, and its runtime and jobState are
// released for reuse.
func (e *Engine) end(js *jobState, phase JobPhase, at int64) {
	_, family, _ := e.recs.SetPhase(js.id, phase, at)
	e.remaining--
	e.release(js, family)
	e.recycle(js)
}

// commit registers a prepared jobState with the engine: its status record
// is written at its ID, and it joins the pending queue.
func (e *Engine) commit(js *jobState) {
	src := js.spec.source()
	e.recs.admit(js.id, js.release, src, FamilyOf(src))
	e.insertPending(js)
	e.remaining++
	e.totalWork += int64(js.tasks)
	e.pendingWork += int64(js.tasks)
	e.estWork += int64(js.tasks)
	if js.release > e.maxRelease {
		e.maxRelease = js.release
	}
}

// Cancel withdraws an unfinished job. A pending job simply never releases;
// an active job is removed from the schedule, so the processors it held
// are available to the scheduler from the next step on. Completed or
// already-cancelled jobs cannot be cancelled.
func (e *Engine) Cancel(id int) error {
	phase, end, ok := e.recs.Phase(id)
	if !ok {
		return fmt.Errorf("sim: no job %d", id)
	}
	var js *jobState
	switch phase {
	case JobDone:
		return fmt.Errorf("sim: job %d already completed at step %d", id, end)
	case JobCancelled:
		return fmt.Errorf("sim: job %d already cancelled", id)
	case JobStolen:
		return fmt.Errorf("sim: job %d was withdrawn by work stealing", id)
	case JobPending:
		js = e.removePending(id)
		e.pendingWork -= int64(js.tasks)
		e.estWork -= int64(js.tasks)
	case JobActive:
		// An active job's end field is its slot.
		js = e.active[end]
		e.dropSlot(int(end))
		e.closeHoles()
		for _, w := range js.rt.RemainingWork() {
			e.estWork -= int64(w)
		}
		if e.estWork < 0 {
			e.estWork = 0
		}
	}
	e.cancelledN++
	e.end(js, JobCancelled, e.now)
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
	phase, _, ok := e.recs.Phase(id)
	if !ok {
		return JobSpec{}, fmt.Errorf("sim: no job %d", id)
	}
	if phase != JobPending {
		return JobSpec{}, fmt.Errorf("sim: job %d is %s; only pending jobs can be withdrawn", id, phase)
	}
	js := e.removePending(id)
	spec := js.spec
	spec.Release = js.release
	e.stolenN++
	e.pendingWork -= int64(js.tasks)
	e.estWork -= int64(js.tasks)
	if e.estWork < 0 {
		e.estWork = 0
	}
	e.end(js, JobStolen, e.now)
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

// Retire forgets a terminal (completed, cancelled or stolen) job: its
// status record, 25+8K bytes (41 at K=2), is dropped, and a status page is
// freed once every ID on it has been retired, so an engine that retires
// every terminal job keeps about nothing per job. The job's runtime and
// jobState are not part of it: every engine recycled those at the step the
// job ended. After Retire, Job(id) reports the job unknown and the ID is
// never reassigned — IDs stay monotonic, so admission-order reproducibility
// and journal replay are unaffected (retirement is a local memory
// optimization, not a scheduling event, and is deliberately not
// journaled). A caller that keeps no use for a finished job's status may
// retire it, bounding engine memory under streams of millions of jobs;
// internal/server does not, since this table is its status index. Retired
// jobs are omitted from Result and Checkpoint; aggregate counters
// (Snapshot, checkpoint totals) still include them.
func (e *Engine) Retire(id int) error {
	phase, _, ok := e.recs.Phase(id)
	if !ok {
		return fmt.Errorf("sim: no job %d", id)
	}
	if phase != JobDone && phase != JobCancelled && phase != JobStolen {
		return fmt.Errorf("sim: job %d is %s; only completed, cancelled or stolen jobs can be retired", id, phase)
	}
	e.recs.Drop(id)
	return nil
}

// Job returns the status of an admitted job.
func (e *Engine) Job(id int) (JobStatus, bool) {
	st, ok := e.recs.Get(id)
	if ok {
		st.Work = append([]int(nil), st.Work...)
	}
	return st, ok
}

// JobRef is Job without the defensive work-vector copy: the returned
// status's Work aliases the engine's status table, valid until the job is
// retired, so callers must copy anything they retain past that. It exists
// for allocation-free status plumbing in the engine's own goroutine.
func (e *Engine) JobRef(id int) (JobStatus, bool) { return e.recs.Get(id) }

// ReadJob is Job for any goroutine: the one Engine method that may run
// while another goroutine admits, steps or cancels. The record is read
// whole under its status page's read lock, and its work vector is copied
// into work[:0] (a nil work allocates). A server answers status queries
// through it without waiting for a scheduling round.
func (e *Engine) ReadJob(id int, work []int) (JobStatus, bool) { return e.recs.load(id, work) }

// Snapshot summarizes the engine's current state.
func (e *Engine) Snapshot() EngineSnapshot {
	return EngineSnapshot{
		Now:           e.now,
		K:             e.cfg.K,
		Caps:          append([]int(nil), e.cfg.Caps...),
		Admitted:      e.NextID(),
		Pending:       e.pendingLen(),
		Active:        e.live,
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
			// Release hands the job's state to its runtime: it is no longer
			// stealable, so drop the retained spec and its pending-work share.
			e.pendingWork -= int64(js.tasks)
			js.spec = JobSpec{}
			e.insertActive(js) // and moves its record to JobActive
			e.callRel = append(e.callRel, js.id)
		}
		if e.pendOff == len(e.pending) {
			// Queue drained: recover the backing array's full capacity.
			e.pending = e.pending[:0]
			e.pendOff = 0
		}
		if e.live == 0 {
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
		Active:    e.live,
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
	if e.cfg.Observer != nil {
		e.compact() // the observer reads the views densely
	}
	n, live := len(e.active), e.live
	overloadNow := false
	for a, c := range e.activeCount {
		if c > e.cfg.Caps[a] {
			e.overloaded[a] = true
			overloadNow = true
		}
	}

	allot := e.allot[:n]
	var touched []int32
	var grants [][]sched.CatGrant
	caps, err := e.residualCaps()
	if err == nil {
		grants, err = e.delta.AllotDelta(t, caps)
	}
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
	// Every job that pins processors is touched, and the rows of zeros left
	// — floor-free jobs and holes — satisfy every Section 2 condition and
	// add nothing to a column sum, so checking the touched rows, in place,
	// checks the matrix.
	if err = sched.ValidateAllotmentRows(e.views, e.cfg.Caps, allot, touched); err != nil {
		e.clearAllot(n)
		return 0, fmt.Errorf("sim: step %d: %w", t, err)
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
			e.leapRound(t, caps, allot, m)
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
	// the survivors, hand the rows back zeroed, and leave a hole where a
	// job finished.
	e.doneIDs = e.doneIDs[:0]
	for _, ti := range touched {
		i := int(ti)
		clear(allot[i])
		j := e.active[i]
		if !j.rt.Done() {
			e.rereadSlot(i)
			continue
		}
		if t > e.makespan {
			e.makespan = t
		}
		e.doneIDs = append(e.doneIDs, j.id)
		e.completedN++
		e.dropSlot(i)
		e.end(j, JobDone, t)
	}
	if len(e.doneIDs) > 0 {
		e.closeHoles()
		e.callDone = append(e.callDone, e.doneIDs...)
	}
	e.trace.endStep(t, live, len(e.doneIDs))
	return 1, nil
}

// residualCaps returns the capacities the scheduler partitions: caps less
// the processors the floors pin. Floors above a capacity are an error.
func (e *Engine) residualCaps() ([]int, error) {
	if len(e.floorIDs) == 0 {
		return e.cfg.Caps, nil
	}
	for a, c := range e.cfg.Caps {
		if e.resCaps[a] = c - e.pinned[a]; e.resCaps[a] < 0 {
			return nil, fmt.Errorf("category %d floors pin %d processors, capacity %d", a+1, e.pinned[a], c)
		}
	}
	return e.resCaps, nil
}

// applyGrants merges the scheduler's per-category grants, each ascending
// by job ID, and the floor-bearing jobs' floor rows into the engine's
// allotment rows and returns the slots written — the round's touched list,
// ascending. Each job's status record holds its slot, so a grant costs one
// lookup whatever the size of the table. The merged IDs must ascend
// strictly: live slots ascend with IDs, so the touched list then does too.
func (e *Engine) applyGrants(grants [][]sched.CatGrant) ([]int32, error) {
	k := e.cfg.K
	if len(grants) != k {
		return nil, fmt.Errorf("scheduler %q granted in %d categories, want %d", e.cfg.Scheduler.Name(), len(grants), k)
	}
	// next[a] is the job ID at the head of category a's grants, and
	// nextFloor the one at the head of floorIDs.
	const none = int(^uint(0) >> 1)
	touched, heads, next := e.touched[:0], e.heads, e.nextID
	for a, g := range grants {
		heads[a], next[a] = 0, none
		if len(g) > 0 {
			next[a] = g[0].ID
		}
	}
	floors, nextFloor := e.floorIDs, none
	if len(floors) > 0 {
		nextFloor = floors[0]
	}
	for prev := -1; ; {
		id := nextFloor
		for _, x := range next {
			id = min(id, x)
		}
		if id == none {
			break
		}
		i, ok := e.recs.activeSlot(id)
		if !ok || id <= prev {
			e.touched = touched
			return nil, fmt.Errorf("scheduler %q granted processors to job %d, which is not active (or not in ascending ID order)", e.cfg.Scheduler.Name(), id)
		}
		prev = id
		row := e.allot[i]
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
		if id == nextFloor {
			for a, f := range e.views[i].Floor {
				row[a] += f
			}
			if floors, nextFloor = floors[1:], none; len(floors) > 0 {
				nextFloor = floors[0]
			}
		}
		touched = append(touched, int32(i))
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
			if j == nil {
				continue // a hole
			}
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
func (e *Engine) leapRound(t int64, caps []int, allot [][]int, n int64) {
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
	e.clearAllot(len(allot))
	// LeapTotals reads the views densely: close the holes, rows zero. It is
	// handed what the round's scheduler call was: caps, the residual
	// capacities, and views in which every job that pins processors — held,
	// for a leap to be tried — desires nothing. The held rows advance by
	// LeapHold.
	e.compact()
	jobs := e.views
	if len(e.floorIDs) > 0 {
		jobs = append(e.leapViews[:0], e.views...)
		for i, v := range jobs {
			if v.Floor != nil {
				jobs[i] = sched.JobView{ID: v.ID, Desire: e.zeros}
			}
		}
		e.leapViews = jobs
	}
	totals := e.leapBuf.Shape(len(e.views), e.cfg.K)
	e.stable.LeapTotals(t, jobs, caps, n, totals)
	for i, j := range e.active {
		if e.flags[i]&slotHeld != 0 {
			j.caps.hold.LeapHold(n)
		} else {
			j.caps.leap.LeapTasks(totals[i])
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
			e.trace.endStep(s, e.live, 0)
		}
	}
	e.now = t + n - 1
	// A leap moves every job: the whole table is re-read.
	for i := range e.active {
		e.rereadSlot(i)
	}
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
	res.Jobs = make([]JobResult, 0, e.NextID())
	for id := 0; id < e.NextID(); id++ {
		st, ok := e.recs.Get(id)
		if !ok {
			continue // retired
		}
		res.Jobs = append(res.Jobs, JobResult{
			ID:         id,
			Release:    st.Release,
			Completion: st.Completion,
			Work:       st.Work,
			Span:       st.Span,
		})
	}
	return res
}

// pendingIndex returns where (release, id) sits in the pending queue's
// live window — the (release, ID) order Run admits in — as an index into
// e.pending.
func (e *Engine) pendingIndex(release int64, id int) int {
	live := e.pending[e.pendOff:]
	return e.pendOff + sort.Search(len(live), func(i int) bool {
		p := live[i]
		if p.release != release {
			return p.release > release
		}
		return p.id >= id
	})
}

// insertPending inserts into the pending queue, keeping (release, ID)
// order.
func (e *Engine) insertPending(js *jobState) {
	i := e.pendingIndex(js.release, js.id)
	e.pending = append(e.pending, nil)
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = js
}

// removePending takes the pending job id out of the queue and returns it.
func (e *Engine) removePending(id int) *jobState {
	rel, _ := e.recs.Release(id)
	i := e.pendingIndex(rel, id)
	js := e.pending[i]
	n := copy(e.pending[i:], e.pending[i+1:])
	e.pending[i+n] = nil
	e.pending = e.pending[:i+n]
	return js
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
	e := o.e
	var js *jobState
	switch phase, _, _ := e.recs.Phase(jobID); phase {
	case JobActive:
		i, _ := e.recs.activeSlot(jobID)
		js = e.active[i]
	case JobPending:
		rel, _ := e.recs.Release(jobID)
		js = e.pending[e.pendingIndex(rel, jobID)]
	default:
		// Terminal or retired: the runtime is released and no work remains.
		return make([]int, e.cfg.K)
	}
	return js.rt.RemainingWork()
}

func (o engineOracle) ReleaseTime(jobID int) int64 {
	rel, _ := o.e.recs.Release(jobID)
	return rel
}
