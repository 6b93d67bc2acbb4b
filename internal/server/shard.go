package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"krad/internal/journal"
	"krad/internal/metrics"
	"krad/internal/replicate"
	"krad/internal/sched"
	"krad/internal/sim"
)

// shard is one independent scheduling engine and the goroutine that steps
// it: the pre-sharding Service extracted whole. Each shard owns its own
// sim.Engine, admission bound and response histogram;
// the Service front-end routes submissions across shards and aggregates
// their state. K-RAD's per-category analysis holds per machine, so every
// shard preserves the paper's bounds independently.
type shard struct {
	idx         int
	maxInFlight int
	stepEvery   time.Duration
	fan         *fanout

	// statuses publishes eng to status readers, who hold no lock: GET and
	// DELETE lookups read the engine's own status table through
	// sim.Engine.ReadJob and never wait for a scheduling round. A
	// snapshot restore that replaces eng republishes it.
	statuses atomic.Pointer[sim.Engine]
	// redir maps shard-local IDs of jobs stolen from this shard to the
	// namespaced IDs they moved to; Service.resolve follows the chain. A
	// key is written when its job is stolen, and again only when startup
	// repair re-homes an orphaned steal, so a shard that never lost a job
	// answers every lookup without a lock.
	redir sync.Map

	mu      sync.Mutex // guards eng and the counters below
	eng     *sim.Engine
	started bool
	closed  bool
	stepErr error
	steps   int64
	// rejected counts refused submissions; the engine counts the rest.
	rejected int64
	// resp accumulates one response time per completed job in fixed space:
	// exact N/Min/Max/Mean/StdDev and bucketed quantiles for Stats, and the
	// counts /metrics folds into its power-of-two le series.
	resp metrics.Hist

	// Work stealing (see steal.go). ledger is the service-wide steal
	// reconciliation ledger, shared by every shard: any shard's journal may
	// carry steal records, whether or not this service steals. stealFn,
	// set by a steal-enabled service, attempts one steal on behalf of this
	// shard and reports whether it moved work. stolenIn counts jobs this
	// shard re-admitted from victims, which are not client submissions
	// (Stats.Submitted is the engine's admitted count minus stolenIn).
	// origins maps each of those jobs' local ID to its original namespaced
	// ID: a sparse map, since most jobs never move. The scratch slices are
	// stealFor's reusable buffers.
	ledger    *stealLedger
	stealFn   func() bool
	stolenIn  int64
	origins   map[int]int
	stealIDs  []int
	stealFrom []int

	// Lock-free load gauges, refreshed under mu at every engine mutation
	// (syncGaugesLocked) and read without it by placement and victim
	// selection: loadRemaining mirrors eng.Remaining(), loadEstWork
	// eng.EstWork() (estimated remaining task-steps), loadPendWork
	// eng.PendingWork() (the stealable portion).
	loadRemaining atomic.Int64
	loadEstWork   atomic.Int64
	loadPendWork  atomic.Int64

	// fair, when set, enables the shard's slice of fair-share accounting
	// (see fairness.go): per-tenant decayed usage on this shard's virtual
	// clock, per-tenant in-flight counts and a job→tenant map, all mutated
	// under mu at the same points the journal records. Nil when fairness
	// is off, so the fairness-free hot path allocates nothing.
	fair *shardFair

	// jn, when set, is the shard's write-ahead journal (see journal.go):
	// every mutation is appended and then applied under one lock
	// acquisition (apply.go), so the journal's record order IS the engine's
	// mutation order. compactEvery and compactOff govern idle-point
	// snapshot compaction. admitRec is admitRecordLocked's scratch record;
	// out is what the last apply handed back. jn itself is set once, by
	// attachJournal inside New, before the shard is visible to any other
	// goroutine, and never again: reading the pointer needs no lock.
	jn           *journal.Journal
	compactEvery int64
	compactOff   bool
	admitRec     journal.Record
	out          applyOut

	// Replication state (see replicate.go). repSeq is the sequence number
	// of the shard's last committed mutation record (1-based since engine
	// birth; snapshot records carry the cursor but take no number of their
	// own). applied counts records applied since the engine's birth or its
	// last snapshot (which counts as one) — the pos argument journal.Apply
	// needs.
	// rep, the sender Service.ReplicateTo attached (primary mode), is woken
	// by every committed record and gates admissions behind fencing/lease
	// checks. repErr latches a follower that diverged from its primary's
	// stream. newEngine rebuilds a fresh engine (fresh scheduler instance
	// included) for snapshot restores.
	rep       *replicate.Sender
	repSeq    int64
	applied   int64
	repErr    error
	newEngine func() (*sim.Engine, error)

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// shardView is a locked snapshot of one shard's counters, taken for
// Stats and /metrics aggregation.
type shardView struct {
	idx      int
	snap     sim.EngineSnapshot
	steps    int64
	rejected int64
	stolenIn int64
	estWork  int64
	stepErr  error
}

func newShard(idx int, simCfg sim.Config, mkSched func() sched.Scheduler, maxInFlight int, stepEvery time.Duration, fan *fanout) (*shard, error) {
	// newEngine yields an engine Restore accepts: fresh, with a fresh
	// scheduler — restoreLocked rebuilds the engine wholesale.
	newEngine := func() (*sim.Engine, error) {
		c := simCfg
		c.Scheduler = mkSched()
		return sim.NewEngine(c)
	}
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	sh := &shard{
		idx:         idx,
		maxInFlight: maxInFlight,
		stepEvery:   stepEvery,
		fan:         fan,
		eng:         eng,
		newEngine:   newEngine,
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	sh.statuses.Store(eng)
	return sh, nil
}

// start launches the step loop. Extra calls are no-ops, as is starting a
// closed shard. A shard that is never started still serves submissions,
// queries and cancellations — the clock just never moves (useful in
// tests).
func (sh *shard) start() {
	sh.mu.Lock()
	if sh.started || sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.started = true
	sh.mu.Unlock()
	go sh.loop()
}

// submitBatch admits every spec — or none — under one lock acquisition,
// returning engine-local IDs. The whole batch is rejected with
// ErrQueueFull when it does not fit the shard's admission bound, and each
// member counts as a rejection. tenant, when non-empty, is the fair-share
// leaf path the admission is journaled under and charged to.
func (sh *shard) submitBatch(tenant string, specs []sim.JobSpec) ([]int, error) {
	sh.mu.Lock()
	ids, err := sh.submitLocked(tenant, specs)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sh.kick()
	return ids, nil
}

func (sh *shard) submitLocked(tenant string, specs []sim.JobSpec) ([]int, error) {
	if sh.closed {
		return nil, ErrClosed
	}
	err := sh.writableLocked()
	if err == nil && sh.eng.Remaining()+len(specs) > sh.maxInFlight {
		err = ErrQueueFull
	}
	if err != nil {
		sh.rejected += int64(len(specs))
		return nil, err
	}
	now := sh.eng.Now()
	for i := range specs {
		if specs[i].Release == 0 {
			specs[i].Release = now
		}
	}
	return sh.admitLocked(specs, tenant, nil, nil)
}

// admitLocked is the admission pipeline past the gates, shared by client
// submissions and the orphaned-steal repair (from tags the latter with the
// jobs' original IDs, tenants with their leaves). Everything that can
// refuse runs before the record exists: an invalid spec, or a job shape
// the journal cannot describe, leaves no trace — no engine ID burned,
// nothing on disk.
func (sh *shard) admitLocked(specs []sim.JobSpec, tenant string, from []int, tenants []string) ([]int, error) {
	if err := sh.eng.CheckAdmit(specs); err != nil {
		return nil, err
	}
	rec, err := sh.admitRecordLocked(specs, tenant, from, tenants)
	if err != nil {
		return nil, err
	}
	if err := sh.commitLocked(rec, specs); err != nil {
		return nil, err
	}
	return sh.out.ids, nil
}

// writableLocked reports why the shard may not acknowledge a new mutation
// right now: a fenced or lease-expired primary could diverge from a
// promoted follower (the replication error, located to this shard), and a
// degraded disk can make nothing durable — in-flight jobs keep scheduling
// from memory either way.
func (sh *shard) writableLocked() error {
	if sh.rep != nil {
		if err := sh.rep.WriteAllowed(); err != nil {
			return fmt.Errorf("shard %d: %w", sh.idx, err)
		}
	}
	if !sh.journalHealthyLocked() {
		return ErrDegraded
	}
	return nil
}

// cancel withdraws a pending or active job (engine-local ID); its
// processors are free from the next step.
func (sh *shard) cancel(id int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rep != nil {
		if err := sh.rep.WriteAllowed(); err != nil {
			return fmt.Errorf("shard %d: %w", sh.idx, err)
		}
	}
	// Validate first, in sim.Engine.Cancel's wording: once the cancel
	// record is appended, applying it must not fail. A job stolen from
	// this shard is not here (its redirect is its status).
	switch st, ok := sh.eng.JobRef(id); {
	case !ok || st.Phase == sim.JobStolen:
		return fmt.Errorf("sim: no job %d", id)
	case st.Phase == sim.JobDone:
		return fmt.Errorf("sim: job %d already completed at step %d", id, st.Completion)
	case st.Phase == sim.JobCancelled:
		return fmt.Errorf("sim: job %d already cancelled", id)
	}
	if !sh.journalHealthyLocked() {
		return ErrDegraded
	}
	rec := journal.CancelRecord(id)
	return sh.commitLocked(&rec, nil)
}

// syncGaugesLocked refreshes the shard's lock-free load gauges from the
// engine. Called with mu held after every mutation that changes the
// engine's remaining/work totals; readers (placement, victim selection)
// load the atomics without touching mu. Allocation-free — the steady-state
// step path pins this with AllocsPerRun.
func (sh *shard) syncGaugesLocked() {
	sh.loadRemaining.Store(int64(sh.eng.Remaining()))
	sh.loadEstWork.Store(sh.eng.EstWork())
	sh.loadPendWork.Store(sh.eng.PendingWork())
}

// job returns a job's lifecycle status by engine-local ID, its work vector
// appended to work. It reads the published engine's status table, never
// the shard lock: status queries stay fast while the step loop holds mu
// through a long scheduling round. A job stolen from this shard reads as
// absent, since its redirect answers for it.
func (sh *shard) job(id int, work []int) (sim.JobStatus, bool) {
	st, ok := sh.statuses.Load().ReadJob(id, work)
	return st, ok && st.Phase != sim.JobStolen
}

// redirect returns where the job at shard-local id moved to, if it was
// stolen from this shard.
func (sh *shard) redirect(id int) (int, bool) {
	target, ok := sh.redir.Load(id)
	if !ok {
		return 0, false
	}
	return target.(int), true
}

// redirects copies every redirect (nil when there are none): the steal
// state a journal snapshot carries so compaction does not forget where
// stolen jobs went.
func (sh *shard) redirects() map[int]int {
	var out map[int]int
	sh.redir.Range(func(id, target any) bool {
		if out == nil {
			out = make(map[int]int)
		}
		out[id.(int)] = target.(int)
		return true
	})
	return out
}

// err returns the step loop's fatal error, if one occurred.
func (sh *shard) err() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stepErr
}

// view snapshots the shard's counters for aggregation and, under the same
// lock, folds its response histogram into resp — callers visit shards in
// index order, which fixes the summation order of the merged moments.
func (sh *shard) view(resp *metrics.Hist) shardView {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	resp.Merge(&sh.resp)
	return shardView{
		idx:      sh.idx,
		snap:     sh.eng.Snapshot(),
		steps:    sh.steps,
		rejected: sh.rejected,
		stolenIn: sh.stolenIn,
		estWork:  sh.eng.EstWork(),
		stepErr:  sh.stepErr,
	}
}

// close stops admission and drains in-flight jobs (the loop keeps
// stepping until the engine is idle). If ctx expires first, the loop is
// stopped immediately, abandoning unfinished jobs. The journal-close
// error (a failed final flush means acknowledged tail records may not be
// durable) is propagated either way.
func (sh *shard) close(ctx context.Context) error {
	sh.mu.Lock()
	already := sh.closed
	sh.closed = true
	started := sh.started
	sh.mu.Unlock()
	if !started {
		if !already {
			close(sh.done)
			return sh.closeJournal()
		}
		return nil
	}
	sh.kick()
	select {
	case <-sh.done:
		return sh.closeJournal()
	case <-ctx.Done():
		close(sh.stop)
		<-sh.done
		return errors.Join(ctx.Err(), sh.closeJournal())
	}
}

// closeJournal syncs and closes the shard's journal once the step loop
// has exited (no appender can race it), reporting a failed final flush —
// silently swallowing it would let a dirty interval-fsync tail vanish
// with a clean exit status.
func (sh *shard) closeJournal() error {
	if sh.jn == nil {
		return nil
	}
	if err := sh.jn.Close(); err != nil {
		return fmt.Errorf("shard %d: close journal: %w", sh.idx, err)
	}
	return nil
}

// kick wakes the loop if it is parked.
func (sh *shard) kick() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// stepOnce executes exactly one engine step if work is queued. The loop
// drives stepN; tests that need a hand-driven clock call stepOnce
// directly instead of start.
func (sh *shard) stepOnce() (bool, error) {
	n, err := sh.stepN(1)
	return n > 0, err
}

// stepN executes up to max engine steps under ONE lock acquisition and
// ONE journal append: the clock advances (leaping where the engine proves
// it safe), counters update, and — when anyone is subscribed — a single
// aggregated event fans out with namespaced job IDs. It reports 0 without
// stepping when the engine is idle or a previous step failed fatally.
func (sh *shard) stepN(max int64) (int64, error) {
	sh.mu.Lock()
	if sh.stepErr != nil {
		err := sh.stepErr
		sh.mu.Unlock()
		return 0, err
	}
	if sh.eng.Idle() {
		sh.mu.Unlock()
		return 0, nil
	}
	info, err := sh.eng.StepN(max)
	if err != nil {
		sh.stepErr = err
		sh.mu.Unlock()
		return 0, err
	}
	// The one engine-first mutation: a step's outcome is only known by
	// executing it, so its record follows it, best-effort. A failed append
	// latches the journal (degrading admission) but never stops the clock —
	// in-flight jobs keep scheduling from memory. The un-journaled tail of
	// steps is safe to lose: steps are deterministic, so a restarted engine
	// re-derives them, and the sticky failure guarantees no later record
	// ever interleaves with the lost tail. A batch is one record: replay
	// re-executes it with StepN, bit-identical to the original steps.
	rec := journal.StepsRecord(info.Steps, info.Step)
	_ = sh.journalLocked(&rec)
	sh.Stepped(info)
	sh.applied++
	sh.syncGaugesLocked()
	var ev Event
	subscribed := sh.fan.subscribed()
	if subscribed {
		ev = sh.stepEventLocked()
	}
	sh.mu.Unlock()

	if subscribed {
		sh.fan.publish(ev)
	}
	return info.Steps, nil
}

// namespace rewrites engine-local job IDs into pool-wide IDs. For shard 0
// this is the identity, preserving the single-shard wire format.
func (sh *shard) namespace(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	// Always copy: the input may be an engine-owned buffer reused by the
	// next step, and published events outlive this call.
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = composeID(sh.idx, id)
	}
	return out
}

// stepBatch caps how many virtual steps one step-loop iteration executes
// under a single engine lock acquisition and journal append
// (sim.Engine.StepN, which event-leaps where provably safe). In free-run
// mode every iteration uses the full batch; in paced mode it bounds ticker
// catch-up after stalls. Batched steps fan out as one aggregated Event
// (Steps > 1).
const stepBatch = 64

// loop is the single goroutine that owns stepping. Each iteration
// executes up to stepBatch steps under one lock and fans the aggregated
// event out; with no work it parks until a submission (or shutdown)
// arrives. After a fatal step error the loop stops stepping but stays up
// for shutdown.
//
// Paced mode (stepEvery > 0) targets one virtual step per stepEvery of
// wall time, anchored at the instant stepping (re)started: each iteration
// owes elapsed/stepEvery + 1 − done steps. When the loop keeps up that is
// exactly one step per tick, as before batching; when it falls behind
// (GC pause, slow scheduling round, many shards per core) the deficit is
// executed as one batched StepN — one lock, one journal append — instead
// of a tick-by-tick crawl. The anchor resets whenever the engine goes
// idle so an empty shard never accrues debt.
func (sh *shard) loop() {
	defer close(sh.done)
	var tick *time.Ticker
	if sh.stepEvery > 0 {
		tick = time.NewTicker(sh.stepEvery)
		defer tick.Stop()
	}
	// stealTimer bounds how long an idle steal-enabled shard parks before
	// re-probing for victims: work arriving at a peer does not kick this
	// shard's wake channel, so the timer is what turns a skewed backlog
	// into fleet-wide drain. Allocated once and reused.
	var stealTimer *time.Timer
	defer func() {
		if stealTimer != nil {
			stealTimer.Stop()
		}
	}()
	var anchor time.Time // zero while idle
	var anchored int64   // steps executed since anchor
	owed := func() int64 {
		return int64(time.Since(anchor)/sh.stepEvery) + 1 - anchored
	}
	for {
		budget := int64(stepBatch)
		if tick != nil {
			if anchor.IsZero() {
				anchor, anchored = time.Now(), 0
			}
			budget = owed()
			if budget < 1 {
				budget = 1
			}
			if budget > stepBatch {
				budget = stepBatch
			}
		}
		did, err := sh.stepN(budget)
		if err != nil {
			select {
			case <-sh.stop:
				return
			case <-sh.wake:
				sh.mu.Lock()
				closed := sh.closed
				sh.mu.Unlock()
				if closed {
					return
				}
				continue
			}
		}
		if did == 0 {
			anchor = time.Time{}
			sh.mu.Lock()
			closing := sh.closed
			sh.mu.Unlock()
			if closing {
				return // drained: all admitted work finished
			}
			if sh.stealFn != nil && sh.stealFn() {
				// Pulled pending jobs off the deepest peer; step them now
				// instead of parking.
				continue
			}
			// Idle is the one instant the engine's state collapses to a
			// small checkpoint; compact the journal before parking.
			sh.maybeCompact()
			if sh.stealFn != nil {
				if stealTimer == nil {
					stealTimer = time.NewTimer(stealProbeEvery)
				} else {
					stealTimer.Reset(stealProbeEvery)
				}
				select {
				case <-sh.wake:
				case <-stealTimer.C:
				case <-sh.stop:
					return
				}
				continue
			}
			select {
			case <-sh.wake:
			case <-sh.stop:
				return
			}
			continue
		}
		if tick != nil {
			anchored += did
			if owed() >= 1 {
				continue // still behind wall time: catch up immediately
			}
			select {
			case <-tick.C:
			case <-sh.stop:
				return
			}
		} else {
			select {
			case <-sh.stop:
				return
			default:
			}
		}
	}
}
