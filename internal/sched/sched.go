// Package sched defines the scheduling interface of the K-resource model
// (Section 2 of the paper) and shared helpers. A Scheduler observes, at
// each time step, only the identities and instantaneous per-category
// desires of the active jobs — never release times, parallelism profiles,
// or remaining work — and returns integer allotments bounded by the
// per-category processor counts. That restriction is what "online
// non-clairvoyant" means; clairvoyant baselines must opt in explicitly via
// the Clairvoyant interface.
//
// A scheduler has two entries. The dense one — Scheduler.Allot, or
// IntoAllotter.AllotInto with Completer.JobsDone beside it — is the public
// contract: every active job's view, every step, a whole matrix back. It is
// what the baselines, Quantized, decorators and caller-written schedulers
// implement. The delta one — DeltaAllotter — is told only what changed since
// the last step and returns only the grants; it is the one the engine drives.
// PerCategory and core.RAD implement it, and their dense entries are
// adapters onto it; a scheduler with only the dense entry is driven through
// FromDense. There is one implementation either way.
// The delta layers keep their jobs in IDLists, which leave a hole where a job
// left: in a category's α-active list, an entry with Desire 0.
//
// Floors — processors that started non-preemptive tasks pin — are not a
// scheduler's business. The engine (internal/sim) grants them itself: it
// reports each job's residual desire, max(desire − floor, 0), hands the
// scheduler the capacity left once the floors are pinned, and adds the
// floors to what the scheduler grants. Every scheduler therefore runs
// non-preemptive jobs as it is.
package sched

import (
	"encoding/json"
	"fmt"
	"math"
)

// JobView is the scheduler-visible snapshot of one active job at one step.
type JobView struct {
	// ID is the engine-assigned job identifier. IDs are assigned in
	// submission order, so ascending ID is ascending arrival order — the
	// queue order RAD's round-robin uses.
	ID int
	// Desire[α−1] is d(Ji, α, t): the number of ready α-tasks.
	Desire []int
	// Floor[α−1] is the job's non-preemptive allotment floor: processors
	// occupied by in-flight multi-step tasks that cannot be taken away
	// this step. Nil for unit-task jobs (every floor zero). Valid
	// allotments satisfy allot ≥ floor. The engine's views carry it and
	// the engine grants it (see the package comment); the views it hands a
	// scheduler carry none.
	Floor []int
}

// TotalDesire returns Σα Desire[α].
func (j JobView) TotalDesire() int {
	n := 0
	for _, d := range j.Desire {
		n += d
	}
	return n
}

// WithFloors returns s.
//
// Deprecated: the engine grants every floor itself (see the package
// comment), so every scheduler runs non-preemptive jobs as it is.
func WithFloors(s Scheduler) Scheduler { return s }

// Scheduler computes processor allotments each step.
type Scheduler interface {
	// Name identifies the algorithm in traces and reports.
	Name() string
	// Allot returns, for each job in jobs (same order), an allotment
	// vector indexed by α−1, such that for every category α the column
	// sum is at most caps[α−1]. jobs contains exactly the active
	// (released, uncompleted) jobs at step t, in ascending ID order.
	// Implementations must not retain jobs or the returned slices.
	Allot(t int64, jobs []JobView, caps []int) [][]int
}

// Unbounded is the StableHorizon value meaning "no scheduler-imposed leap
// limit". The engine still bounds leaps by pending releases, the caller's
// step budget, and MaxSteps.
const Unbounded int64 = math.MaxInt64

// Stable is an optional Scheduler capability powering the engine's
// event-leap.
//
// StableHorizon reports how many additional consecutive steps after the
// most recent Allot call are in a stable regime: the scheduler's
// cross-step state (marks, rotations, rng) does not change, every job's
// desire stays strictly positive, and the per-step allotments are
// computable in closed form by LeapTotals. The report assumes the
// engine's leap law over those steps: (a) the active job set does not
// change, and (b) every job's per-category desire decreases by exactly
// its allotment each step (the regime profile-backed jobs are in
// mid-phase). 0 means "do not leap this round"; Unbounded means no
// scheduler-imposed limit. The value is consumed immediately after Allot
// and invalidated by the next Allot call.
//
// LeapTotals accumulates into dst — shaped like the Allot result (one row
// per job, len(caps) columns) and zeroed by the caller — the TOTAL
// allotment each job receives over the n steps t..t+n−1, where t, jobs
// and caps are exactly the arguments of that most recent Allot call and
// 1 ≤ n ≤ StableHorizon()+1 (the call's own step plus the horizon). Each
// covered step's column sums equal the Allot result's column sums, so
// per-step aggregates (traces, utilization) reproduce exactly.
//
// Per-step bound: over the covered window, no job's allotment at any
// single step exceeds its Allot-result entry by more than one, and stays
// zero wherever that entry is zero. (DEQ's rotating remainder moves one
// bonus processor between deprived jobs; nothing moves more.) The engine
// feeds this bound to DAG-backed runtimes (sim.StableRuntime) to verify
// that no frontier level can drain mid-window; implementations whose
// per-step allotments can vary by more than one must report horizon 0 for
// the affected window instead.
//
// Law (b) is the DRAIN law — the contract unit-task runtimes satisfy. Its
// complement, the HOLD law (a job whose desire is pinned at its
// non-preemptive floor receives exactly the floor each covered step), is
// not part of this interface: a held job's residual desire is zero, so the
// scheduler never sees it, and the engine advances it by its frozen floors.
// Implementations only ever reason about draining jobs.
type Stable interface {
	StableHorizon() int64
	LeapTotals(t int64, jobs []JobView, caps []int, n int64, dst [][]int)
}

// CategoryStable mirrors Stable for per-category schedulers, under the
// same law restricted to the category's α-active jobs.
type CategoryStable interface {
	StableHorizon() int64
	LeapTotals(t int64, jobs []CatJob, p int, n int64, dst []int)
}

// IntoAllotter is an optional Scheduler extension for allocation-free
// stepping: AllotInto behaves exactly like Allot but writes the matrix
// into caller-owned storage. FromDense prefers it to Allot. dst has one row
// per job, each row of len(caps), zeroed by the caller (as for
// Stable.LeapTotals), so an implementation writes only what it grants and no
// layer clears the matrix a second time. Callers own dst and may reuse it
// across calls (Matrix.Shape returns zeros); implementations must not retain
// it.
type IntoAllotter interface {
	AllotInto(t int64, jobs []JobView, caps []int, dst [][]int)
}

// Matrix is a reusable allotment matrix backed by a single flat []int, for
// hot paths that hand an IntoAllotter or Stable.LeapTotals a zeroed
// destination every step without allocating.
type Matrix struct {
	rows [][]int
	back []int
}

// Shape returns an n×k matrix of zeros, reusing the backing storage when
// capacity allows. The returned rows alias the Matrix and are invalidated
// by the next Shape call.
func (m *Matrix) Shape(n, k int) [][]int {
	if cap(m.back) < n*k {
		m.back = make([]int, n*k, n*k+n*k/2+16)
	}
	m.back = m.back[:n*k]
	for i := range m.back {
		m.back[i] = 0
	}
	if cap(m.rows) < n {
		m.rows = make([][]int, n, n+n/2+8)
	}
	m.rows = m.rows[:n]
	for i := range m.rows {
		m.rows[i] = m.back[i*k : (i+1)*k : (i+1)*k]
	}
	return m.rows
}

// Completer is implemented by stateful schedulers (such as RAD's
// round-robin marking) that want to drop per-job state when jobs finish.
// FromDense calls JobsDone with the ID of each active job that completes or
// is cancelled; a DeltaAllotter hears of it through JobGone instead.
type Completer interface {
	JobsDone(ids []int)
}

// Snapshotter is implemented by schedulers whose cross-step state can be
// captured and later restored into a fresh instance. It exists for
// durability: journal compaction (internal/journal) replaces a replay
// prefix with a checkpoint, which is only sound when the scheduler's
// state at the checkpoint — round-robin rotations, marks, queue
// positions — travels with it. Schedulers that do not implement it are
// still journaled and replayed exactly; their journals are just never
// compacted. SnapshotState must return a self-contained encoding;
// RestoreState must accept exactly what SnapshotState produced and may
// assume a freshly constructed receiver.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// Oracle exposes clairvoyant per-job information. Only baselines labelled
// clairvoyant receive one; the algorithms under study never see it.
type Oracle interface {
	// RemainingWork returns the unexecuted task count of the job per
	// category (indexed α−1).
	RemainingWork(jobID int) []int
	// ReleaseTime returns the job's release time.
	ReleaseTime(jobID int) int64
}

// Clairvoyant is implemented by schedulers that require an Oracle. The
// engine injects it before the run starts.
type Clairvoyant interface {
	SetOracle(Oracle)
}

// ValidateAllotments checks the Section 2 validity conditions on a
// scheduler's output: one allotment row per job, rows shaped like caps,
// non-negative entries, and per-category column sums within capacity.
// It returns a descriptive error on the first violation. The engine calls
// it every round, so the column sums live on the stack for ordinary K.
func ValidateAllotments(jobs []JobView, caps []int, allot [][]int) error {
	if len(allot) != len(jobs) {
		return fmt.Errorf("sched: %d allotment rows for %d jobs", len(allot), len(jobs))
	}
	return validateRows(jobs, caps, allot, len(allot), nil)
}

// ValidateAllotmentRows is ValidateAllotments over the rows of allot that
// rows lists, for a caller that knows every other row is zero and belongs
// to a job without floors: such a row meets every condition and adds
// nothing to a column sum. The conditions and messages are the same, and
// nothing is copied. allot and jobs are indexed alike.
func ValidateAllotmentRows(jobs []JobView, caps []int, allot [][]int, rows []int32) error {
	return validateRows(jobs, caps, allot, len(rows), rows)
}

// validateRows checks n rows of allot: rows[r] when rows is not nil,
// otherwise the first n.
func validateRows(jobs []JobView, caps []int, allot [][]int, n int, rows []int32) error {
	var small [16]int
	sums := small[:min(len(caps), len(small))]
	if len(caps) > len(small) {
		sums = make([]int, len(caps))
	}
	for r := 0; r < n; r++ {
		i := r
		if rows != nil {
			i = int(rows[r])
		}
		row := allot[i]
		if len(row) != len(caps) {
			return fmt.Errorf("sched: job %d allotment row has %d categories, want %d", jobs[i].ID, len(row), len(caps))
		}
		for a, v := range row {
			if v < 0 {
				return fmt.Errorf("sched: job %d category %d negative allotment %d", jobs[i].ID, a+1, v)
			}
			if jobs[i].Floor != nil && v < jobs[i].Floor[a] {
				return fmt.Errorf("sched: job %d category %d allotment %d below non-preemptive floor %d", jobs[i].ID, a+1, v, jobs[i].Floor[a])
			}
			sums[a] += v
		}
	}
	for a, s := range sums {
		if s > caps[a] {
			return fmt.Errorf("sched: category %d total allotment %d exceeds capacity %d", a+1, s, caps[a])
		}
	}
	return nil
}

// CatJob is the single-category projection of a JobView used by
// per-category schedulers.
type CatJob struct {
	ID     int
	Desire int
}

// CategoryScheduler allocates the processors of one resource category among
// the jobs that currently desire them. RAD is a CategoryScheduler; K-RAD is
// K of them glued together by PerCategory.
type CategoryScheduler interface {
	Name() string
	// Allot returns one allotment per job (same order). jobs contains
	// exactly the α-active jobs (desire > 0) in ascending ID order; p is
	// the category's processor count.
	Allot(t int64, jobs []CatJob, p int) []int
}

// PerCategory lifts K independent CategoryScheduler instances (one per
// resource category) into a full Scheduler. This is exactly the structure
// of K-RAD: "assigns one RAD scheduler to each category α of processors".
//
// It keeps the K α-active projections persistent: lists[α−1] holds the jobs
// with positive desire in category α, ascending by ID, their desires as the
// values, edited by JobChanged and JobGone (DeltaAllotter) rather than
// rebuilt from the views each step; a job that leaves a category leaves a
// hole (Desire 0) there. A category scheduler that implements
// CategoryDeltaAllotter is told who enters and leaves its list and is handed
// it holes and all; any other is handed it compacted, as is LeapTotals.
type PerCategory struct {
	name  string
	cats  []CategoryScheduler
	delta []CategoryDeltaAllotter // delta[a] is cats[a]'s delta form, nil without one
	done  []Completer             // the category schedulers that want JobsDone
	lists []IDList

	// Scratch reused across rounds (single-simulation use only, like the
	// category schedulers themselves).
	grants [][]CatGrant
	catOut []int
	oneID  [1]int
	denseEntry
}

// NewPerCategory builds a Scheduler from per-category schedulers. The slice
// index is α−1.
func NewPerCategory(name string, cats []CategoryScheduler) *PerCategory {
	p := &PerCategory{
		name: name, cats: cats,
		delta:  make([]CategoryDeltaAllotter, len(cats)),
		lists:  make([]IDList, len(cats)),
		grants: make([][]CatGrant, len(cats)),
	}
	p.denseEntry.d = p
	for a, c := range cats {
		p.delta[a], _ = c.(CategoryDeltaAllotter)
		if cc, ok := c.(Completer); ok {
			p.done = append(p.done, cc)
		}
	}
	return p
}

// Name returns the composite scheduler's name.
func (p *PerCategory) Name() string { return p.name }

// JobChanged implements DeltaAllotter: per category, the job is inserted
// into, updated in or removed from the α-active list according to its desire
// there.
func (p *PerCategory) JobChanged(id int, desire []int, changed []bool) {
	for a := range p.cats {
		if changed != nil && !changed[a] {
			continue
		}
		d := 0
		if desire != nil {
			d = desire[a]
		}
		p.setDesire(a, id, d)
	}
}

// setDesire makes job id's entry in category a's list read d: inserted,
// updated, or — at zero — removed.
func (p *PerCategory) setDesire(a, id, d int) {
	l, cd := &p.lists[a], p.delta[a]
	if d == 0 {
		if l.Delete(id) && cd != nil {
			cd.JobLeft(id)
		}
		return
	}
	if _, added := l.Insert(id, d); added && cd != nil {
		cd.JobEntered(id)
	}
}

// JobGone implements DeltaAllotter: the job leaves every list and every
// category scheduler forgets it.
func (p *PerCategory) JobGone(id int, desire []int) {
	for a := range p.cats {
		if desire == nil || desire[a] > 0 {
			p.setDesire(a, id, 0)
		}
	}
	p.oneID[0] = id
	for _, cc := range p.done {
		cc.JobsDone(p.oneID[:])
	}
}

// AllotDelta implements DeltaAllotter: each category scheduler grants over
// its α-active list.
func (p *PerCategory) AllotDelta(t int64, caps []int) ([][]CatGrant, error) {
	if len(caps) != len(p.cats) {
		return nil, fmt.Errorf("sched: PerCategory %q built for K=%d but given %d capacities", p.name, len(p.cats), len(caps))
	}
	for a, c := range p.cats {
		l, g := &p.lists[a], p.grants[a][:0]
		if d := p.delta[a]; d != nil {
			g = d.AllotDelta(t, l.Jobs(), caps[a], g)
		} else {
			l.Compact()
			l := l.Jobs()
			out := c.Allot(t, l, caps[a])
			if len(out) != len(l) {
				panic(fmt.Sprintf("sched: category %d scheduler %q returned %d allotments for %d jobs", a+1, c.Name(), len(out), len(l)))
			}
			for j, v := range out {
				if v != 0 {
					g = append(g, CatGrant{ID: l[j].ID, N: v})
				}
			}
		}
		p.grants[a] = g
	}
	return p.grants, nil
}

// StableHorizon implements Stable: the composite is stable for as long as
// every category is, so the horizon is the minimum over categories. A
// category scheduler that does not report stability pins the horizon to 0.
func (p *PerCategory) StableHorizon() int64 {
	h := Unbounded
	for _, c := range p.cats {
		cs, ok := c.(CategoryStable)
		if !ok {
			return 0
		}
		if ch := cs.StableHorizon(); ch < h {
			h = ch
			if h == 0 {
				return 0
			}
		}
	}
	return h
}

// LeapTotals implements Stable over the α-active lists, compacted — by the
// Stable contract jobs are the views of the round just allotted, so the
// lists are their projection and jobs only places each total in its row.
// Only called when StableHorizon reported ≥ n−1, which implies every
// category implements CategoryStable.
func (p *PerCategory) LeapTotals(t int64, jobs []JobView, caps []int, n int64, dst [][]int) {
	for a, c := range p.cats {
		p.lists[a].Compact()
		l := p.lists[a].Jobs()
		if cap(p.catOut) < len(l) {
			p.catOut = make([]int, len(l), 2*len(l)+8)
		}
		out := p.catOut[:len(l)]
		clear(out)
		c.(CategoryStable).LeapTotals(t, l, caps[a], n, out)
		i := 0
		for j, v := range out {
			if v != 0 {
				for jobs[i].ID != l[j].ID {
					i++
				}
				dst[i][a] = v
			}
		}
	}
}

// SnapshotState captures every per-category scheduler's state, failing if
// any category scheduler does not implement Snapshotter — partial
// checkpoints would silently desynchronize replay.
func (p *PerCategory) SnapshotState() ([]byte, error) {
	states := make([][]byte, len(p.cats))
	for i, c := range p.cats {
		cs, ok := c.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("sched: category %d scheduler %q does not support state snapshots", i+1, c.Name())
		}
		st, err := cs.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("sched: category %d scheduler %q: %w", i+1, c.Name(), err)
		}
		states[i] = st
	}
	return json.Marshal(states)
}

// RestoreState distributes a SnapshotState encoding back over the
// per-category schedulers.
func (p *PerCategory) RestoreState(data []byte) error {
	var states [][]byte
	if err := json.Unmarshal(data, &states); err != nil {
		return fmt.Errorf("sched: decode per-category state: %w", err)
	}
	if len(states) != len(p.cats) {
		return fmt.Errorf("sched: state has %d categories, scheduler %q has %d", len(states), p.name, len(p.cats))
	}
	for i, c := range p.cats {
		cs, ok := c.(Snapshotter)
		if !ok {
			return fmt.Errorf("sched: category %d scheduler %q does not support state snapshots", i+1, c.Name())
		}
		if err := cs.RestoreState(states[i]); err != nil {
			return fmt.Errorf("sched: category %d scheduler %q: %w", i+1, c.Name(), err)
		}
	}
	return nil
}

var (
	_ Scheduler     = (*PerCategory)(nil)
	_ Completer     = (*PerCategory)(nil)
	_ Snapshotter   = (*PerCategory)(nil)
	_ IntoAllotter  = (*PerCategory)(nil)
	_ DeltaAllotter = (*PerCategory)(nil)
	_ Stable        = (*PerCategory)(nil)
)
