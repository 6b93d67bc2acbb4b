package core

import (
	"encoding/json"
	"fmt"
	"slices"

	"krad/internal/sched"
)

// RAD is the single-category adaptive scheduler of Figure 2. When the
// number of α-active jobs is at most the processor count it behaves as DEQ
// (space sharing); when the category is overloaded it runs batched
// round-robin cycles (time sharing): each cycle gives every α-active job
// one processor for one step before any job is scheduled twice.
//
// State is one mark per job: marked means "already scheduled in the current
// round-robin cycle". A RAD value is stateful and must not be shared
// between concurrent simulations; K-RAD builds one RAD per category.
//
// The algorithm is written once, in its delta-driven form (AllotDelta,
// sched.CategoryDeltaAllotter): the queue of Figure 2 is kept, not re-derived
// from every job's mark each step. Allot and AllotInto are adapters onto it.
type RAD struct {
	// gen and stamp hold the round-robin marks as a generation-stamped
	// dense slice keyed by job ID: stamp[id] == gen means marked. Clearing
	// every mark is gen++ — O(1) instead of O(marks) — and membership is
	// one bounds check plus one load instead of a map probe. stamp grows
	// to the largest job ID a round-robin call has seen; JobsDone zeroes
	// slots so the marks themselves cannot leak across job lifetimes. It is
	// the source of truth for a job that leaves the category and re-enters
	// mid-cycle, and for SnapshotState.
	gen   uint64
	stamp []uint64
	// cursor and late are the current cycle's queue position. Every mark of
	// the cycle lies below cursor (one past the largest ID marked in it), so
	// the α-active jobs from cursor up are unmarked and those below it are
	// marked — except the late entrants: jobs that joined the category
	// below the cursor, unmarked, after it had passed. Figure 2's Q is late
	// followed by the list from cursor on, Q′ the rest of the list below
	// cursor, both in ID order.
	cursor int
	late   sched.IDList
	// live counts the α-active jobs and nqp the marked ones (|Q′|), as they
	// enter, leave and are marked, since the list a round is handed holds
	// holes; cp is where the cursor fell in the last one.
	live, nqp, cp int
	// rot rotates which marked jobs receive the cycle-completing "bonus"
	// service (the move from Q′ to Q below). Figure 2 leaves the choice
	// unspecified; rotating it keeps long-run service counts equal instead
	// of systematically favoring the lowest job IDs.
	rot int
	// horizon is the leap-safety report of the most recent round; see
	// StableHorizon.
	horizon int64
	// Scratch reused across rounds; each round clobbers all of it.
	q, qp, desires, deqAllot, deqScratch []int
	// The dense entry's grants.
	grants []sched.CatGrant
}

// NewRAD returns a fresh single-category RAD scheduler.
func NewRAD() *RAD { return &RAD{gen: 1} }

// Name implements sched.CategoryScheduler.
func (r *RAD) Name() string { return "rad" }

func (r *RAD) marked(id int) bool {
	return id >= 0 && id < len(r.stamp) && r.stamp[id] == r.gen
}

// growStamp makes stamp hold every ID below n. Its length is exactly the
// largest ID seen plus one, so what it holds never depends on the order IDs
// were marked in; its capacity doubles, so a stream whose largest ID rises
// every round (a sliding round-robin window) copies the slice O(log n)
// times, not once per new ID. A first growth from empty is exact.
func (r *RAD) growStamp(n int) {
	if l := len(r.stamp); n > l {
		if n > cap(r.stamp) {
			grown := make([]uint64, l, max(n, 2*cap(r.stamp)))
			copy(grown, r.stamp)
			r.stamp = grown
		}
		r.stamp = r.stamp[:n]
		clear(r.stamp[l:])
	}
}

// mark marks id in the current cycle and moves the cursor past it.
func (r *RAD) mark(id int) {
	r.growStamp(id + 1)
	r.stamp[id] = r.gen
	if id >= r.cursor {
		r.cursor = id + 1
	}
}

// emptyAllot is the shared zero-length allotment returned for empty job
// sets so idle categories do not allocate every step.
var emptyAllot = []int{}

// JobEntered implements sched.CategoryDeltaAllotter: a job that joins
// unmarked below the cursor is a late entrant.
func (r *RAD) JobEntered(id int) {
	r.live++
	switch {
	case r.marked(id):
		r.nqp++
	case id < r.cursor:
		r.late.Insert(id, 1)
	}
}

// JobLeft implements sched.CategoryDeltaAllotter. The job's mark stays: it
// is what the job re-enters with.
func (r *RAD) JobLeft(id int) {
	r.live--
	switch {
	case r.marked(id):
		r.nqp--
	case id < r.cursor:
		r.late.Delete(id)
	}
}

// AllotDelta implements the RAD procedure of Figure 2 for one category, over
// the α-active list it is handed (ascending ID = queue order; an entry with
// Desire 0 is a hole and is passed over):
//
//	Q  ← unmarked α-active jobs
//	Q′ ← marked α-active jobs
//	if |Q| > P  → ROUND-ROBIN: the first P jobs of Q get one processor
//	              each and are marked
//	else        → move min(|Q′|, P−|Q|) jobs from Q′ to Q, partition the
//	              processors over Q with DEQ, and unmark all jobs (the
//	              round-robin cycle, if any, is complete)
//
// A round-robin round costs O(P) plus the holes it passes; a cycle-completing
// round O(P log P), plus a walk below the cursor if it draws on Q′ — O(P) per
// round of the cycle; a DEQ round O(|jobs|), holes included.
func (r *RAD) AllotDelta(t int64, jobs []sched.CatJob, p int, out []sched.CatGrant) []sched.CatGrant {
	if r.live == 0 || p <= 0 {
		// No jobs (or no processors): the all-zero output repeats as long
		// as the inputs do.
		r.horizon = sched.Unbounded
		return out
	}
	cp := 0 // where the cursor falls in jobs: near where it fell last round
	if r.cursor > 0 {
		cp, _ = sched.FindCatJob(jobs, r.cp, r.cursor)
	}
	r.cp = cp
	nq := r.live - r.nqp
	late := r.late.Jobs()
	if nq > p {
		// ROUND-ROBIN: first P jobs of Q get one processor each, marked.
		// Mid-cycle state changes every step, so never leap over it.
		r.horizon = 0
		// Jobs arrive in ascending ID: one growth covers the whole cycle,
		// instead of one reallocation per newly marked ID.
		r.growStamp(jobs[len(jobs)-1].ID + 1)
		n := 0
		for i := 0; n < p && i < len(late); i++ {
			if late[i].Desire != 0 {
				out = append(out, sched.CatGrant{ID: late[i].ID, N: 1})
				r.mark(late[i].ID)
				n++
			}
		}
		for x := len(out) - 1; x >= len(out)-n; x-- { // the last first: the list moves once
			r.late.Delete(out[x].ID)
		}
		for i := cp; n < p; i++ {
			if jobs[i].Desire > 0 {
				out = append(out, sched.CatGrant{ID: jobs[i].ID, N: 1})
				r.mark(jobs[i].ID)
				n++
			}
		}
		r.nqp += p
		return out
	}
	// Cycle completes this step. Q, as positions in jobs: the late entrants,
	// then the α-active jobs from the cursor on.
	q, at := r.q[:0], 0
	for _, j := range late {
		if j.Desire != 0 {
			at, _ = sched.FindCatJob(jobs[:cp], at, j.ID)
			q = append(q, at)
		}
	}
	nl := len(q)
	for i := cp; i < len(jobs); i++ {
		if jobs[i].Desire > 0 {
			q = append(q, i)
		}
	}
	// Fill Q from Q′ so no processor idles. The jobs moved over are chosen
	// round-robin across cycles (see rot): rot indexes Q′, the marked
	// α-active jobs in ID order.
	wrap := len(q) // where in q the jobs taken after wrapping around Q′'s end start
	if need := min(p-nq, r.nqp); need > 0 {
		qp := r.qp[:0]
		for i, j := range jobs[:cp] {
			if j.Desire > 0 && r.marked(j.ID) {
				qp = append(qp, i)
			}
		}
		r.qp = qp
		m := r.rot % len(qp)
		e := min(m+need, len(qp))
		q = append(q, qp[m:e]...)
		wrap = len(q)
		q = append(q, qp[:need-(e-m)]...)
		r.rot += need
	}
	r.q = q
	desires := r.desires[:0]
	for _, i := range q {
		desires = append(desires, jobs[i].Desire)
	}
	r.desires = desires
	// Leap safety: with no marks at entry this call was pure DEQ over every
	// α-active job and left the marks and rotation untouched, so the
	// horizon is DEQ's. A cycle completion (marks present) mutates rot —
	// settle one step at a time.
	if r.nqp == 0 {
		r.horizon = deqHorizon(desires, p)
	} else {
		r.horizon = 0
	}
	r.deqAllot = slices.Grow(r.deqAllot[:0], len(q))[:len(q)]
	r.deqScratch = slices.Grow(r.deqScratch[:0], len(q))[:len(q)]
	allot := DeqInto(r.deqAllot, r.deqScratch, desires, p, int(t))
	// DEQ's order put the jobs moved over last; the grants go out by ID.
	// Below the cursor the late entrants merge with the jobs moved over —
	// the ones taken after the wrap first — and then comes the rest of Q.
	emit := func(j int) {
		if a := allot[j]; a != 0 {
			out = append(out, sched.CatGrant{ID: jobs[q[j]].ID, N: a})
		}
	}
	x := 0
	for _, run := range [2][2]int{{wrap, len(q)}, {nq, wrap}} {
		for y := run[0]; y < run[1]; y++ {
			for ; x < nl && q[x] < q[y]; x++ {
				emit(x)
			}
			emit(y)
		}
	}
	for ; x < nq; x++ {
		emit(x)
	}
	// Unmark all jobs: a new cycle starts next step if still overloaded.
	r.gen++
	r.cursor, r.nqp = 0, 0
	r.late.Clear()
	return out
}

// Allot is the dense entry: one allotment per job, freshly allocated.
func (r *RAD) Allot(t int64, jobs []sched.CatJob, p int) []int {
	if len(jobs) == 0 {
		r.AllotInto(t, jobs, p, nil)
		return emptyAllot
	}
	allot := make([]int, len(jobs))
	r.AllotInto(t, jobs, p, allot)
	return allot
}

// AllotInto is Allot writing into caller-owned storage: dst must have
// len(jobs) entries and is fully overwritten. It is an adapter onto
// AllotDelta that derives the late entrants and the counts afresh from jobs,
// as Figure 2 derives Q and Q′. PerCategory does not come through here.
func (r *RAD) AllotInto(t int64, jobs []sched.CatJob, p int, dst []int) {
	clear(dst)
	r.late.Clear()
	r.live, r.nqp = 0, 0
	for _, j := range jobs {
		if j.Desire > 0 {
			r.JobEntered(j.ID)
		}
	}
	r.grants = r.AllotDelta(t, jobs, p, r.grants[:0])
	i := 0
	for _, g := range r.grants {
		for jobs[i].ID != g.ID {
			i++
		}
		dst[i] = g.N
	}
}

// StableHorizon implements sched.CategoryStable: it reports how many
// additional consecutive steps after the most recent Allot call stay in
// closed form, assuming the engine's leap law (unchanged α-active set,
// every desire decreasing by exactly its allotment each step). Non-zero
// only in DEQ mode with no round-robin marks and every job strictly
// deprived — the regime where each step is the equal share plus a
// t-rotated remainder that deqLeapTotals accounts for exactly.
func (r *RAD) StableHorizon() int64 { return r.horizon }

// LeapTotals implements sched.CategoryStable via the closed-form
// all-deprived DEQ aggregate; see deqLeapTotals.
func (r *RAD) LeapTotals(t int64, jobs []sched.CatJob, p int, n int64, dst []int) {
	deqLeapTotals(t, jobs, p, n, dst)
}

// JobsDone drops marks of completed jobs so state cannot grow without
// bound across long online runs. Under PerCategory the job has already left
// the list (JobLeft); a caller of the dense entry that keeps listing it has
// it re-enter unmarked on the next call.
func (r *RAD) JobsDone(ids []int) {
	for _, id := range ids {
		if id >= 0 && id < len(r.stamp) {
			r.stamp[id] = 0
		}
	}
}

// radState is the serialized form of a RAD's cross-step state.
type radState struct {
	Marked []int `json:"marked,omitempty"`
	Rot    int   `json:"rot"`
}

// SnapshotState captures the round-robin marks and the bonus-service
// rotation, the only state RAD carries between steps. Marked IDs are
// ascending (dense-slice order) so the encoding is deterministic.
func (r *RAD) SnapshotState() ([]byte, error) {
	st := radState{Rot: r.rot}
	for id, g := range r.stamp {
		if g == r.gen {
			st.Marked = append(st.Marked, id)
		}
	}
	return json.Marshal(st)
}

// RestoreState rebuilds the marks and rotation from a SnapshotState
// encoding.
func (r *RAD) RestoreState(data []byte) error {
	var st radState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: decode rad state: %w", err)
	}
	r.gen, r.cursor, r.live, r.nqp = 1, 0, 0, 0
	r.late.Clear()
	clear(r.stamp)
	top := -1
	for _, id := range st.Marked {
		if id < 0 {
			return fmt.Errorf("core: rad state has negative job ID %d", id)
		}
		top = max(top, id)
	}
	r.growStamp(top + 1) // once, not once per mark
	for _, id := range st.Marked {
		r.mark(id)
	}
	r.rot = st.Rot
	r.horizon = 0
	return nil
}

var (
	_ sched.CategoryScheduler     = (*RAD)(nil)
	_ sched.Completer             = (*RAD)(nil)
	_ sched.Snapshotter           = (*RAD)(nil)
	_ sched.CategoryDeltaAllotter = (*RAD)(nil)
	_ sched.CategoryStable        = (*RAD)(nil)
)

// NewKRAD returns the paper's K-RAD scheduler for k resource categories:
// one independent RAD per category, assembled with sched.PerCategory.
func NewKRAD(k int) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = NewRAD()
	}
	return sched.NewPerCategory("k-rad", cats)
}
