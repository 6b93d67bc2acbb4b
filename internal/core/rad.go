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
	// cursor, both in ID order with nothing tested per job.
	cursor int
	late   []int // ascending IDs
	// rot rotates which marked jobs receive the cycle-completing "bonus"
	// service (the move from Q′ to Q below). Figure 2 leaves the choice
	// unspecified; rotating it keeps long-run service counts equal instead
	// of systematically favoring the lowest job IDs.
	rot int
	// horizon is the leap-safety report of the most recent round; see
	// StableHorizon.
	horizon int64
	// Scratch reused across rounds; each round clobbers all of it.
	q, desires, deqAllot, deqScratch, order []int
	// The dense entry's memory: the IDs it was last handed, and its grants.
	ids    []int
	grants []sched.CatGrant
}

// NewRAD returns a fresh single-category RAD scheduler.
func NewRAD() *RAD { return &RAD{gen: 1} }

// Name implements sched.CategoryScheduler.
func (r *RAD) Name() string { return "rad" }

func (r *RAD) marked(id int) bool {
	return id >= 0 && id < len(r.stamp) && r.stamp[id] == r.gen
}

// growStamp makes stamp hold every ID below n — exactly, with no spare
// capacity, so its size never depends on the order IDs were marked in.
func (r *RAD) growStamp(n int) {
	if n > len(r.stamp) {
		grown := make([]uint64, n)
		copy(grown, r.stamp)
		r.stamp = grown
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

// growInts returns buf resliced to length n, reallocating only when the
// capacity is insufficient.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, n+n/2+8)
	}
	return buf[:n]
}

// JobEntered implements sched.CategoryDeltaAllotter: a job that joins
// unmarked below the cursor is a late entrant.
func (r *RAD) JobEntered(id int) {
	if id < r.cursor && !r.marked(id) {
		if i, in := slices.BinarySearch(r.late, id); !in {
			r.late = slices.Insert(r.late, i, id)
		}
	}
}

// JobLeft implements sched.CategoryDeltaAllotter. The job's mark stays: it
// is what the job re-enters with.
func (r *RAD) JobLeft(id int) {
	if id < r.cursor && !r.marked(id) {
		if i, in := slices.BinarySearch(r.late, id); in {
			r.late = slices.Delete(r.late, i, i+1)
		}
	}
}

// AllotDelta implements the RAD procedure of Figure 2 for one category, over
// the α-active list it is handed (ascending ID = queue order):
//
//	Q  ← unmarked α-active jobs
//	Q′ ← marked α-active jobs
//	if |Q| > P  → ROUND-ROBIN: the first P jobs of Q get one processor
//	              each and are marked
//	else        → move min(|Q′|, P−|Q|) jobs from Q′ to Q, partition the
//	              processors over Q with DEQ, and unmark all jobs (the
//	              round-robin cycle, if any, is complete)
//
// A round-robin round costs O(P), a cycle-completing round O(P log P), a
// DEQ round O(|jobs|) ≤ O(P).
func (r *RAD) AllotDelta(t int64, jobs []sched.CatJob, p int, out []sched.CatGrant) []sched.CatGrant {
	if len(jobs) == 0 || p <= 0 {
		// No jobs (or no processors): the all-zero output repeats as long
		// as the inputs do.
		r.horizon = sched.Unbounded
		return out
	}
	// Q′ is the list below the cursor minus the late entrants.
	cp := 0
	if r.cursor > 0 {
		cp, _ = sched.FindCatJob(jobs, len(jobs), r.cursor)
	}
	nqp := cp - len(r.late)
	nq := len(jobs) - nqp
	if nq > p {
		// ROUND-ROBIN: first P jobs of Q get one processor each, marked.
		// Mid-cycle state changes every step, so never leap over it.
		r.horizon = 0
		// Jobs arrive in ascending ID: one growth covers the whole cycle,
		// instead of one reallocation per newly marked ID.
		r.growStamp(jobs[len(jobs)-1].ID + 1)
		n := min(p, len(r.late))
		for _, id := range r.late[:n] {
			out = append(out, sched.CatGrant{ID: id, N: 1})
			r.mark(id)
		}
		r.late = r.late[:copy(r.late, r.late[n:])]
		for _, j := range jobs[cp : cp+p-n] {
			out = append(out, sched.CatGrant{ID: j.ID, N: 1})
			r.mark(j.ID)
		}
		return out
	}
	// Cycle completes this step. Q, as positions in jobs: the late entrants,
	// then everything from the cursor on.
	q := r.q[:0]
	for i, id := range r.late {
		i, _ = sched.FindCatJob(jobs[:cp], i, id)
		q = append(q, i)
	}
	for i := cp; i < len(jobs); i++ {
		q = append(q, i)
	}
	// Fill Q from Q′ so no processor idles. The jobs moved over are chosen
	// round-robin across cycles (see rot): rot indexes Q′ by position, and
	// the k-th member of Q′ is the k-th position below the cursor that is
	// not a late entrant's.
	need := min(p-nq, nqp)
	wrap := len(q) + need // where in q the jobs taken after wrapping around Q′'s end start
	if need > 0 {
		latePos := q[:len(r.late)]
		m := r.rot % nqp
		wrap = len(q) + min(need, nqp-m)
		pos, li := m, 0
		for li < len(latePos) && latePos[li] <= pos {
			pos++
			li++
		}
		for taken := 0; taken < need; taken++ {
			q = append(q, pos)
			m++
			pos++
			if m == nqp {
				m, pos, li = 0, 0, 0
			}
			for li < len(latePos) && latePos[li] == pos {
				pos++
				li++
			}
		}
		r.rot += need
	}
	r.q = q
	// Leap safety: with no marks at entry this call was pure DEQ and left
	// the marks and rotation untouched, so the horizon is DEQ's. A cycle
	// completion (marks present) mutates rot — settle one step at a time.
	if nqp == 0 {
		r.horizon = deqStableHorizon(jobs, p)
	} else {
		r.horizon = 0
	}
	desires := growInts(r.desires, len(q))
	for j, i := range q {
		desires[j] = jobs[i].Desire
	}
	r.desires = desires
	r.deqAllot = growInts(r.deqAllot, len(q))
	r.deqScratch = growInts(r.deqScratch, len(q))
	allot := DeqInto(r.deqAllot, r.deqScratch, desires, p, int(t))
	// DEQ's order put the jobs moved over last; the grants go out by ID.
	// Below the cursor the late entrants merge with the jobs moved over —
	// the ones taken after the wrap first — and then comes the rest of Q.
	order := r.order[:0]
	x := 0
	for _, run := range [2][2]int{{wrap, len(q)}, {nq, wrap}} {
		for y := run[0]; y < run[1]; y++ {
			for ; x < len(r.late) && q[x] < q[y]; x++ {
				order = append(order, x)
			}
			order = append(order, y)
		}
	}
	r.order = order
	for _, j := range order {
		if a := allot[j]; a != 0 {
			out = append(out, sched.CatGrant{ID: jobs[q[j]].ID, N: a})
		}
	}
	for ; x < nq; x++ {
		if a := allot[x]; a != 0 {
			out = append(out, sched.CatGrant{ID: jobs[q[x]].ID, N: a})
		}
	}
	// Unmark all jobs: a new cycle starts next step if still overloaded.
	r.gen++
	r.cursor = 0
	r.late = r.late[:0]
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
// len(jobs) entries and is fully overwritten. It implements
// sched.CategoryIntoAllotter as an adapter onto AllotDelta: the jobs that
// entered or left since the previous call are worked out from the IDs it was
// handed then. PerCategory does not come through here.
func (r *RAD) AllotInto(t int64, jobs []sched.CatJob, p int, dst []int) {
	clear(dst)
	o := 0
	for _, j := range jobs {
		for ; o < len(r.ids) && r.ids[o] < j.ID; o++ {
			r.JobLeft(r.ids[o])
		}
		if o < len(r.ids) && r.ids[o] == j.ID {
			o++
		} else {
			r.JobEntered(j.ID)
		}
	}
	for ; o < len(r.ids); o++ {
		r.JobLeft(r.ids[o])
	}
	r.ids = r.ids[:0]
	for _, j := range jobs {
		r.ids = append(r.ids, j.ID)
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
// the list (JobLeft); a caller of the dense entry may report a job done while
// still listing it, so it is made to leave first.
func (r *RAD) JobsDone(ids []int) {
	for _, id := range ids {
		if len(r.ids) > 0 {
			if i, in := slices.BinarySearch(r.ids, id); in {
				r.ids = slices.Delete(r.ids, i, i+1)
				r.JobLeft(id)
			}
		}
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
	r.gen, r.cursor, r.late, r.ids = 1, 0, r.late[:0], r.ids[:0]
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
	_ sched.CategoryCompleter     = (*RAD)(nil)
	_ sched.CategorySnapshotter   = (*RAD)(nil)
	_ sched.CategoryIntoAllotter  = (*RAD)(nil)
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
