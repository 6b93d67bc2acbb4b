package core

import (
	"encoding/json"
	"fmt"

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
type RAD struct {
	// gen and stamp hold the round-robin marks as a generation-stamped
	// dense slice keyed by job ID: stamp[id] == gen means marked. Clearing
	// every mark is gen++ — O(1) instead of O(marks) — and membership is
	// one bounds check plus one load instead of a map probe. stamp grows
	// to the largest job ID a round-robin call has seen; JobsDone zeroes
	// slots so the marks themselves cannot leak across job lifetimes.
	gen   uint64
	stamp []uint64
	// rot rotates which marked jobs receive the cycle-completing "bonus"
	// service (the move from Q′ to Q below). Figure 2 leaves the choice
	// unspecified; rotating it keeps long-run service counts equal instead
	// of systematically favoring the lowest job IDs.
	rot int
	// horizon is the leap-safety report of the most recent Allot/AllotInto
	// call; see StableHorizon.
	horizon int64
	// Scratch reused across Allot calls; each call clobbers all of it.
	q, qp, desires, deqAllot, deqScratch []int
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

func (r *RAD) mark(id int) {
	r.growStamp(id + 1)
	r.stamp[id] = r.gen
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

// Allot implements the RAD procedure of Figure 2 for one category:
//
//	Q  ← unmarked α-active jobs (ascending ID = queue order)
//	Q′ ← marked α-active jobs
//	if |Q| > P  → ROUND-ROBIN: the first P jobs of Q get one processor
//	              each and are marked
//	else        → move min(|Q′|, P−|Q|) jobs from Q′ to Q, partition the
//	              processors over Q with DEQ, and unmark all jobs (the
//	              round-robin cycle, if any, is complete)
func (r *RAD) Allot(t int64, jobs []sched.CatJob, p int) []int {
	if len(jobs) == 0 {
		r.horizon = sched.Unbounded
		return emptyAllot
	}
	allot := make([]int, len(jobs))
	r.AllotInto(t, jobs, p, allot)
	return allot
}

// AllotInto is Allot writing into caller-owned storage: dst must have
// len(jobs) entries and is fully overwritten. It implements
// sched.CategoryIntoAllotter so PerCategory's hot path allocates nothing.
func (r *RAD) AllotInto(t int64, jobs []sched.CatJob, p int, dst []int) {
	for i := range dst {
		dst[i] = 0
	}
	if len(jobs) == 0 || p <= 0 {
		// No jobs (or no processors): the all-zero output repeats as long
		// as the inputs do.
		r.horizon = sched.Unbounded
		return
	}
	// Split into Q (unmarked) and Q′ (marked), preserving ID order.
	q := growInts(r.q, len(jobs))[:0]
	qp := growInts(r.qp, len(jobs))[:0]
	for i, j := range jobs {
		if r.marked(j.ID) {
			qp = append(qp, i)
		} else {
			q = append(q, i)
		}
	}
	r.q, r.qp = q, qp
	if len(q) > p {
		// ROUND-ROBIN: first P jobs of Q get one processor each, marked.
		// Mid-cycle state changes every step, so never leap over it.
		r.horizon = 0
		// Jobs arrive in ascending ID: one growth covers the whole cycle,
		// instead of one reallocation per newly marked ID.
		r.growStamp(jobs[len(jobs)-1].ID + 1)
		for _, i := range q[:p] {
			dst[i] = 1
			r.mark(jobs[i].ID)
		}
		return
	}
	// Cycle completes this step: fill Q from Q′ so no processor idles.
	// The jobs moved over are chosen round-robin across cycles (see rot).
	need := p - len(q)
	if need > len(qp) {
		need = len(qp)
	}
	if need > 0 {
		start := r.rot % len(qp)
		for j := 0; j < need; j++ {
			q = append(q, qp[(start+j)%len(qp)])
		}
		r.rot += need
	}
	// Leap safety: with no marks at entry this call was pure DEQ and left
	// the marks and rotation untouched, so the horizon is DEQ's. A cycle
	// completion (marks present) mutates rot — settle one step at a time.
	if len(qp) == 0 {
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
	for j, a := range DeqInto(r.deqAllot, r.deqScratch, desires, p, int(t)) {
		dst[q[j]] = a
	}
	// Unmark all jobs: a new cycle starts next step if still overloaded.
	r.gen++
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
// bound across long online runs.
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
	r.gen = 1
	clear(r.stamp)
	for _, id := range st.Marked {
		if id < 0 {
			return fmt.Errorf("core: rad state has negative job ID %d", id)
		}
		r.mark(id)
	}
	r.rot = st.Rot
	r.horizon = 0
	return nil
}

var (
	_ sched.CategoryScheduler    = (*RAD)(nil)
	_ sched.CategoryCompleter    = (*RAD)(nil)
	_ sched.CategorySnapshotter  = (*RAD)(nil)
	_ sched.CategoryIntoAllotter = (*RAD)(nil)
	_ sched.CategoryStable       = (*RAD)(nil)
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
