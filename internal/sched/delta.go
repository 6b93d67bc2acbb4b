package sched

import (
	"fmt"
	"sort"
)

// DeltaAllotter is the delta-driven form of a Scheduler: instead of being
// handed every active job's view each step, the scheduler is told what
// changed — JobChanged when a job enters the active set or its desire row
// differs from what it last reported, JobGone when it finishes or is
// cancelled — and AllotDelta returns only the jobs that receive processors.
// A round then costs the processors handed out plus the changes since the
// last round, not the jobs that wait. It is the only form the engine drives,
// from the slot table's three writers; PerCategory and core.RAD implement
// it, and their dense Allot/AllotInto entries are adapters onto it
// (denseEntry); any other Scheduler enters through FromDense. One value
// serves one driver: either the delta calls or the dense entry, never both.
type DeltaAllotter interface {
	// JobChanged reports job id's current desire row (len K). A nil desire
	// means the job left the active set but may return — its cross-step
	// state (round-robin marks) is kept. changed, when not nil, vouches that
	// the row differs from the job's last report only in the categories it
	// flags, so the others need no lookup. Nothing passed is retained.
	JobChanged(id int, desire []int, changed []bool)
	// JobGone reports that job id finished or was cancelled: every trace of
	// it is dropped. It subsumes Completer.JobsDone for that job. desire,
	// when not nil, is positive wherever the row the job last reported is:
	// the job is looked for only in those categories.
	JobGone(id int, desire []int)
	// AllotDelta returns step t's allotment over the jobs reported so far,
	// one list per category (index α−1): the jobs that receive α-processors
	// and how many, ascending by job ID; a job in no list receives nothing.
	// The lists are the scheduler's, are not to be written, and are valid
	// until its next call. An error means the round produced no allotment:
	// a scheduler underneath answered in the wrong shape.
	AllotDelta(t int64, caps []int) ([][]CatGrant, error)
}

// CatGrant is one job's non-zero allotment in one category.
type CatGrant struct {
	ID int
	N  int
}

// CategoryDeltaAllotter is the delta-driven form of a CategoryScheduler.
// PerCategory owns the α-active list (ascending ID, desires current) and
// tells the scheduler who entered and who left it; AllotDelta appends to out
// the non-zero allotments over that list, ascending by ID, and returns it.
// The list keeps a hole where a job left: an entry with Desire 0, which
// keeps its ID and is to be passed over.
// JobLeft keeps the job's cross-step state — it may re-enter; JobsDone
// (Completer) is what forgets it, and only ever follows JobLeft.
type CategoryDeltaAllotter interface {
	JobEntered(id int)
	JobLeft(id int)
	AllotDelta(t int64, jobs []CatJob, p int, out []CatGrant) []CatGrant
}

// denseEntry is the dense entry — Allot, AllotInto and JobsDone — of the
// delta-driven schedulers, which embed it: it reports every job it is handed
// to d, and every job it was handed last time and is not now as gone, then
// scatters the grants into the caller's matrix. A report of rows d already
// holds changes nothing, so a call costs O(n·K), what projecting the views
// used to. It serves callers that know only the dense contract: a decorator
// around the scheduler, the baselines' harnesses, tests. Floors are not its
// business: a view's Floor is not read.
type denseEntry struct {
	d          DeltaAllotter
	last, next []int // the previous call's IDs, and the next call's storage
}

// Allot implements Scheduler: AllotInto on a freshly allocated matrix.
func (s *denseEntry) Allot(t int64, jobs []JobView, caps []int) [][]int {
	var m Matrix
	dst := m.Shape(len(jobs), len(caps))
	s.AllotInto(t, jobs, caps, dst)
	return dst
}

// AllotInto implements IntoAllotter: sync the views, run the round, scatter.
// The dense contract has no error to return, so a failed round panics.
func (s *denseEntry) AllotInto(t int64, jobs []JobView, caps []int, dst [][]int) {
	s.sync(jobs)
	all, err := s.d.AllotDelta(t, caps)
	if err != nil {
		panic(err)
	}
	for a, grants := range all {
		i := 0
		for _, g := range grants {
			i += sort.Search(len(jobs)-i, func(x int) bool { return jobs[i+x].ID >= g.ID })
			dst[i][a] = g.N
		}
	}
}

// sync reports jobs to d, and the jobs of the previous call that are no
// longer there; both lists ascend by ID.
func (s *denseEntry) sync(jobs []JobView) {
	prev, now, o := s.last, s.next[:0], 0
	for i := range jobs {
		v := &jobs[i]
		for ; o < len(prev) && prev[o] < v.ID; o++ {
			s.d.JobChanged(prev[o], nil, nil)
		}
		if o < len(prev) && prev[o] == v.ID {
			o++
		}
		now = append(now, v.ID)
		s.d.JobChanged(v.ID, v.Desire, nil)
	}
	for _, id := range prev[o:] {
		s.d.JobChanged(id, nil, nil)
	}
	s.last, s.next = now, prev
}

// JobsDone implements Completer; a job listed again is a new job to d.
func (s *denseEntry) JobsDone(ids []int) {
	for _, id := range ids {
		s.d.JobGone(id, nil)
	}
}

// FromDense is the delta form of a Scheduler that knows only the dense
// contract — the baselines, Quantized, decorators, caller-written schedulers.
// It is the one adapter in that direction: sim.NewEngine wraps any scheduler
// that is not a DeltaAllotter in it. It keeps the rows such a scheduler wants
// current from the delta calls and hands them over whole each round, as views
// of every active job, ascending ID, zero-desire rows included, with no
// Floor. AllotDelta calls AllotInto when s has it and Allot otherwise; a
// matrix with the wrong number of rows or a row of the wrong width is an
// error naming s. JobGone forwards to Completer.JobsDone.
func FromDense(s Scheduler) DeltaAllotter {
	d := &fromDense{s: s}
	d.into, _ = s.(IntoAllotter)
	d.done, _ = s.(Completer)
	return d
}

type fromDense struct {
	s    Scheduler
	into IntoAllotter
	done Completer
	// The active jobs, each with value 1 and its desire row.
	jobs  IDList
	views []JobView // the last round's, rebuilt from jobs
	mat   Matrix
	out   [][]CatGrant
	oneID [1]int
}

func (d *fromDense) JobChanged(id int, desire []int, _ []bool) {
	if desire == nil {
		d.jobs.Delete(id)
		return
	}
	d.jobs.w = len(desire)
	i, _ := d.jobs.Insert(id, 1)
	copy(d.jobs.Row(i), desire)
}

func (d *fromDense) JobGone(id int, _ []int) {
	d.jobs.Delete(id)
	if d.done != nil {
		d.oneID[0] = id
		d.done.JobsDone(d.oneID[:])
	}
}

func (d *fromDense) AllotDelta(t int64, caps []int) ([][]CatGrant, error) {
	d.views = d.views[:0]
	for i, j := range d.jobs.Jobs() {
		if j.Desire != 0 {
			d.views = append(d.views, JobView{ID: j.ID, Desire: d.jobs.Row(i)})
		}
	}
	var rows [][]int
	if d.into != nil {
		rows = d.mat.Shape(len(d.views), len(caps))
		d.into.AllotInto(t, d.views, caps, rows)
	} else if rows = d.s.Allot(t, d.views, caps); len(rows) != len(d.views) {
		return nil, fmt.Errorf("sched: scheduler %q returned %d rows for %d jobs", d.s.Name(), len(rows), len(d.views))
	}
	for len(d.out) < len(caps) {
		d.out = append(d.out, nil)
	}
	for a := range d.out {
		d.out[a] = d.out[a][:0]
	}
	for i, row := range rows {
		if len(row) != len(caps) {
			return nil, fmt.Errorf("sched: scheduler %q returned a row of %d categories for job %d, want %d", d.s.Name(), len(row), d.views[i].ID, len(caps))
		}
		for a, v := range row {
			if v != 0 {
				d.out[a] = append(d.out[a], CatGrant{ID: d.views[i].ID, N: v})
			}
		}
	}
	return d.out, nil
}
