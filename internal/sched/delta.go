package sched

import (
	"fmt"
	"slices"
	"sort"
)

// DeltaAllotter is the delta-driven form of a Scheduler: instead of being
// handed every active job's view each step, the scheduler is told what
// changed — JobChanged when a job enters the active set or its rows differ
// from what it last reported, JobGone when it finishes or is cancelled — and
// AllotDelta returns only the jobs that receive processors. A round then
// costs the processors handed out plus the changes since the last round, not
// the jobs that wait. The engine binds it once, ahead of IntoAllotter, and
// drives it from the slot table's three writers; WithFloors, PerCategory and
// core.RAD implement it, and their dense Allot/AllotInto entries are adapters
// onto it (denseEntry). One value serves one driver: either the delta calls
// or the dense entry, never both.
type DeltaAllotter interface {
	// JobChanged reports job id's current desire and floor rows (len K;
	// floor nil for a job that pins nothing). A nil desire means the job left
	// the active set but may return — its cross-step state (round-robin
	// marks) is kept. changed, when not nil, vouches that the rows differ
	// from the job's last report only in the categories it flags, so the
	// others need no lookup. Nothing passed is retained.
	JobChanged(id int, desire, floor []int, changed []bool)
	// JobGone reports that job id finished or was cancelled: every trace of
	// it is dropped. It subsumes Completer.JobsDone for that job. desire,
	// when not nil, is the desire row the job last reported: it is looked
	// for only in the categories where that is positive.
	JobGone(id int, desire []int)
	// AllotDelta returns step t's allotment over the jobs reported so far,
	// one list per category (index α−1): the jobs that receive α-processors
	// and how many, ascending by job ID; a job in no list receives nothing.
	// The lists are the scheduler's, are not to be written, and are valid
	// until its next call.
	AllotDelta(t int64, caps []int) [][]CatGrant
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
// JobLeft keeps the job's cross-step state — it may re-enter; JobsDone
// (CategoryCompleter) is what forgets it, and only ever follows JobLeft.
type CategoryDeltaAllotter interface {
	JobEntered(id int)
	JobLeft(id int)
	AllotDelta(t int64, jobs []CatJob, p int, out []CatGrant) []CatGrant
}

// FindCatJob returns the position of id in jobs (ascending ID) or the
// position it would be inserted at, and whether it is there. A release is
// the highest ID yet, so the end is tried first; otherwise the search
// gallops forward from hint — calls within a round come in ascending ID, so
// successive lookups land next to each other — and falls back to a binary
// search of the part below it.
func FindCatJob(jobs []CatJob, hint, id int) (int, bool) {
	lo, hi := 0, len(jobs)
	if hi == 0 || jobs[hi-1].ID < id {
		return hi, false
	}
	if hint < hi {
		if jobs[hint].ID > id {
			hi = hint
		} else {
			lo = hint
			for step := 1; lo+step < hi; step <<= 1 {
				if jobs[lo+step].ID > id {
					hi = lo + step
					break
				}
				lo += step
			}
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if jobs[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(jobs) && jobs[lo].ID == id
}

// denseEntry is the adapter behind the dense Allot/AllotInto entries of the
// delta-driven schedulers: it remembers the views of the previous call, turns
// the difference into JobChanged calls, and scatters the grants into the
// caller's matrix. It costs O(n·K) per call — what projecting the views used
// to — and exists for callers that know only the dense contract: a decorator
// around the scheduler, the baselines' harnesses, tests.
type denseEntry struct {
	k      int
	floors bool       // some view has carried floors: floor rows are kept from then on
	last   denseViews // the previous call's views
	spare  denseViews // the call before's storage, the next call's
}

// denseViews is the part of a []JobView the adapter compares: IDs, desire
// rows (K per job), and floor rows (K per job, meaningful where hasFl).
type denseViews struct {
	ids    []int
	desire []int
	floor  []int
	hasFl  []bool
}

// allot is AllotInto for d: sync the views, run the round, scatter.
func (s *denseEntry) allot(d DeltaAllotter, t int64, jobs []JobView, caps []int, dst [][]int) {
	s.sync(d, jobs, len(caps))
	for a, grants := range d.AllotDelta(t, caps) {
		i := 0
		for _, g := range grants {
			i += sort.Search(len(jobs)-i, func(x int) bool { return jobs[i+x].ID >= g.ID })
			dst[i][a] = g.N
		}
	}
}

// sync walks jobs against the previous call's, both ascending by ID, tells d
// about every job whose rows differ, is new, or is no longer there, and keeps
// jobs as the next call's memory.
func (s *denseEntry) sync(d DeltaAllotter, jobs []JobView, k int) {
	s.k = k
	old := &s.last
	if !s.floors {
		for i := range jobs {
			if jobs[i].Floor != nil {
				s.floors = true
				old.floor = make([]int, len(old.ids)*k)
				old.hasFl = make([]bool, len(old.ids))
				break
			}
		}
	}
	now := denseViews{s.spare.ids[:0], s.spare.desire[:0], s.spare.floor[:0], s.spare.hasFl[:0]}
	o := 0 // next job of the previous call
	for i := range jobs {
		v := &jobs[i]
		for ; o < len(old.ids) && old.ids[o] < v.ID; o++ {
			d.JobChanged(old.ids[o], nil, nil, nil)
		}
		same := o < len(old.ids) && old.ids[o] == v.ID
		if same {
			for a, x := range old.desire[o*k : (o+1)*k] {
				if v.Desire[a] != x {
					same = false
					break
				}
			}
			if same && s.floors {
				same = old.hasFl[o] == (v.Floor != nil) && (v.Floor == nil || slices.Equal(old.floor[o*k:(o+1)*k], v.Floor[:k]))
			}
			o++
		}
		if !same {
			d.JobChanged(v.ID, v.Desire, v.Floor, nil)
		}
		now.ids = append(now.ids, v.ID)
		now.desire = append(now.desire, v.Desire[:k]...)
		if s.floors {
			now.hasFl = append(now.hasFl, v.Floor != nil)
			now.floor = append(now.floor, v.Floor...)
			now.floor = slices.Grow(now.floor, k)[:len(now.ids)*k] // a nil Floor's row is never read
		}
	}
	for ; o < len(old.ids); o++ {
		d.JobChanged(old.ids[o], nil, nil, nil)
	}
	s.last, s.spare = now, s.last
}

// done is JobsDone for d. A job the caller keeps listing after reporting it
// done is a new job to d, so what is remembered of it is made to differ.
func (s *denseEntry) done(d DeltaAllotter, ids []int) {
	for _, id := range ids {
		if i, ok := slices.BinarySearch(s.last.ids, id); ok {
			s.last.desire[i*s.k] = -1
		}
		d.JobGone(id, nil)
	}
}

// denseInner gives a Scheduler that knows only the dense contract the delta
// form WithFloors drives: it keeps the rows such a scheduler wants — every
// active job, ascending ID, zero-desire rows included — current from the
// delta calls and hands them over whole, as views, each round.
type denseInner struct {
	s      Scheduler
	k      int
	ids    []int
	desire []int     // K per job
	views  []JobView // the last round's, rebuilt from ids and desire
	mat    Matrix
	out    [][]CatGrant
	oneID  [1]int
}

func (d *denseInner) JobChanged(id int, desire, _ []int, _ []bool) {
	i, in := slices.BinarySearch(d.ids, id)
	switch {
	case desire == nil:
		if in {
			d.remove(i)
		}
	case in:
		copy(d.desire[i*d.k:(i+1)*d.k], desire)
	default:
		d.k = len(desire)
		d.ids = slices.Insert(d.ids, i, id)
		d.desire = slices.Insert(d.desire, i*d.k, desire...)
	}
}

func (d *denseInner) remove(i int) {
	d.ids = slices.Delete(d.ids, i, i+1)
	d.desire = slices.Delete(d.desire, i*d.k, (i+1)*d.k)
}

func (d *denseInner) JobGone(id int, _ []int) {
	if i, in := slices.BinarySearch(d.ids, id); in {
		d.remove(i)
	}
	if c, ok := d.s.(Completer); ok {
		d.oneID[0] = id
		c.JobsDone(d.oneID[:])
	}
}

func (d *denseInner) AllotDelta(t int64, caps []int) [][]CatGrant {
	d.views = d.views[:0]
	for i, id := range d.ids {
		d.views = append(d.views, JobView{ID: id, Desire: d.desire[i*d.k : (i+1)*d.k : (i+1)*d.k]})
	}
	rows := d.mat.Shape(len(d.views), len(caps))
	if ia, ok := d.s.(IntoAllotter); ok {
		ia.AllotInto(t, d.views, caps, rows)
	} else {
		out := d.s.Allot(t, d.views, caps)
		if len(out) != len(d.views) {
			panic(fmt.Sprintf("sched: scheduler %q returned %d rows for %d jobs", d.s.Name(), len(out), len(d.views)))
		}
		for i := range out {
			copy(rows[i], out[i])
		}
	}
	for len(d.out) < len(caps) {
		d.out = append(d.out, nil)
	}
	for a := range d.out {
		d.out[a] = d.out[a][:0]
	}
	for i, row := range rows {
		for a, v := range row {
			if v != 0 {
				d.out[a] = append(d.out[a], CatGrant{ID: d.views[i].ID, N: v})
			}
		}
	}
	return d.out
}
