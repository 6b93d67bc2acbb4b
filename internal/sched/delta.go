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
// the jobs that wait. It is the only form the engine drives, from the slot
// table's three writers; WithFloors, PerCategory and core.RAD implement it,
// and their dense Allot/AllotInto entries are adapters onto it (denseEntry);
// any other Scheduler enters through FromDense. One value serves one driver:
// either the delta calls or the dense entry, never both.
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

// allot is AllotInto for d: sync the views, run the round, scatter. The dense
// contract has no error to return, so a failed round panics.
func (s *denseEntry) allot(d DeltaAllotter, t int64, jobs []JobView, caps []int, dst [][]int) {
	s.sync(d, jobs, len(caps))
	all, err := d.AllotDelta(t, caps)
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

// FromDense is the delta form of a Scheduler that knows only the dense
// contract — the baselines, Quantized, decorators, caller-written schedulers.
// It is the one adapter in that direction: sim.NewEngine wraps any scheduler
// that is not a DeltaAllotter in it, and WithFloors a dense inner. It keeps
// the rows such a scheduler wants current from the delta calls and hands them
// over whole each round, as views that read exactly like the engine's slot
// table: every active job, ascending ID, zero-desire rows included, Floor
// where the job reported one. AllotDelta calls AllotInto when s has it and
// Allot otherwise; a matrix with the wrong number of rows or a row of the
// wrong width is an error naming s. JobGone forwards to Completer.JobsDone.
func FromDense(s Scheduler) DeltaAllotter {
	d := &fromDense{s: s}
	d.into, _ = s.(IntoAllotter)
	d.done, _ = s.(Completer)
	return d
}

type fromDense struct {
	s     Scheduler
	into  IntoAllotter
	done  Completer
	k     int
	ids   []int
	rows  []int     // 2K per job: its desire row, then its floor row
	hasFl []bool    // per job: the floor row is reported, not padding
	views []JobView // the last round's, rebuilt from ids and rows
	mat   Matrix
	out   [][]CatGrant
	oneID [1]int
}

func (d *fromDense) JobChanged(id int, desire, floor []int, _ []bool) {
	i, in := slices.BinarySearch(d.ids, id)
	if desire == nil {
		if in {
			d.remove(i)
		}
		return
	}
	k := len(desire)
	if !in {
		d.k = k
		d.ids = slices.Insert(d.ids, i, id)
		d.hasFl = slices.Insert(d.hasFl, i, false)
		// Room for both rows; what they hold is written below.
		d.rows = slices.Insert(slices.Insert(d.rows, i*2*k, desire...), i*2*k, desire...)
	}
	row := d.rows[i*2*k : (i+1)*2*k]
	copy(row, desire)
	copy(row[k:], floor)
	d.hasFl[i] = floor != nil
}

func (d *fromDense) remove(i int) {
	d.ids = slices.Delete(d.ids, i, i+1)
	d.hasFl = slices.Delete(d.hasFl, i, i+1)
	d.rows = slices.Delete(d.rows, i*2*d.k, (i+1)*2*d.k)
}

func (d *fromDense) JobGone(id int, _ []int) {
	if i, in := slices.BinarySearch(d.ids, id); in {
		d.remove(i)
	}
	if d.done != nil {
		d.oneID[0] = id
		d.done.JobsDone(d.oneID[:])
	}
}

func (d *fromDense) AllotDelta(t int64, caps []int) ([][]CatGrant, error) {
	k := d.k
	d.views = d.views[:0]
	for i, id := range d.ids {
		row := d.rows[i*2*k : (i+1)*2*k]
		v := JobView{ID: id, Desire: row[:k:k]}
		if d.hasFl[i] {
			v.Floor = row[k:]
		}
		d.views = append(d.views, v)
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
