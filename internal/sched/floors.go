package sched

import (
	"fmt"
	"slices"
)

// WithFloors makes any scheduler valid for non-preemptive jobs: every
// job's allotment floor (processors pinned by in-flight multi-step tasks)
// is granted first, and the wrapped scheduler partitions only the residual
// capacity over the residual desires. For unit-task workloads (all floors
// zero) the wrapper is the identity.
//
// The wrapper also extends the inner scheduler's stability report (Stable)
// to the hold law: when every floor-bearing job in a round is HELD —
// desire equals floor in every category, so its residual desire is zero
// and the inner scheduler effectively does not see it — the inner stability
// analysis of the residual system applies verbatim, and the held rows'
// per-step allotments are their frozen floors. StableHorizon then
// forwards the inner horizon, and LeapTotals fills held rows with n×floor.
// Rounds where some floor-bearing job is NOT held report horizon 0: its
// residual desire shifts as leases finish, which the inner analysis cannot
// vouch for.
//
// This is the standard way two-level systems retrofit malleable-job
// schedulers onto non-preemptive tasks; experiment E16 measures what the
// lost reallocation freedom costs against the paper's bounds.
//
// The layer is delta-driven (DeltaAllotter): it keeps the floor-bearing jobs
// — usually few, never more than there are processors pinned — in an
// ID-sorted list with their floor rows, and the pinned-processor sums and the
// pinned/unheld counts as aggregates over it, so a round never scans the
// views. The inner scheduler is driven through its own delta form with the
// residual desires; one that has none enters through FromDense.
type floored struct {
	inner Scheduler
	delta DeltaAllotter // inner's delta form: inner itself, or FromDense(inner)

	// The floor-bearing jobs (Floor != nil), ascending by ID: their floor
	// rows, and whether some desire exceeds its floor (not held).
	k      int
	ids    []int
	rows   []int // K per job
	unheld []bool
	// Aggregates over them: processors pinned per category, jobs with any
	// floor > 0, jobs not held.
	pinned  []int
	nPinned int
	nUnheld int

	// Scratch reused across calls, so the engine's allocation-free hot
	// path stays allocation-free through the wrapper.
	residual []int
	capsBuf  []int
	out      [][]CatGrant
	merged   [][]CatGrant
	dense    denseEntry
}

// WithFloors wraps inner; see the type comment.
func WithFloors(inner Scheduler) Scheduler {
	f := &floored{inner: inner}
	if f.delta, _ = inner.(DeltaAllotter); f.delta == nil {
		f.delta = FromDense(inner)
	}
	return f
}

// Name implements Scheduler.
func (f *floored) Name() string { return f.inner.Name() + "+floors" }

// Allot implements Scheduler. The result is freshly allocated; hot paths
// use AllotInto or the delta form.
func (f *floored) Allot(t int64, jobs []JobView, caps []int) [][]int {
	var m Matrix
	dst := m.Shape(len(jobs), len(caps))
	f.AllotInto(t, jobs, caps, dst)
	return dst
}

// AllotInto implements IntoAllotter as an adapter onto the delta form
// (denseEntry); the engine drives JobChanged/JobGone/AllotDelta directly.
func (f *floored) AllotInto(t int64, jobs []JobView, caps []int, dst [][]int) {
	f.dense.allot(f, t, jobs, caps, dst)
}

// withdraw takes floor-bearing job i's contributions out of the aggregates.
func (f *floored) withdraw(i int) {
	any := false
	for a, fl := range f.rows[i*f.k : (i+1)*f.k] {
		f.pinned[a] -= fl
		any = any || fl > 0
	}
	if any {
		f.nPinned--
	}
	if f.unheld[i] {
		f.nUnheld--
	}
}

// JobChanged implements DeltaAllotter: a floor-bearing job's row and
// contributions are replaced, and the inner scheduler sees the residual
// desire — desire minus floor, clamped at zero, so a held job vanishes from
// every category.
func (f *floored) JobChanged(id int, desire, floor []int, changed []bool) {
	if desire == nil {
		floor = nil // out of the active set: nothing pinned either
	}
	i, in := slices.BinarySearch(f.ids, id)
	if !in && floor == nil {
		f.delta.JobChanged(id, desire, nil, changed)
		return
	}
	if in {
		f.withdraw(i)
	}
	if floor == nil {
		f.remove(i)
		f.delta.JobChanged(id, desire, nil, changed)
		return
	}
	k := len(floor)
	if !in {
		f.k = k
		f.ids = slices.Insert(f.ids, i, id)
		f.unheld = slices.Insert(f.unheld, i, false)
		f.rows = slices.Insert(f.rows, i*k, floor...)
		for len(f.pinned) < k {
			f.pinned = append(f.pinned, 0)
			f.residual = append(f.residual, 0)
		}
	}
	any, unheld := false, false
	row, residual := f.rows[i*k:(i+1)*k], f.residual[:k]
	for a, fl := range floor {
		row[a] = fl
		f.pinned[a] += fl
		any = any || fl > 0
		unheld = unheld || desire[a] > fl
		residual[a] = max(desire[a]-fl, 0)
	}
	if any {
		f.nPinned++
	}
	if unheld {
		f.nUnheld++
	}
	f.unheld[i] = unheld
	f.delta.JobChanged(id, residual, nil, changed)
}

// JobGone implements DeltaAllotter. A residual desire is positive only where
// the desire is, so the hint passes through as it is.
func (f *floored) JobGone(id int, desire []int) {
	if i, in := slices.BinarySearch(f.ids, id); in {
		f.withdraw(i)
		f.remove(i)
	}
	f.delta.JobGone(id, desire)
}

// remove deletes floor-bearing job i, its contributions already withdrawn.
func (f *floored) remove(i int) {
	f.ids = slices.Delete(f.ids, i, i+1)
	f.rows = slices.Delete(f.rows, i*f.k, (i+1)*f.k)
	f.unheld = slices.Delete(f.unheld, i, i+1)
}

// residualCaps returns the capacities the inner scheduler partitions: caps
// minus the pinned processors.
func (f *floored) residualCaps(caps []int) []int {
	if f.nPinned == 0 {
		return caps
	}
	rc := append(f.capsBuf[:0], caps...)
	f.capsBuf = rc
	for a, p := range f.pinned[:len(rc)] {
		if rc[a] -= p; rc[a] < 0 {
			panic(fmt.Sprintf("sched: category %d floors exceed capacity %d — jobs hold more processors than exist", a+1, caps[a]))
		}
	}
	return rc
}

// AllotDelta implements DeltaAllotter: the inner scheduler partitions the
// residual capacity over the residual desires, and in every category with
// pinned processors the floors are added back — two ID-sorted sequences
// merged into one.
func (f *floored) AllotDelta(t int64, caps []int) ([][]CatGrant, error) {
	g, err := f.delta.AllotDelta(t, f.residualCaps(caps))
	if err != nil || f.nPinned == 0 {
		return g, err
	}
	k := len(caps)
	for len(f.out) < k {
		f.out, f.merged = append(f.out, nil), append(f.merged, nil)
	}
	for a, inner := range g {
		if f.pinned[a] == 0 {
			f.out[a] = inner
			continue
		}
		m, i := f.merged[a][:0], 0
		for j, id := range f.ids {
			fl := f.rows[j*k+a]
			if fl == 0 {
				continue
			}
			for ; i < len(inner) && inner[i].ID < id; i++ {
				m = append(m, inner[i])
			}
			if i < len(inner) && inner[i].ID == id {
				fl += inner[i].N
				i++
			}
			m = append(m, CatGrant{ID: id, N: fl})
		}
		m = append(m, inner[i:]...)
		f.out[a], f.merged[a] = m, m
	}
	return f.out[:k], nil
}

// StableHorizon implements Stable. The inner report forwards when the last
// round was floor-free (the wrapper was the identity) or held-only (the
// inner scheduler saw the held jobs with zero residual desire, so its
// analysis of the residual system is unaffected by them; the engine
// separately bounds the window by each held job's HoldFor). A round with
// an unheld floor reports 0.
func (f *floored) StableHorizon() int64 {
	if f.nPinned > 0 && f.nUnheld > 0 {
		return 0
	}
	if s, ok := f.inner.(Stable); ok {
		return s.StableHorizon()
	}
	return 0
}

// LeapTotals implements Stable. Only called after StableHorizon reported
// > 0, which implies the inner scheduler is Stable and the last round was
// floor-free or held-only. The inner scheduler fills the residual totals —
// a delta-driven one from its own state, a dense one from the residual views
// FromDense keeps — and every floored row gains n×floor, the per-step
// allotment a held job receives on each covered step.
func (f *floored) LeapTotals(t int64, jobs []JobView, caps []int, n int64, dst [][]int) {
	residual := jobs
	if di, ok := f.delta.(*fromDense); ok {
		residual = di.views
	}
	f.inner.(Stable).LeapTotals(t, residual, f.residualCaps(caps), n, dst)
	if f.nPinned == 0 {
		return
	}
	k := len(caps)
	i := 0
	for j, id := range f.ids {
		for jobs[i].ID != id {
			i++
		}
		for a, fl := range f.rows[j*k : (j+1)*k] {
			dst[i][a] += fl * int(n)
		}
	}
}

// JobsDone implements Completer for callers of the dense entry.
func (f *floored) JobsDone(ids []int) { f.dense.done(f, ids) }

// SnapshotState forwards to the inner scheduler: the wrapper itself holds
// no cross-step state (the floor list mirrors the active jobs' current rows
// and is empty whenever the engine is idle), so the encoding is
// byte-identical to the unwrapped scheduler's — checkpoints taken before a
// deployment wrapped its scheduler still restore.
func (f *floored) SnapshotState() ([]byte, error) {
	s, ok := f.inner.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sched: scheduler %q does not support state snapshots", f.inner.Name())
	}
	return s.SnapshotState()
}

// RestoreState mirrors SnapshotState.
func (f *floored) RestoreState(data []byte) error {
	s, ok := f.inner.(Snapshotter)
	if !ok {
		return fmt.Errorf("sched: scheduler %q does not support state snapshots", f.inner.Name())
	}
	return s.RestoreState(data)
}

var (
	_ Scheduler     = (*floored)(nil)
	_ IntoAllotter  = (*floored)(nil)
	_ DeltaAllotter = (*floored)(nil)
	_ Stable        = (*floored)(nil)
	_ Completer     = (*floored)(nil)
	_ Snapshotter   = (*floored)(nil)
)
