package sched

import "fmt"

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
// — usually few, never more than there are processors pinned — in an IDList
// with their floor rows, and the pinned-processor sums and the unheld count
// as aggregates over it, so a round never scans the views. The inner
// scheduler is driven through its own delta form with the residual desires;
// one that has none enters through FromDense. The dense entry is denseEntry.
type floored struct {
	inner Scheduler
	delta DeltaAllotter // inner's delta form: inner itself, or FromDense(inner)

	// The floor-bearing jobs (Floor != nil), with their floor rows, flagged
	// where some desire exceeds its floor (not held).
	floors IDList
	// Aggregates over them: processors pinned per category and in all, jobs
	// not held.
	pinned    []int
	pinnedAll int
	nUnheld   int

	// Scratch reused across calls, so the engine's allocation-free hot
	// path stays allocation-free through the wrapper.
	residual []int
	capsBuf  []int
	out      [][]CatGrant
	merged   [][]CatGrant
	denseEntry
}

// WithFloors wraps inner; see the type comment.
func WithFloors(inner Scheduler) Scheduler {
	f := &floored{inner: inner}
	f.denseEntry.d = f
	if f.delta, _ = inner.(DeltaAllotter); f.delta == nil {
		f.delta = FromDense(inner)
	}
	return f
}

// Name implements Scheduler.
func (f *floored) Name() string { return f.inner.Name() + "+floors" }

// JobChanged implements DeltaAllotter: a floor-bearing job's row and
// contributions are replaced, and the inner scheduler sees the residual
// desire — desire minus floor, clamped at zero, so a held job vanishes from
// every category.
func (f *floored) JobChanged(id int, desire, floor []int, changed []bool) {
	if desire == nil {
		floor = nil // out of the active set: nothing pinned either
	}
	i, in := f.withdraw(id)
	if floor == nil {
		if in {
			f.floors.Delete(id)
		}
		f.delta.JobChanged(id, desire, nil, changed)
		return
	}
	k := len(floor)
	for len(f.pinned) < k {
		f.pinned = append(f.pinned, 0)
		f.residual = append(f.residual, 0)
	}
	if f.floors.w = k; !in {
		i, _ = f.floors.Insert(id)
	}
	unheld := false
	row, residual := f.floors.Row(i), f.residual[:k]
	for a, fl := range floor {
		row[a] = fl
		f.pinned[a] += fl
		f.pinnedAll += fl
		unheld = unheld || desire[a] > fl
		residual[a] = max(desire[a]-fl, 0)
	}
	if unheld {
		f.nUnheld++
	}
	f.floors.SetFlag(i, unheld)
	f.delta.JobChanged(id, residual, nil, changed)
}

// JobGone implements DeltaAllotter. A residual desire is positive only where
// the desire is, so the hint passes through as it is.
func (f *floored) JobGone(id int, desire []int) {
	if _, in := f.withdraw(id); in {
		f.floors.Delete(id)
	}
	f.delta.JobGone(id, desire)
}

// withdraw takes floor-bearing job id's contributions, if it is one, out of
// the aggregates, and returns its position in the list.
func (f *floored) withdraw(id int) (i int, in bool) {
	if f.floors.live == 0 { // most rounds: no job pins anything
		return 0, false
	}
	if i, in = f.floors.Find(id); in {
		for a, fl := range f.floors.Row(i) {
			f.pinned[a] -= fl
			f.pinnedAll -= fl
		}
		if f.floors.Flagged(i) {
			f.nUnheld--
		}
	}
	return i, in
}

// residualCaps returns the capacities the inner scheduler partitions: caps
// minus the pinned processors.
func (f *floored) residualCaps(caps []int) []int {
	if f.pinnedAll == 0 {
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
	if err != nil || f.pinnedAll == 0 {
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
		for j, e := range f.floors.Jobs() {
			fl, id := f.floors.Row(j)[a], e.ID
			if fl == 0 {
				continue // holes included
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
	if f.pinnedAll > 0 && f.nUnheld > 0 {
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
	if f.pinnedAll == 0 {
		return
	}
	i := 0
	for j, e := range f.floors.Jobs() {
		if !f.floors.In(j) {
			continue
		}
		for jobs[i].ID != e.ID {
			i++
		}
		for a, fl := range f.floors.Row(j) {
			dst[i][a] += fl * int(n)
		}
	}
}

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
	_ IntoAllotter  = (*floored)(nil)
	_ DeltaAllotter = (*floored)(nil)
	_ Stable        = (*floored)(nil)
	_ Completer     = (*floored)(nil)
	_ Snapshotter   = (*floored)(nil)
)
