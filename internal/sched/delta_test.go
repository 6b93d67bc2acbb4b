package sched_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"krad/internal/core"
	"krad/internal/sched"
)

// literalFloors is the floor layer as it was before it became delta-driven —
// scan every view for a floor, rebuild the residual system, add the floors
// back — kept as the oracle beside sched.WithFloors.
type literalFloors struct {
	inner        *sched.PerCategory
	any, allHeld bool
}

func (f *literalFloors) residual(jobs []sched.JobView, caps []int) ([]sched.JobView, []int) {
	rcaps := slices.Clone(caps)
	res := make([]sched.JobView, len(jobs))
	for i, j := range jobs {
		d := slices.Clone(j.Desire)
		for a, fl := range j.Floor {
			d[a] = max(d[a]-fl, 0)
			rcaps[a] -= fl
		}
		res[i] = sched.JobView{ID: j.ID, Desire: d}
	}
	return res, rcaps
}

func (f *literalFloors) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	f.any, f.allHeld = false, true
	for _, j := range jobs {
		for a, v := range j.Floor {
			f.any = f.any || v > 0
			f.allHeld = f.allHeld && j.Desire[a] <= v
		}
	}
	if !f.any {
		return f.inner.Allot(t, jobs, caps)
	}
	res, rcaps := f.residual(jobs, caps)
	out := f.inner.Allot(t, res, rcaps)
	for i, j := range jobs {
		for a, fl := range j.Floor {
			out[i][a] += fl
		}
	}
	return out
}

func (f *literalFloors) StableHorizon() int64 {
	if f.any && !f.allHeld {
		return 0
	}
	return f.inner.StableHorizon()
}

func (f *literalFloors) LeapTotals(t int64, jobs []sched.JobView, caps []int, n int64, dst [][]int) {
	if !f.any {
		f.inner.LeapTotals(t, jobs, caps, n, dst)
		return
	}
	res, rcaps := f.residual(jobs, caps)
	f.inner.LeapTotals(t, res, rcaps, n, dst)
	for i, j := range jobs {
		for a, fl := range j.Floor {
			dst[i][a] += fl * int(n)
		}
	}
}

// denseOnly hides a scheduler's delta form, as a caller-written decorator
// does: what is left is the dense contract and the optional capabilities.
type denseOnly struct{ s *sched.PerCategory }

func (d denseOnly) Name() string { return d.s.Name() }
func (d denseOnly) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	return d.s.Allot(t, jobs, caps)
}
func (d denseOnly) StableHorizon() int64 { return d.s.StableHorizon() }
func (d denseOnly) LeapTotals(t int64, jobs []sched.JobView, caps []int, n int64, dst [][]int) {
	d.s.LeapTotals(t, jobs, caps, n, dst)
}
func (d denseOnly) JobsDone(ids []int)             { d.s.JobsDone(ids) }
func (d denseOnly) SnapshotState() ([]byte, error) { return d.s.SnapshotState() }
func (d denseOnly) RestoreState(b []byte) error    { return d.s.RestoreState(b) }

// denseOnlyInto is denseOnly with the allocation-free dense entry as well.
type denseOnlyInto struct{ denseOnly }

func (d denseOnlyInto) AllotInto(t int64, jobs []sched.JobView, caps []int, dst [][]int) {
	d.s.AllotInto(t, jobs, caps, dst)
}

// deltaDriver drives a DeltaAllotter from successive view lists the way the
// engine's slot table does: it reports only what changed.
type deltaDriver struct {
	d    sched.DeltaAllotter
	rng  *rand.Rand
	prev map[int]sched.JobView
}

func (dd *deltaDriver) sync(jobs []sched.JobView, k int) {
	seen := map[int]bool{}
	for _, j := range jobs {
		seen[j.ID] = true
		old, was := dd.prev[j.ID]
		mask := make([]bool, k)
		changed := !was || (old.Floor == nil) != (j.Floor == nil)
		for a := 0; a < k; a++ {
			od, of, nf := 0, 0, 0
			if was {
				od = old.Desire[a]
				if old.Floor != nil {
					of = old.Floor[a]
				}
			}
			if j.Floor != nil {
				nf = j.Floor[a]
			}
			if od != j.Desire[a] || of != nf {
				mask[a], changed = true, true
			}
		}
		if !changed {
			continue
		}
		if dd.rng.Intn(2) == 0 {
			mask = nil // no vouching: every category is looked up
		}
		dd.d.JobChanged(j.ID, j.Desire, j.Floor, mask)
		dd.prev[j.ID] = sched.JobView{ID: j.ID, Desire: slices.Clone(j.Desire), Floor: slices.Clone(j.Floor)}
	}
	for id := range dd.prev {
		if !seen[id] {
			dd.d.JobChanged(id, nil, nil, nil)
			delete(dd.prev, id)
		}
	}
}

func (dd *deltaDriver) allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	dd.sync(jobs, len(caps))
	var m sched.Matrix
	out := m.Shape(len(jobs), len(caps))
	all, err := dd.d.AllotDelta(t, caps)
	if err != nil {
		panic(err)
	}
	for a, grants := range all {
		i, last := 0, -1
		for _, g := range grants {
			if g.ID <= last || g.N == 0 {
				panic("grants not ascending by ID, or a zero grant")
			}
			last = g.ID
			for jobs[i].ID != g.ID {
				i++
			}
			out[i][a] = g.N
		}
	}
	return out
}

func (dd *deltaDriver) done(ids []int) {
	for _, id := range ids {
		var hint []int
		if v, ok := dd.prev[id]; ok && dd.rng.Intn(2) == 0 {
			hint = v.Desire
		}
		dd.d.JobGone(id, hint)
		delete(dd.prev, id)
	}
}

// TestQuickFloorsMatchLiteral runs one random history of views — floors that
// appear, tighten into held phases and vanish, jobs that leave the views and
// come back, completions — through the literal floor layer and through
// sched.WithFloors four ways: its dense entry, its delta form over a
// delta-driven inner scheduler, and its delta form over inner schedulers
// that know only the dense contract (Allot alone, and AllotInto too). Allotments, horizons, leap totals and
// snapshot bytes must agree after every step.
func TestQuickFloorsMatchLiteral(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		caps := make([]int, k)
		for a := range caps {
			caps[a] = 2 + rng.Intn(7)
		}
		ref := &literalFloors{inner: core.NewKRAD(k)}
		dense := sched.WithFloors(core.NewKRAD(k))
		delta := &deltaDriver{d: sched.WithFloors(core.NewKRAD(k)).(sched.DeltaAllotter), rng: rng, prev: map[int]sched.JobView{}}
		overDense := &deltaDriver{d: sched.WithFloors(denseOnly{core.NewKRAD(k)}).(sched.DeltaAllotter), rng: rng, prev: map[int]sched.JobView{}}
		overInto := &deltaDriver{d: sched.WithFloors(denseOnlyInto{denseOnly{core.NewKRAD(k)}}).(sched.DeltaAllotter), rng: rng, prev: map[int]sched.JobView{}}

		const universe = 24
		views := make([]*sched.JobView, universe)
		hidden := make([]bool, universe)
		next := 0
		for step := int64(1); step <= 60; step++ {
			for n := rng.Intn(3); n > 0 && next < universe; n-- {
				views[next] = &sched.JobView{ID: next, Desire: make([]int, k)}
				next++
			}
			pinned := make([]int, k)
			var done []int
			var jobs []sched.JobView
			for id := 0; id < next; id++ {
				v := views[id]
				if v == nil {
					continue
				}
				if rng.Intn(30) == 0 {
					done = append(done, id)
				}
				if rng.Intn(12) == 0 {
					hidden[id] = !hidden[id]
				}
				if hidden[id] {
					continue
				}
				if rng.Intn(3) == 0 || step == 1 {
					for a := range v.Desire {
						v.Desire[a] = rng.Intn(7) * rng.Intn(2)
					}
					v.Floor = nil
					if rng.Intn(3) == 0 {
						v.Floor = make([]int, k) // all zeros is a floor-bearing view too
						for a := range v.Floor {
							if room := min(v.Desire[a], caps[a]-pinned[a]); room > 0 && rng.Intn(2) == 0 {
								v.Floor[a] = 1 + rng.Intn(room)
								if rng.Intn(2) == 0 {
									v.Desire[a] = v.Floor[a] // held in this category
								}
							}
						}
					}
				}
				for a, fl := range v.Floor {
					if pinned[a]+fl > caps[a] {
						fl = caps[a] - pinned[a]
						v.Floor[a] = fl
					}
					pinned[a] += fl
				}
				jobs = append(jobs, sched.JobView{ID: id, Desire: slices.Clone(v.Desire), Floor: slices.Clone(v.Floor)})
			}

			want := ref.Allot(step, jobs, caps)
			if err := sched.ValidateAllotments(jobs, caps, want); err != nil {
				t.Logf("seed %d step %d: oracle: %v", seed, step, err)
				return false
			}
			got := [][][]int{dense.Allot(step, jobs, caps), delta.allot(step, jobs, caps), overDense.allot(step, jobs, caps), overInto.allot(step, jobs, caps)}
			stacks := []sched.Scheduler{dense, delta.d.(sched.Scheduler), overDense.d.(sched.Scheduler), overInto.d.(sched.Scheduler)}
			wantSnap, _ := ref.inner.SnapshotState()
			for x, s := range stacks {
				if !reflect.DeepEqual(want, got[x]) {
					t.Logf("seed %d step %d stack %d: jobs %v caps %v\n literal %v\n got     %v", seed, step, x, jobs, caps, want, got[x])
					return false
				}
				h := s.(sched.Stable).StableHorizon()
				if h != ref.StableHorizon() {
					t.Logf("seed %d step %d stack %d: horizon %d, literal %d", seed, step, x, h, ref.StableHorizon())
					return false
				}
				if h > 0 {
					n := 1 + min(h, 5)
					var a, b sched.Matrix
					wt, gt := a.Shape(len(jobs), k), b.Shape(len(jobs), k)
					ref.LeapTotals(step, jobs, caps, n, wt)
					s.(sched.Stable).LeapTotals(step, jobs, caps, n, gt)
					if !reflect.DeepEqual(wt, gt) {
						t.Logf("seed %d step %d stack %d: leap totals over %d steps %v, literal %v", seed, step, x, n, gt, wt)
						return false
					}
				}
				if snap, err := s.(sched.Snapshotter).SnapshotState(); err != nil || !bytes.Equal(snap, wantSnap) {
					t.Logf("seed %d step %d stack %d: snapshot %s (%v), literal %s", seed, step, x, snap, err, wantSnap)
					return false
				}
			}

			ref.inner.JobsDone(done)
			dense.(sched.Completer).JobsDone(done)
			delta.done(done)
			overDense.done(done)
			overInto.done(done)
			for _, id := range done {
				if rng.Intn(4) > 0 {
					views[id] = nil
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestValidateAllotmentsAllocsZero: the engine validates every round, so the
// validator's column sums must not cost an allocation for ordinary K.
func TestValidateAllotmentsAllocsZero(t *testing.T) {
	jobs := []sched.JobView{{ID: 0, Desire: []int{2, 1, 0}}, {ID: 1, Desire: []int{1, 4, 2}}}
	caps, allot := []int{3, 4, 2}, [][]int{{2, 1, 0}, {1, 3, 2}}
	if avg := testing.AllocsPerRun(100, func() {
		if err := sched.ValidateAllotments(jobs, caps, allot); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ValidateAllotments allocates %.1f per call; want 0", avg)
	}
	wide := make([]int, 40) // beyond the stack buffer: still checked, on the heap
	for a := range wide {
		wide[a] = 1
	}
	if err := sched.ValidateAllotments([]sched.JobView{{ID: 0, Desire: wide}}, wide, [][]int{wide}); err != nil {
		t.Fatal(err)
	}
	over := slices.Clone(wide)
	over[39] = 2
	if err := sched.ValidateAllotments([]sched.JobView{{ID: 0, Desire: over}}, wide, [][]int{over}); err == nil {
		t.Fatal("category 40 over capacity accepted")
	}
}
