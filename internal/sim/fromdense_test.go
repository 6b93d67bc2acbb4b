package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
)

// spySource keeps the runtime the engine minted for its job, so a test can
// read the job's desires and floors behind the engine's back.
type spySource struct {
	sim.JobSource
	rt sim.RuntimeJob
}

func (s *spySource) NewRuntime(pick dag.PickPolicy, seed int64) sim.RuntimeJob {
	s.rt = s.JobSource.NewRuntime(pick, seed)
	return s.rt
}

// viewRecorder is a scheduler that knows only the dense contract. Every
// round it holds the views it was handed against fresh reads of the active
// jobs' runtimes, then lets the shipped stack's dense entry answer.
type viewRecorder struct {
	sched.Scheduler
	eng    *sim.Engine
	spies  []*spySource // by job ID
	k      int
	rounds int
	done   []int
	errs   []error
}

func (r *viewRecorder) check(t int64, jobs []sched.JobView) {
	r.rounds++
	var want []sched.JobView
	for id, spy := range r.spies {
		if st, ok := r.eng.Job(id); !ok || st.Phase != sim.JobActive {
			continue
		}
		v := sched.JobView{ID: id, Desire: make([]int, r.k)}
		for a := range v.Desire {
			v.Desire[a] = spy.rt.Desire(dag.Category(a + 1))
			if fr, ok := spy.rt.(sim.FloorRuntime); ok {
				v.Desire[a] = max(v.Desire[a]-fr.Floor(dag.Category(a+1)), 0)
			}
		}
		want = append(want, v)
	}
	same := slices.EqualFunc(jobs, want, func(a, b sched.JobView) bool {
		return a.ID == b.ID && slices.Equal(a.Desire, b.Desire) && a.Floor == nil
	})
	if !same {
		r.errs = append(r.errs, fmt.Errorf("step %d: handed %v, the runtimes read %v", t, jobs, want))
	}
}

func (r *viewRecorder) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	r.check(t, jobs)
	return r.Scheduler.Allot(t, jobs, caps)
}

func (r *viewRecorder) JobsDone(ids []int) {
	r.done = append(r.done, ids...)
	r.Scheduler.(sched.Completer).JobsDone(ids)
}

// viewRecorderInto is viewRecorder with the allocation-free dense entry too.
type viewRecorderInto struct{ *viewRecorder }

func (r viewRecorderInto) AllotInto(t int64, jobs []sched.JobView, caps []int, dst [][]int) {
	r.check(t, jobs)
	r.Scheduler.(sched.IntoAllotter).AllotInto(t, jobs, caps, dst)
}

// TestFromDenseSeesSlotTableViews: a dense scheduler under sim.NewEngine is
// handed, every round, exactly what a fresh read of the active runtimes gives
// — ascending ID, zero-desire rows included, each desire less the job's
// floor and no Floor, since the engine grants floors itself — across
// releases below the highest active ID, cancels of active and pending jobs,
// completions, and moldable jobs whose floor comes and goes; and it hears
// JobsDone once for every job that left the active set.
func TestFromDenseSeesSlotTableViews(t *testing.T) {
	const k = 2
	timed := dag.UniformChain(k, 3, 1)
	timed.SetDuration(1, 4) // the middle task pins a processor for four steps
	pinned, err := moldable.FromTimedGraph(timed)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		src     sim.JobSource
		release int64
	}{
		{profile.MustNewRigid(k, "late", 1, 2, 6), 9}, // admitted first, released last
		{sim.GraphSource(dag.RoundRobinChain(k, 8)), 0},
		{pinned, 2},
		{profile.MustNewRigid(k, "wide", 2, 3, 5), 0},
		{sim.GraphSource(denseLayeredGraph(k, 4, 3, 0)), 4},
		{pinned, 5},
		{profile.MustNewRigid(k, "cancelled-active", 1, 1, 30), 1},
		{profile.MustNewRigid(k, "cancelled-pending", 1, 1, 3), 50},
		{profile.MustNewRigid(k, "tail", 2, 1, 12), 3},
	}
	for _, into := range []bool{false, true} {
		rec := &viewRecorder{Scheduler: core.NewKRAD(k), k: k}
		var s sched.Scheduler = rec
		if into {
			s = viewRecorderInto{rec}
		}
		specs := make([]sim.JobSpec, len(sources))
		for i, src := range sources {
			spy := &spySource{JobSource: src.src}
			rec.spies = append(rec.spies, spy)
			specs[i] = sim.JobSpec{Source: spy, Release: src.release}
		}
		eng := admitInOrder(t, sim.Config{K: k, Caps: []int{2, 1}, Scheduler: s, ValidateAllotments: true}, specs)
		rec.eng = eng

		var left []int // jobs that left the active set: completed, or cancelled while active
		sawFloor, sawFloorGo := false, false
		for eng.Remaining() > 0 {
			info, err := eng.Step()
			if err != nil {
				t.Fatal(err)
			}
			left = append(left, info.Completed...)
			if eng.Now() == 6 {
				for _, id := range []int{6, 7} {
					if err := eng.Cancel(id); err != nil {
						t.Fatal(err)
					}
				}
				left = append(left, 6)
			}
			if fr := rec.spies[2].rt.(sim.FloorRuntime); fr.Floor(1)+fr.Floor(2) > 0 {
				sawFloor = true
			} else if sawFloor {
				sawFloorGo = true
			}
		}
		for _, err := range rec.errs {
			t.Errorf("into=%v: %v", into, err)
		}
		if rec.rounds == 0 || !sawFloor || !sawFloorGo {
			t.Fatalf("into=%v: the run is not the one intended: %d rounds, floor seen %v, floor gone %v", into, rec.rounds, sawFloor, sawFloorGo)
		}
		slices.Sort(left)
		slices.Sort(rec.done)
		if !slices.Equal(rec.done, left) {
			t.Errorf("into=%v: JobsDone heard %v, jobs that left the active set %v", into, rec.done, left)
		}
	}
}
