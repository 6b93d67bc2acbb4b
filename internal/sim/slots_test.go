package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
)

// badGrants is K-RAD with its category-1 grants rewritten by edit at step at.
type badGrants struct {
	*sched.PerCategory
	at   int64
	edit func([]sched.CatGrant) []sched.CatGrant
}

func (b *badGrants) Name() string { return "bad-grants" }

func (b *badGrants) AllotDelta(t int64, caps []int) ([][]sched.CatGrant, error) {
	g, err := b.PerCategory.AllotDelta(t, caps)
	if err != nil || t != b.at {
		return g, err
	}
	return [][]sched.CatGrant{b.edit(append([]sched.CatGrant(nil), g[0]...))}, nil
}

// TestEngineRefusesBadGrants: a grant the engine cannot apply — to a job
// that is pending, finished or unknown, or out of ascending ID order within
// a category — fails the step, naming the scheduler and the job.
func TestEngineRefusesBadGrants(t *testing.T) {
	// Job 0 finishes at step 1; jobs 1 and 2 run on; job 3 releases at 100.
	specs := []sim.JobSpec{
		{Source: profile.MustNewRigid(1, "short", 1, 1, 1)},
		{Source: profile.MustNewRigid(1, "long", 1, 1, 50)},
		{Source: profile.MustNewRigid(1, "long", 1, 1, 50)},
		{Source: profile.MustNewRigid(1, "late", 1, 1, 5), Release: 100},
	}
	cases := []struct {
		name string
		id   int // the job the error must name
		edit func([]sched.CatGrant) []sched.CatGrant
	}{
		{"pending", 3, func(g []sched.CatGrant) []sched.CatGrant { return append(g, sched.CatGrant{ID: 3, N: 1}) }},
		{"finished", 0, func(g []sched.CatGrant) []sched.CatGrant { return append([]sched.CatGrant{{ID: 0, N: 1}}, g...) }},
		{"unknown", 99, func(g []sched.CatGrant) []sched.CatGrant { return append(g, sched.CatGrant{ID: 99, N: 1}) }},
		{"out of order", 1, func([]sched.CatGrant) []sched.CatGrant { return []sched.CatGrant{{ID: 2, N: 1}, {ID: 1, N: 1}} }},
		{"twice", 1, func([]sched.CatGrant) []sched.CatGrant { return []sched.CatGrant{{ID: 1, N: 1}, {ID: 1, N: 1}} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &badGrants{PerCategory: core.NewKRAD(1), at: 2, edit: c.edit}
			eng := admitInOrder(t, sim.Config{K: 1, Caps: []int{4}, Scheduler: s, ValidateAllotments: true}, specs)
			if _, err := eng.Step(); err != nil {
				t.Fatalf("step 1: %v", err)
			}
			_, err := eng.Step()
			if err == nil {
				t.Fatal("step 2 applied the bad grants")
			}
			for _, want := range []string{`"bad-grants"`, fmt.Sprintf("job %d,", c.id)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("step 2 error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestSlotHolesChurn drives the slot table through every path that meets a
// hole — a backlog whose completions pass the compaction threshold, a cancel
// beside a hole, a job admitted earlier than one already active but released
// after it while holes exist (an insert below the highest ID), and
// event-leaps over a table with holes — with the slot oracle on, and
// requires the same StepInfo stream from the shipped stack, the same with
// recycling off, and the stack behind its dense contract (sched.FromDense).
func TestSlotHolesChurn(t *testing.T) {
	const k = 2
	specs := make([]sim.JobSpec, 0, 160)
	for j := 0; j < 150; j++ {
		specs = append(specs, sim.JobSpec{Source: profile.MustNewRigid(k, "r", dag.Category(1+j%k), 1+j%2, 1+j%4)})
	}
	// Two long jobs outlast the backlog and then leap.
	for j := 0; j < 2; j++ {
		specs = append(specs, sim.JobSpec{Source: profile.MustNew(k, "tail", []profile.Phase{{Tasks: []int{900, 700}}})})
	}
	const lateRelease = 40
	late := len(specs) // admitted before the job below, released after it
	specs = append(specs, sim.JobSpec{Source: profile.MustNewRigid(k, "late", 1, 1, 5), Release: lateRelease})

	type variant struct {
		name  string
		eng   *sim.Engine
		stack shipped
	}
	build := func(name string, dense, noRecycle bool) variant {
		stack := core.NewKRAD(k)
		var s sched.Scheduler = stack
		if dense {
			s = &denseStack{s: stack, t: t}
		}
		eng, err := sim.NewEngine(sim.Config{K: k, Caps: []int{3, 2}, Scheduler: s, ValidateAllotments: true})
		if err != nil {
			t.Fatal(err)
		}
		eng.CheckSlots(func(err error) { t.Errorf("%s: %v", name, err) })
		if noRecycle {
			eng.DisableRecycling()
		}
		if _, err := eng.AdmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		return variant{name, eng, stack}
	}
	vs := []variant{build("delta", false, false), build("no-recycling", false, true), build("dense", true, false)}
	ref := vs[0].eng

	holes := func() (h int, beside int) {
		ids := ref.SlotIDs()
		beside = -1
		for i, id := range ids {
			if id < 0 {
				h++
			} else if beside < 0 && (i > 0 && ids[i-1] < 0 || i+1 < len(ids) && ids[i+1] < 0) {
				beside = id
			}
		}
		return h, beside
	}
	// step runs every variant for budget steps and returns what they agree on.
	step := func(budget int64) sim.StepInfo {
		t.Helper()
		var first sim.StepInfo
		for i, v := range vs {
			info, err := v.eng.StepN(budget)
			if err != nil {
				t.Fatalf("%s: step %d: %v", v.name, v.eng.Now(), err)
			}
			if i == 0 {
				first = info
			} else if !reflect.DeepEqual(info, first) {
				t.Fatalf("%s at step %d reports %+v, delta %+v", v.name, v.eng.Now(), info, first)
			}
		}
		a, errA := vs[0].stack.SnapshotState()
		b, errB := vs[2].stack.SnapshotState()
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("at step %d scheduler snapshots differ: %s (%v) vs %s (%v)", ref.Now(), a, errA, b, errB)
		}
		return first
	}
	var (
		compacted, cancelled, earlyAdmitted bool
		holesAboveLate, holesBeforeLeap     int
	)
	rng := rand.New(rand.NewSource(3))
	for ref.Remaining() > 0 {
		h, beside := holes()
		size := len(ref.SlotIDs())
		budget := int64(1)
		switch now := ref.Now(); {
		case now == lateRelease:
			// Job late's slot is below the early jobs', and holes the short
			// ones left: the insert must close them first.
			ids := ref.SlotIDs()
			for i := len(ids) - 1; i >= 0 && (ids[i] < 0 || ids[i] > late); i-- {
				if ids[i] < 0 {
					holesAboveLate++
				}
			}
		case now == 10 && !earlyAdmitted:
			// Released now, they take the top slots before job late releases.
			for _, length := range []int{60, 1, 1, 1} {
				early := sim.JobSpec{Source: profile.MustNewRigid(k, "early", dag.Category(1+length%k), 1, length), Release: now}
				for _, v := range vs {
					if _, err := v.eng.Admit(early); err != nil {
						t.Fatal(err)
					}
				}
			}
			earlyAdmitted = true
		case now > 20 && !cancelled && beside >= 0:
			for _, v := range vs {
				if err := v.eng.Cancel(beside); err != nil {
					t.Fatalf("%s: cancel %d: %v", v.name, beside, err)
				}
			}
			cancelled = true
		case now > lateRelease:
			budget = 1 + rng.Int63n(16)
		}
		info := step(budget)
		if ref.Now() <= lateRelease && len(ref.SlotIDs()) < size {
			compacted = true // the threshold: nothing else shrinks the table before the late release
		}
		if info.LeapSteps > 0 && holesBeforeLeap == 0 {
			holesBeforeLeap = h
		}
	}
	t.Logf("holes above job late at its release %d, before the first leap %d", holesAboveLate, holesBeforeLeap)
	if !compacted || !cancelled || holesAboveLate == 0 || holesBeforeLeap == 0 {
		t.Fatalf("the run is not the one intended: compacted %v, cancelled beside a hole %v, holes above job late at its release %d, before the first leap %d",
			compacted, cancelled, holesAboveLate, holesBeforeLeap)
	}
	if st, _ := ref.Job(late); st.Phase != sim.JobDone {
		t.Fatalf("job %d is %s", late, st.Phase)
	}
	for _, v := range vs[1:] {
		ra, rb := ref.Result(), v.eng.Result()
		ra.Scheduler, rb.Scheduler = "", ""
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: results differ", v.name)
		}
		if !reflect.DeepEqual(ref.Snapshot(), v.eng.Snapshot()) {
			t.Fatalf("%s: engine snapshots differ: %+v vs %+v", v.name, ref.Snapshot(), v.eng.Snapshot())
		}
	}
}
