package sim_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
)

// runtimeState is everything the engine caches or decides from between two
// rounds of one job.
type runtimeState struct {
	Desire, Floor, Remaining []int
	Done                     bool
	HoldFor                  int64
}

func readState(rt sim.RuntimeJob, k int) runtimeState {
	st := runtimeState{Done: rt.Done(), Remaining: append([]int(nil), rt.RemainingWork()...)}
	fr, _ := rt.(sim.FloorRuntime)
	for c := dag.Category(1); int(c) <= k; c++ {
		st.Desire = append(st.Desire, rt.Desire(c))
		if fr != nil {
			st.Floor = append(st.Floor, fr.Floor(c))
		}
	}
	if hr, ok := rt.(sim.HoldRuntime); ok {
		st.HoldFor = hr.HoldFor()
	}
	return st
}

// TestRuntimeLawIdleStepChangesNothing pins the law the engine's sparse
// rounds rest on, for each of the four shipped runtimes (and a duration
// graph, which is a moldable job whose tasks take one processor): a step in
// which the job executes nothing — Advance with no Execute before it —
// leaves Desire, Floor, Done, RemainingWork and the hold window exactly as
// they were. The law is checked at every step boundary of a whole run
// driven with random allotments between floor and desire, so it covers
// fresh, mid-phase, in-flight and finished states.
func TestRuntimeLawIdleStepChangesNothing(t *testing.T) {
	const k = 2
	layered := func() *dag.Graph {
		g := dag.New(k)
		var prev []dag.TaskID
		for l := 0; l < 4; l++ {
			cur := g.AddTasks(dag.Category(1+l%k), 3+l)
			for i, u := range prev {
				g.MustEdge(u, cur[i%len(cur)])
			}
			prev = cur
		}
		return g
	}
	timed := layered()
	for v := 0; v < timed.NumTasks(); v += 2 {
		timed.SetDuration(dag.TaskID(v), 2+v%3)
	}
	timedJob, err := moldable.FromTimedGraph(timed)
	if err != nil {
		t.Fatal(err)
	}
	mold := moldable.Generate(moldable.GenOpts{
		K: k, Jobs: 1, MinTasks: 6, MaxTasks: 6, MaxWork: 40, MaxProcs: 4, Seed: 7,
	})[0].Source
	sources := []struct {
		name string
		src  sim.JobSource
	}{
		{"profile", profile.MustNew(k, "p", []profile.Phase{{Tasks: []int{9, 4}}, {Tasks: []int{0, 7}}, {Tasks: []int{5, 5}}})},
		{"rigid", profile.MustNewRigid(k, "r", 2, 3, 4)},
		{"dag.Instance", sim.GraphSource(layered())},
		{"duration graph", timedJob},
		{"moldable.Instance", mold},
	}
	for _, tc := range sources {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			rt := tc.src.NewRuntime(dag.PickFIFO, 1)
			fr, _ := rt.(sim.FloorRuntime)
			for step := 0; ; step++ {
				before := readState(rt, k)
				for idle := 0; idle < 2; idle++ {
					rt.Advance()
					if after := readState(rt, k); !reflect.DeepEqual(before, after) {
						t.Fatalf("step %d: idle Advance changed the runtime:\nbefore %+v\nafter  %+v", step, before, after)
					}
				}
				if before.Done {
					return
				}
				if step > 10_000 {
					t.Fatal("runtime never finished")
				}
				for c := dag.Category(1); c <= k; c++ {
					lo, hi := 0, rt.Desire(c)
					if fr != nil {
						lo = fr.Floor(c)
					}
					if n := lo + rng.Intn(hi-lo+1); n > 0 {
						rt.Execute(c, n)
					} else if step%3 == 0 && hi > 0 {
						rt.Execute(c, 1) // keep every category draining
					}
				}
				rt.Advance()
			}
		})
	}
}

// driftJob is a one-category job whose desire the test can change behind
// the engine's back — what a runtime that broke the idle-step law would do.
type driftJob struct{ desire, left int }

func (j *driftJob) Name() string      { return "drift" }
func (j *driftJob) K() int            { return 1 }
func (j *driftJob) WorkVector() []int { return []int{j.left} }
func (j *driftJob) Span() int         { return j.left }
func (j *driftJob) TotalTasks() int   { return j.left }

func (j *driftJob) NewRuntime(dag.PickPolicy, int64) sim.RuntimeJob { return j }

func (j *driftJob) Desire(dag.Category) int { return j.desire }
func (j *driftJob) Advance()                {}
func (j *driftJob) Done() bool              { return j.left == 0 }
func (j *driftJob) RemainingWork() []int    { return []int{j.left} }

func (j *driftJob) Execute(_ dag.Category, n int) int {
	if n > j.left {
		n = j.left
	}
	j.left -= n
	return n
}

// TestCheckSlotsCatchesLawBreaker shows the slot oracle is not vacuous: a
// job that changes its desire in a step it sat out is reported on the next
// round, by job and category.
func TestCheckSlotsCatchesLawBreaker(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{K: 1, Caps: []int{1}, Scheduler: core.NewKRAD(1), ValidateAllotments: true})
	if err != nil {
		t.Fatal(err)
	}
	var reports []error
	eng.CheckSlots(func(err error) { reports = append(reports, err) })
	jobs := []*driftJob{{1, 10}, {1, 10}, {1, 10}}
	for _, j := range jobs {
		if _, err := eng.Admit(sim.JobSpec{Source: j}); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		t.Helper()
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step() // one processor, three jobs: round-robin serves job 0 only
	step()
	if len(reports) != 0 {
		t.Fatalf("law-abiding rounds reported: %v", reports)
	}
	jobs[2].desire = 2 // job 2 has executed nothing yet
	step()
	if len(reports) != 1 || !strings.Contains(reports[0].Error(), "job 2 category 1 cached desire 1, runtime reports 2") {
		t.Fatalf("oracle reports %v, want job 2's drifted desire", reports)
	}
}
