package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"krad/internal/baselines"
	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
)

// releaseConfig is the machine the release tests run on: K=2 under K-RAD;
// the script admits moldable jobs, whose floors the engine grants.
func releaseConfig(pick dag.PickPolicy) sim.Config {
	return sim.Config{
		K: 2, Caps: []int{6, 4}, Scheduler: core.NewKRAD(2),
		Pick: pick, Seed: 5, ValidateAllotments: true,
	}
}

// mixedSpec returns the i-th job of the release scripts, cycling through
// rigid, general profile, DAG (three shapes of varying size, so a recycled
// instance is reset onto bigger and smaller graphs) and moldable jobs.
func mixedSpec(i int, molds []sim.JobSpec) sim.JobSpec {
	switch i % 6 {
	case 0:
		return sim.JobSpec{Source: profile.MustNewRigid(2, "r", dag.Category(1+i%2), 1+i%3, 2+i%5)}
	case 1:
		return sim.JobSpec{Source: profile.MustNew(2, "p", []profile.Phase{
			{Tasks: []int{1 + i%4, i % 3}}, {Tasks: []int{2, 1 + i%2}},
		})}
	case 2:
		return sim.JobSpec{Graph: dag.RoundRobinChain(2, 3+i%7)}
	case 3:
		return sim.JobSpec{Graph: dag.ForkJoin(2, 2+i%9, 1, 2, 1)}
	case 4:
		return sim.JobSpec{Graph: dag.BinaryReduction(2, 2+i%6, 2, 1)}
	default:
		return molds[(i/6)%len(molds)]
	}
}

// moldSpec returns the i-th job of the moldable-only release script.
func moldSpec(i int, molds []sim.JobSpec) sim.JobSpec { return molds[i%len(molds)] }

// maxBatch is the largest admission runReleaseScript makes.
const maxBatch = 3

// runReleaseScript drives eng through a fixed mix of admissions (the jobs
// specAt returns), steps, cancels (pending and active) and withdrawals,
// then drains it. check runs after every operation; the returned StepInfo
// stream is deep-copied.
func runReleaseScript(t *testing.T, eng *sim.Engine, specAt func(int, []sim.JobSpec) sim.JobSpec, check func(op string)) []sim.StepInfo {
	t.Helper()
	molds := moldable.Generate(moldable.GenOpts{K: 2, Jobs: 8, MinTasks: 3, MaxTasks: 8, MaxWork: 4, MaxProcs: 3, Seed: 3})
	rng := rand.New(rand.NewSource(42))
	var infos []sim.StepInfo
	step := func(n int64) {
		info, err := eng.StepN(n)
		if err != nil {
			t.Fatal(err)
		}
		info.Executed = append([]int(nil), info.Executed...)
		info.Released = append([]int(nil), info.Released...)
		info.Completed = append([]int(nil), info.Completed...)
		infos = append(infos, info)
		check("step")
	}
	live := func(phase sim.JobPhase) []int {
		var ids []int
		for id := 0; id < eng.NextID(); id++ {
			if st, ok := eng.JobRef(id); ok && st.Phase == phase {
				ids = append(ids, id)
			}
		}
		return ids
	}
	next := 0
	for round := 0; round < 80; round++ {
		specs := make([]sim.JobSpec, 1+rng.Intn(maxBatch))
		for i := range specs {
			specs[i] = specAt(next, molds)
			specs[i].Release = eng.Now() + int64(rng.Intn(4))
			next++
		}
		if round%5 == 0 {
			if _, err := eng.AdmitBatch(specs); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, s := range specs {
				if _, err := eng.Admit(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("admit")
		if round%7 == 3 {
			if ids := live(sim.JobActive); len(ids) > 0 {
				if err := eng.Cancel(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
				check("cancel active")
			}
		}
		if round%9 == 4 {
			if ids := live(sim.JobPending); len(ids) > 0 {
				if err := eng.Cancel(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
				check("cancel pending")
			}
		}
		if round%11 == 5 {
			if ids := live(sim.JobPending); len(ids) > 0 {
				if _, err := eng.Withdraw(ids[len(ids)-1]); err != nil {
					t.Fatal(err)
				}
				check("withdraw")
			}
		}
		if round%13 == 6 {
			// A refused batch: its valid first member's runtime is released.
			bad := []sim.JobSpec{specAt(next, molds), {Graph: dag.RoundRobinChain(2, 2), Release: -1}}
			bad[0].Release = eng.Now()
			if _, err := eng.AdmitBatch(bad); err == nil {
				t.Fatal("batch with a negative release admitted")
			}
			check("refused batch")
		}
		step(1 + int64(rng.Intn(3)))
	}
	for !eng.Idle() {
		step(1 << 20)
	}
	// Then bursts of wide unit-task jobs alone, each drained in one call:
	// every job is deprived of its DEQ share, so the engine leaps and the
	// recycled DAG instances answer StableFor too.
	// Every other burst cancels a DAG mid-body, so an instance with tasks
	// still blocked is parked and reset.
	for round := 0; round < 12; round++ {
		first := eng.NextID()
		for _, spec := range []sim.JobSpec{
			{Graph: dag.ForkJoin(2, 14+round%9, 1, 2, 1)},
			{Graph: dag.ForkJoin(2, 20+round%5, 1, 2, 1)},
			{Source: profile.MustNewRigid(2, "wide", 1, 20, 2+round%3)},
		} {
			spec.Release = eng.Now()
			if _, err := eng.Admit(spec); err != nil {
				t.Fatal(err)
			}
		}
		check("admit")
		if round%2 == 1 {
			step(3)
			if err := eng.Cancel(first + 1); err != nil {
				t.Fatal(err)
			}
			check("cancel active")
		}
		step(1 << 20)
	}
	return infos
}

// pinnedJob reports the first value reachable from v that belongs to a job
// — a *dag.Graph, a JobSource or a JobSpec — with the path to it, or "".
func pinnedJob(v reflect.Value, path string, seen map[uintptr]bool) string {
	graphType := reflect.TypeOf((*dag.Graph)(nil))
	sourceType := reflect.TypeOf((*sim.JobSource)(nil)).Elem()
	specType := reflect.TypeOf(sim.JobSpec{})
	if v.Kind() != reflect.Interface && (v.Type() == graphType || v.Type() == specType || v.Type().Implements(sourceType)) {
		if v.Kind() != reflect.Pointer || !v.IsNil() {
			return path + " (" + v.Type().String() + ")"
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return pinnedJob(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return pinnedJob(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := pinnedJob(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				if p := pinnedJob(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
					return p
				}
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			if p := pinnedJob(it.Value(), path+"[]", seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestTerminalJobsPinNothing drains a non-retiring engine over every runtime
// family with cancels and withdrawals: after every operation no terminal job
// holds a runtime or capability, no parked runtime reaches a graph, source
// or spec, and the pools and the free list of job states each hold at most
// the engine's live jobs plus its largest admission (the script admits at
// most three jobs at once).
func TestTerminalJobsPinNothing(t *testing.T) {
	eng, err := sim.NewEngine(releaseConfig(dag.PickFIFO))
	if err != nil {
		t.Fatal(err)
	}
	maxParked := 0
	runReleaseScript(t, eng, mixedSpec, func(op string) {
		if ids := eng.TerminalHolding(); len(ids) > 0 {
			t.Fatalf("after %s at step %d: terminal jobs %v still hold a runtime", op, eng.Now(), ids)
		}
		parked := eng.ParkedRuntimes()
		for i, rt := range parked {
			if p := pinnedJob(reflect.ValueOf(rt), fmt.Sprintf("parked[%d]", i), map[uintptr]bool{}); p != "" {
				t.Fatalf("after %s at step %d: parked runtime reaches a job: %s", op, eng.Now(), p)
			}
		}
		if len(parked) > eng.Remaining()+maxBatch {
			t.Fatalf("after %s at step %d: %d parked runtimes for %d live jobs", op, eng.Now(), len(parked), eng.Remaining())
		}
		if n := eng.FreeStates(); n > eng.Remaining()+maxBatch {
			t.Fatalf("after %s at step %d: %d free job states for %d live jobs", op, eng.Now(), n, eng.Remaining())
		}
		maxParked = max(maxParked, len(parked))
	})
	if maxParked < 2 {
		t.Fatalf("at most %d runtimes were ever parked; the script does not exercise the pools", maxParked)
	}
	if n := len(eng.ParkedRuntimes()); n > maxBatch {
		t.Fatalf("idle engine keeps %d parked runtimes, want ≤ %d", n, maxBatch)
	}
	if n := eng.FreeStates(); n > maxBatch {
		t.Fatalf("idle engine keeps %d free job states, want ≤ %d", n, maxBatch)
	}
	snap := eng.Snapshot()
	if snap.Cancelled == 0 || snap.Stolen == 0 {
		t.Fatalf("script cancelled %d and withdrew %d jobs; want both > 0", snap.Cancelled, snap.Stolen)
	}
}

// TestRecycledRuntimesMatchFresh runs one script with runtime recycling on
// and off under every pick policy, over every runtime family and over
// moldable jobs alone: StepInfo streams, Result and Checkpoint bytes must
// be identical, so a recycled runtime is indistinguishable from a fresh
// one.
func TestRecycledRuntimesMatchFresh(t *testing.T) {
	rows := []struct {
		name   string
		specAt func(int, []sim.JobSpec) sim.JobSpec
	}{{"mixed", mixedSpec}, {"moldable", moldSpec}}
	for _, pick := range []dag.PickPolicy{dag.PickFIFO, dag.PickLIFO, dag.PickRandom, dag.PickCPFirst, dag.PickCPLast} {
		t.Run(pick.String(), func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					run := func(recycle bool) ([]sim.StepInfo, []byte, []byte, int, int) {
						eng, err := sim.NewEngine(releaseConfig(pick))
						if err != nil {
							t.Fatal(err)
						}
						if !recycle {
							eng.DisableRecycling()
						}
						reused, reusedMolds, before, beforeMolds := 0, 0, 0, 0
						infos := runReleaseScript(t, eng, row.specAt, func(op string) {
							parked := eng.ParkedRuntimes()
							molds := 0
							for _, rt := range parked {
								if _, ok := rt.(*moldable.Instance); ok {
									molds++
								}
							}
							if op == "admit" {
								reused += max(before-len(parked), 0)
								reusedMolds += max(beforeMolds-molds, 0)
							}
							before, beforeMolds = len(parked), molds
						})
						var res bytes.Buffer
						if err := eng.Result().WriteJSON(&res); err != nil {
							t.Fatal(err)
						}
						cp, err := eng.Checkpoint()
						if err != nil {
							t.Fatal(err)
						}
						cpb, err := json.Marshal(cp)
						if err != nil {
							t.Fatal(err)
						}
						return infos, res.Bytes(), cpb, reused, reusedMolds
					}
					onInfo, onRes, onCP, reused, reusedMolds := run(true)
					offInfo, offRes, offCP, _, _ := run(false)
					if reused == 0 || reusedMolds == 0 {
						t.Fatalf("admissions reused %d parked runtimes, %d of them moldable; want both > 0", reused, reusedMolds)
					}
					var leaps int64
					for _, info := range onInfo {
						leaps += info.LeapSteps
					}
					if leaps == 0 && pick != dag.PickLIFO && pick != dag.PickRandom {
						t.Fatal("no step leapt; the script does not reach StableFor")
					}
					if !reflect.DeepEqual(onInfo, offInfo) {
						for i := 0; i < min(len(onInfo), len(offInfo)); i++ {
							if !reflect.DeepEqual(onInfo[i], offInfo[i]) {
								t.Fatalf("StepInfo %d differs: recycled %+v, fresh %+v", i, onInfo[i], offInfo[i])
							}
						}
						t.Fatalf("StepInfo streams differ in length: %d vs %d", len(onInfo), len(offInfo))
					}
					if !bytes.Equal(onRes, offRes) {
						t.Fatal("Result differs between recycled and fresh runtimes")
					}
					if !bytes.Equal(onCP, offCP) {
						t.Fatal("Checkpoint differs between recycled and fresh runtimes")
					}
				})
			}
		})
	}
}

// TestRecycledAdmitAllocsNoRuntime pins recycling without Retire: a warm
// admit→complete cycle of a rigid and a chain-DAG job beside a long-running
// one allocates nothing. Both runtimes come from the pools, both jobStates
// from the free list, and both work vectors are written into the status
// table, which allocates one page per 128 admissions.
func TestRecycledAdmitAllocsNoRuntime(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{
		K: 2, Caps: []int{4, 4}, Scheduler: core.NewKRAD(2), Pick: dag.PickFIFO, MaxSteps: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Admit(sim.JobSpec{Source: profile.MustNewRigid(2, "long", 1, 1, 1<<30)}); err != nil {
		t.Fatal(err)
	}
	rigid := sim.JobSpec{Source: profile.MustNewRigid(2, "r", 2, 2, 3)}
	chain := sim.JobSpec{Graph: dag.RoundRobinChain(2, 6)}
	cycle := func() {
		rigid.Release, chain.Release = eng.Now(), eng.Now()
		if _, err := eng.Admit(rigid); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Admit(chain); err != nil {
			t.Fatal(err)
		}
		for eng.Remaining() > 1 {
			if _, err := eng.StepN(16); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 600; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm admit→complete cycle allocates %.1f per run; want 0", avg)
	}
}

// TestClairvoyantOracleAfterCompletion drives SJF, which reads remaining
// work through the engine's oracle, through jobs completing beside live
// ones: a finished job's runtime is released, and the oracle answers the
// zero vector for it.
func TestClairvoyantOracleAfterCompletion(t *testing.T) {
	spy := &oracleSpy{SJF: baselines.NewSJF()}
	eng, err := sim.NewEngine(sim.Config{K: 2, Caps: []int{2, 2}, Scheduler: spy, Pick: dag.PickFIFO, ValidateAllotments: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		spec := sim.JobSpec{Graph: dag.RoundRobinChain(2, 2+3*(i%4)), Release: int64(i)}
		if i%2 == 1 {
			spec = sim.JobSpec{Source: profile.MustNewRigid(2, "r", dag.Category(1+i%2), 1, 1+i%5), Release: int64(i)}
		}
		if _, err := eng.Admit(spec); err != nil {
			t.Fatal(err)
		}
	}
	done, beside := 0, 0
	for !eng.Idle() {
		info, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range info.Completed {
			if w := spy.oracle.RemainingWork(id); !reflect.DeepEqual(w, []int{0, 0}) {
				t.Fatalf("oracle answers %v for job %d, completed at step %d; want [0 0]", w, id, info.Step)
			}
			done++
		}
		if len(info.Completed) > 0 && eng.Remaining() > 0 {
			beside++
		}
	}
	if done != 12 || beside == 0 {
		t.Fatalf("%d jobs completed, %d steps completed jobs beside live ones; want 12 and > 0", done, beside)
	}
}

// oracleSpy is SJF that keeps the oracle the engine hands it.
type oracleSpy struct {
	*baselines.SJF
	oracle sched.Oracle
}

func (s *oracleSpy) SetOracle(o sched.Oracle) {
	s.oracle = o
	s.SJF.SetOracle(o)
}

// TestRecycledJobStatesMatchFresh runs the release script with recycling on
// and off — runtimes and ended jobs' states both — under every pick policy,
// with and without retiring half the terminal jobs after every operation:
// StepInfo streams, Result and Checkpoint bytes and every Job answer along
// the way must be identical, so a recycled jobState is indistinguishable
// from a fresh one.
func TestRecycledJobStatesMatchFresh(t *testing.T) {
	for _, retire := range []bool{false, true} {
		for _, pick := range []dag.PickPolicy{dag.PickFIFO, dag.PickLIFO, dag.PickRandom, dag.PickCPFirst, dag.PickCPLast} {
			t.Run(fmt.Sprintf("%s/retire=%v", pick, retire), func(t *testing.T) {
				type outcome struct {
					infos           []sim.StepInfo
					res, cp, jobs   []byte
					reused, retired int
				}
				run := func(recycle bool) outcome {
					eng, err := sim.NewEngine(releaseConfig(pick))
					if err != nil {
						t.Fatal(err)
					}
					if !recycle {
						eng.DisableRecycling()
					}
					var out outcome
					var jobs bytes.Buffer
					before := 0
					out.infos = runReleaseScript(t, eng, mixedSpec, func(op string) {
						if n := eng.FreeStates(); op == "admit" && n < before {
							out.reused += before - n
						}
						for id := 0; id < eng.NextID(); id++ {
							st, ok := eng.Job(id)
							fmt.Fprintf(&jobs, "%s %v %+v\n", op, ok, st)
							if retire && ok && id%2 == 0 && st.Phase != sim.JobPending && st.Phase != sim.JobActive {
								if err := eng.Retire(id); err != nil {
									t.Fatal(err)
								}
								out.retired++
							}
						}
						before = eng.FreeStates()
					})
					out.jobs = jobs.Bytes()
					var res bytes.Buffer
					if err := eng.Result().WriteJSON(&res); err != nil {
						t.Fatal(err)
					}
					out.res = res.Bytes()
					cp, err := eng.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if out.cp, err = json.Marshal(cp); err != nil {
						t.Fatal(err)
					}
					return out
				}
				on, off := run(true), run(false)
				if on.reused == 0 {
					t.Fatal("no admission reused an ended job's state")
				}
				if off.reused != 0 {
					t.Fatalf("%d admissions reused a state with recycling off", off.reused)
				}
				if retire && on.retired == 0 {
					t.Fatal("no job was retired")
				}
				if !reflect.DeepEqual(on.infos, off.infos) {
					t.Fatal("StepInfo streams differ between recycled and fresh job states")
				}
				if !bytes.Equal(on.jobs, off.jobs) {
					t.Fatal("Job answers differ between recycled and fresh job states")
				}
				if !bytes.Equal(on.res, off.res) {
					t.Fatal("Result differs between recycled and fresh job states")
				}
				if !bytes.Equal(on.cp, off.cp) {
					t.Fatal("Checkpoint differs between recycled and fresh job states")
				}
			})
		}
	}
}
