package sim_test

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
)

// shipped is the capability set of sched.WithFloors(core.NewKRAD(k)) that a
// caller-written decorator knows about.
type shipped interface {
	sched.Scheduler
	sched.IntoAllotter
	sched.Stable
	sched.Completer
	sched.Snapshotter
}

// denseStack hides the shipped stack behind its dense contract, exactly like
// the benchmark's timing decorator: the engine binds IntoAllotter, Stable and
// Completer, never sees the delta form, and the stack's dense entries adapt.
type denseStack struct{ s shipped }

func (d denseStack) Name() string { return d.s.Name() }
func (d denseStack) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	return d.s.Allot(t, jobs, caps)
}
func (d denseStack) AllotInto(t int64, jobs []sched.JobView, caps []int, dst [][]int) {
	d.s.AllotInto(t, jobs, caps, dst)
}
func (d denseStack) StableHorizon() int64 { return d.s.StableHorizon() }
func (d denseStack) LeapTotals(t int64, jobs []sched.JobView, caps []int, n int64, dst [][]int) {
	d.s.LeapTotals(t, jobs, caps, n, dst)
}
func (d denseStack) JobsDone(ids []int)             { d.s.JobsDone(ids) }
func (d denseStack) SnapshotState() ([]byte, error) { return d.s.SnapshotState() }
func (d denseStack) RestoreState(b []byte) error    { return d.s.RestoreState(b) }

// deltaSpecs draws an overloaded mixed population: rigid jobs, multi-category
// DAG jobs whose desire in a category drops to zero and returns (barrier
// layers and round-robin chains), moldable jobs (floor-bearing, held and
// unheld) and a few profile jobs, with staggered releases.
func deltaSpecs(rng *rand.Rand, k, jobs int) []sim.JobSpec {
	specs := moldable.Generate(moldable.GenOpts{
		K: k, Jobs: 1 + jobs/5, MinTasks: 1, MaxTasks: 6,
		MaxWork: 40, MaxProcs: 3, MaxArrival: 20, Seed: rng.Int63(),
	})
	for len(specs) < jobs {
		release := rng.Int63n(25)
		switch rng.Intn(6) {
		case 0:
			specs = append(specs, sim.JobSpec{Graph: denseLayeredGraph(k, 2+rng.Intn(6), 1+rng.Intn(3), rng.Intn(k)), Release: release})
		case 1:
			specs = append(specs, sim.JobSpec{Graph: dag.RoundRobinChain(k, 2+rng.Intn(8)), Release: release})
		case 2:
			tasks := make([]int, k)
			tasks[rng.Intn(k)] = 1 + rng.Intn(300)
			specs = append(specs, sim.JobSpec{Source: profile.MustNew(k, "p", []profile.Phase{{Tasks: tasks}}), Release: release})
		default:
			r := profile.MustNewRigid(k, "r", dag.Category(1+rng.Intn(k)), 1+rng.Intn(4), 1+rng.Intn(12))
			specs = append(specs, sim.JobSpec{Source: r, Release: release})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func deltaSeeds(t *testing.T) int64 {
	seeds := int64(60)
	if v := os.Getenv("KRAD_DELTA_SEEDS"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			t.Fatalf("KRAD_DELTA_SEEDS=%q", v)
		}
		seeds = n
	}
	return seeds
}

// TestDeltaMatchesDense is the engine-level oracle for the delta-driven
// scheduler: per seed, one engine drives the shipped stack through its delta
// form and another drives the same stack hidden behind its dense contract —
// all views every round through sched.FromDense, JobsDone — and the two must
// agree on every StepInfo, on the scheduler's snapshot bytes after every call,
// and on per-job completions and the engine snapshot at the end. The seeds vary what
// moves the queues: small machines (round-robin cycles in every category),
// admission out of release order (releases insert below the highest active
// ID and below RAD's cursor), DAG jobs that leave a category and re-enter it
// mid-cycle, cancels of active jobs mid-cycle, moldable jobs beside rigid
// ones, Speed 2, chunked StepN against single steps, leap-on against NoLeap.
// Seed count from KRAD_DELTA_SEEDS (default 60).
func TestDeltaMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= deltaSeeds(t); seed++ {
		deltaMatchesDense(t, seed)
	}
}

func deltaMatchesDense(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(3)
	caps := make([]int, k)
	for a := range caps {
		caps[a] = 1 + rng.Intn(4)
		if rng.Intn(4) == 0 {
			caps[a] += rng.Intn(24) // sometimes roomy: DEQ rounds and leaps
		}
	}
	specs := deltaSpecs(rng, k, 6+rng.Intn(30))
	cfg := sim.Config{
		K: k, Caps: caps, Pick: dag.PickFIFO, Seed: seed, ValidateAllotments: true,
		NoLeap: rng.Intn(3) == 0,
	}
	if rng.Intn(4) == 0 {
		cfg.Speed = 2
	}
	single := rng.Intn(3) == 0 // Step by Step rather than chunked StepN

	stackA := sched.WithFloors(core.NewKRAD(k)).(shipped)
	stackB := sched.WithFloors(core.NewKRAD(k)).(shipped)
	cfgA, cfgB := cfg, cfg
	cfgA.Scheduler, cfgB.Scheduler = stackA, denseStack{stackB}
	a, b := admitInOrder(t, cfgA, specs), admitInOrder(t, cfgB, specs)

	cancels := rng.Intn(4)
	for a.Remaining() > 0 {
		budget := int64(1)
		if !single {
			budget = 1 + rng.Int63n(12)
		}
		ia, errA := a.StepN(budget)
		ib, errB := b.StepN(budget)
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: step errors %v / %v", seed, errA, errB)
		}
		if !reflect.DeepEqual(ia, ib) {
			t.Fatalf("seed %d: at step %d the delta-driven engine reports %+v, the dense one %+v", seed, a.Now(), ia, ib)
		}
		sa, errA := stackA.SnapshotState()
		sb, errB := stackB.SnapshotState()
		if errA != nil || errB != nil || !bytes.Equal(sa, sb) {
			t.Fatalf("seed %d: at step %d scheduler snapshots differ: %s (%v) vs %s (%v)", seed, a.Now(), sa, errA, sb, errB)
		}
		if cancels > 0 && rng.Intn(6) == 0 {
			cancels--
			id := rng.Intn(len(specs))
			if errA, errB := a.Cancel(id), b.Cancel(id); (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d: cancel(%d) diverged: %v vs %v", seed, id, errA, errB)
			}
		}
	}
	if b.Remaining() != 0 {
		t.Fatalf("seed %d: dense engine has %d jobs left", seed, b.Remaining())
	}
	ra, rb := a.Result(), b.Result()
	ra.Scheduler, rb.Scheduler = "", ""
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("seed %d: results differ", seed)
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("seed %d: engine snapshots differ: %+v vs %+v", seed, a.Snapshot(), b.Snapshot())
	}
}

// countingCat wraps a RAD and counts the calls that hand it a whole list to
// partition densely.
type countingCat struct {
	*core.RAD
	dense, delta, leaps *int
}

func (c countingCat) Allot(t int64, jobs []sched.CatJob, p int) []int {
	*c.dense++
	return c.RAD.Allot(t, jobs, p)
}

func (c countingCat) AllotInto(t int64, jobs []sched.CatJob, p int, dst []int) {
	*c.dense++
	c.RAD.AllotInto(t, jobs, p, dst)
}

func (c countingCat) AllotDelta(t int64, jobs []sched.CatJob, p int, out []sched.CatGrant) []sched.CatGrant {
	*c.delta++
	return c.RAD.AllotDelta(t, jobs, p, out)
}

func (c countingCat) LeapTotals(t int64, jobs []sched.CatJob, p int, n int64, dst []int) {
	*c.leaps++
	c.RAD.LeapTotals(t, jobs, p, n, dst)
}

// countingStack wraps a PerCategory the same way, one layer up.
type countingStack struct {
	*sched.PerCategory
	dense *int
}

func (c countingStack) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	*c.dense++
	return c.PerCategory.Allot(t, jobs, caps)
}

func (c countingStack) AllotInto(t int64, jobs []sched.JobView, caps []int, dst [][]int) {
	*c.dense++
	c.PerCategory.AllotInto(t, jobs, caps, dst)
}

// TestEngineMakesNoDenseSchedulerCall: with the shipped stack the engine and
// every layer under it stay on the delta path in every round of a mixed
// rigid + moldable overloaded run — floor-bearing jobs, held and unheld,
// included. LeapTotals, on a round that actually leaps, is the one dense
// signature left.
func TestEngineMakesNoDenseSchedulerCall(t *testing.T) {
	const k = 2
	var catDense, catDelta, catLeaps, stackDense int
	cats := make([]sched.CategoryScheduler, k)
	for a := range cats {
		cats[a] = countingCat{core.NewRAD(), &catDense, &catDelta, &catLeaps}
	}
	stack := sched.WithFloors(countingStack{sched.NewPerCategory("k-rad", cats), &stackDense})

	rng := rand.New(rand.NewSource(7))
	specs := moldable.Generate(moldable.GenOpts{K: k, Jobs: 12, MinTasks: 2, MaxTasks: 8, MaxWork: 60, MaxProcs: 3, MaxArrival: 10, Seed: 7})
	for j := 0; j < 60; j++ {
		r := profile.MustNewRigid(k, "r", dag.Category(1+j%k), 1+rng.Intn(3), 2+rng.Intn(20))
		specs = append(specs, sim.JobSpec{Source: r, Release: rng.Int63n(10)})
	}
	// Two long profile jobs outlast everything else and then leap.
	for j := 0; j < 2; j++ {
		specs = append(specs, sim.JobSpec{Source: profile.MustNew(k, "tail", []profile.Phase{{Tasks: []int{40000, 40000}}})})
	}
	eng := admitAll(t, sim.Config{K: k, Caps: []int{4, 3}, Scheduler: stack, ValidateAllotments: true}, specs)
	var leapt int64
	for eng.Remaining() > 0 {
		info, err := eng.StepN(64)
		if err != nil {
			t.Fatal(err)
		}
		leapt += info.LeapSteps
	}
	snap := eng.Snapshot()
	if snap.LeapBlocked.Overload == 0 || snap.LeapBlocked.Hold == 0 {
		t.Fatalf("the run is not the one intended: leaps blocked %+v (want overloaded rounds and unheld moldable jobs)", snap.LeapBlocked)
	}
	if catDelta == 0 {
		t.Fatal("no category scheduler was driven through its delta form")
	}
	if catDense != 0 || stackDense != 0 {
		t.Fatalf("dense scheduler calls: %d on category schedulers, %d on the stack under the floor layer; want none", catDense, stackDense)
	}
	if (leapt > 0) != (catLeaps > 0) {
		t.Fatalf("%d leapt steps but %d LeapTotals calls", leapt, catLeaps)
	}
	if leapt == 0 {
		t.Fatal("the tail never leapt: the LeapTotals exception is not exercised")
	}
}

// TestValidateAllotmentsNamesStarvedFloorOnDeltaPath: the delta path hands
// the validator the granted rows only, but a job that pins processors and
// was granted nothing must still be named — here by K-RAD without the floor
// layer, whose round-robin passes the pinned job over.
func TestValidateAllotmentsNamesStarvedFloorOnDeltaPath(t *testing.T) {
	g := dag.Singleton(1, 1)
	g.SetDuration(0, 3)
	pinned, err := moldable.FromTimedGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	specs := []sim.JobSpec{
		{Source: pinned},
		{Graph: dag.UniformChain(1, 5, 1)},
		{Graph: dag.UniformChain(1, 5, 1)},
	}
	cfg := sim.Config{K: 1, Caps: []int{1}, Scheduler: core.NewKRAD(1), ValidateAllotments: true}
	_, err = sim.Run(cfg, specs)
	if err == nil || !strings.Contains(err.Error(), "job 0 category 1 allotment 0 below non-preemptive floor 1") {
		t.Errorf("starved floor not caught: %v", err)
	}
}

// TestDeltaRoundAllocsZeroAt4096 pins the overloaded steady-state round of
// the shipped stack — 4,096 active rigid jobs on 3×16 processors, allotment
// validation on — at zero allocations.
func TestDeltaRoundAllocsZeroAt4096(t *testing.T) {
	const k, active = 3, 4096
	specs := make([]sim.JobSpec, active)
	for j := range specs {
		specs[j] = sim.JobSpec{Source: profile.MustNewRigid(k, "r", dag.Category(1+j%k), 1+(j/k)%4, 1<<40)}
	}
	eng, err := sim.NewEngine(sim.Config{
		K: k, Caps: []int{16, 16, 16}, Scheduler: sched.WithFloors(core.NewKRAD(k)),
		ValidateAllotments: true, MaxSteps: 1 << 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AdmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	// One full round-robin cycle sizes every buffer, the marks included.
	for i := 0; i < active/16+8; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(300, func() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("overloaded round at %d active jobs allocates %.2f per step; want 0", active, avg)
	}
}

// TestSchedulerStateBoundedByActiveSet: scheduler state is sized by the
// active set, never indexed by job ID — RAD's marks excepted, and they grow
// only inside a round-robin call. 200,000 short jobs pass through an engine
// with at most 32 active at a time on a machine that is never overloaded;
// afterwards the engine is dropped and what the scheduler stack still holds
// is measured. One 8-byte entry per job ID in one category would be 1.6 MB.
func TestSchedulerStateBoundedByActiveSet(t *testing.T) {
	const k, total, batch = 2, 200000, 32
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := heap()
	stack := sched.WithFloors(core.NewKRAD(k))
	eng, err := sim.NewEngine(sim.Config{K: k, Caps: []int{4096, 4096}, Scheduler: stack, ValidateAllotments: true})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]sim.JobSpec, batch)
	for at := 0; at < total; at += batch {
		for j := range specs {
			c := at + j
			specs[j] = sim.JobSpec{Release: eng.Now(), Source: profile.MustNewRigid(k, "s", dag.Category(1+c%k), 1+c%4, 1+c%3)}
		}
		if _, err := eng.AdmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		for eng.Remaining() > 0 {
			info, err := eng.StepN(8)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range info.Completed {
				if err := eng.Retire(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	snap := eng.Snapshot()
	if snap.Completed != total {
		t.Fatalf("completed %d of %d jobs", snap.Completed, total)
	}
	for a, over := range eng.Result().Overloaded {
		if over {
			t.Fatalf("category %d was overloaded: the run made round-robin calls", a+1)
		}
	}
	eng, specs = nil, nil
	after := heap()
	runtime.KeepAlive(stack)
	if grown := int64(after) - int64(base); grown > 64<<10 {
		t.Fatalf("scheduler stack retains %d bytes after %d jobs with at most %d active; want under 64 KiB", grown, total, batch)
	}
}
