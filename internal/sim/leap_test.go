package sim_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
)

// randomLeapSpecs builds a workload that exercises the event-leap: mostly
// profile jobs (leapable) with phases big enough to hold deprived DEQ
// regimes, a sprinkling of DAG jobs (leapable whenever their frontier
// level is deep enough — level stability), and staggered releases.
func randomLeapSpecs(rng *rand.Rand, k, jobs int) []sim.JobSpec {
	specs := make([]sim.JobSpec, 0, jobs)
	for j := 0; j < jobs; j++ {
		release := rng.Int63n(40)
		if rng.Intn(4) == 0 {
			// Dense-layered barrier DAG: wide levels behind single join
			// tasks, the shape whose drains the DAG leap accelerates.
			g := denseLayeredGraph(k, 8+rng.Intn(33), 1+rng.Intn(3), rng.Intn(k))
			specs = append(specs, sim.JobSpec{Graph: g, Release: release})
			continue
		}
		if rng.Intn(5) == 0 {
			// DAG job: small sparse layered graph.
			g := dag.New(k)
			var prev []dag.TaskID
			for l := 0; l < 1+rng.Intn(3); l++ {
				var cur []dag.TaskID
				for a := 1; a <= k; a++ {
					cur = append(cur, g.AddTasks(dag.Category(a), 1+rng.Intn(4))...)
				}
				for _, u := range prev {
					g.MustEdge(u, cur[rng.Intn(len(cur))])
				}
				prev = cur
			}
			specs = append(specs, sim.JobSpec{Graph: g, Release: release})
			continue
		}
		phases := make([]profile.Phase, 1+rng.Intn(3))
		for p := range phases {
			tasks := make([]int, k)
			total := 0
			for a := range tasks {
				tasks[a] = rng.Intn(400)
				total += tasks[a]
			}
			if total == 0 {
				tasks[rng.Intn(k)] = 1 + rng.Intn(400)
			}
			phases[p] = profile.Phase{Tasks: tasks}
		}
		specs = append(specs, sim.JobSpec{
			Source:  profile.MustNew(k, "p", phases),
			Release: release,
		})
	}
	return specs
}

// denseLayeredGraph builds a barrier-style layered K-DAG: levels of width
// same-category tasks, each level funneling through a single join task
// before the next opens. rot rotates the category assignment.
func denseLayeredGraph(k, width, levels, rot int) *dag.Graph {
	g := dag.New(k)
	var join dag.TaskID
	haveJoin := false
	for l := 0; l < levels; l++ {
		wide := g.AddTasks(dag.Category(1+(l+rot)%k), width)
		if haveJoin {
			for _, v := range wide {
				g.MustEdge(join, v)
			}
		}
		join = g.AddTasks(dag.Category(1+(l+rot+1)%k), 1)[0]
		for _, u := range wide {
			g.MustEdge(u, join)
		}
		haveJoin = true
	}
	return g
}

// admitAll builds an engine with the given config and admits the specs in
// release order (Run's ID assignment).
func admitAll(t *testing.T, cfg sim.Config, specs []sim.JobSpec) *sim.Engine {
	t.Helper()
	ordered := append([]sim.JobSpec(nil), specs...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Release < ordered[j-1].Release; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	return admitInOrder(t, cfg, ordered)
}

// admitInOrder admits the specs as given, so IDs need not follow release
// order and a late release can land below the highest active ID. Every
// engine the suites build runs the slot-table oracle on every round.
func admitInOrder(t *testing.T, cfg sim.Config, specs []sim.JobSpec) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.CheckSlots(func(err error) { t.Error(err) })
	if _, err := eng.AdmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	return eng
}

// advanceTo drives the engine until its clock reaches target (or it goes
// idle), never executing a step past target: each StepN budget is capped
// by the remaining distance, so leaps cannot overshoot the sync point.
func advanceTo(eng *sim.Engine, target int64) error {
	for eng.Now() < target {
		n := target - eng.Now()
		info, err := eng.StepN(n)
		if err != nil {
			return err
		}
		if info.Idle {
			return nil
		}
	}
	return nil
}

// drain steps the engine to completion with huge budgets.
func drain(eng *sim.Engine) error {
	for eng.Remaining() > 0 {
		if _, err := eng.StepN(1 << 40); err != nil {
			return err
		}
	}
	return nil
}

// TestQuickLeapEquivalence is the event-leap soundness property: leap-on
// and leap-off (NoLeap) engines produce bit-identical results — virtual
// time, per-job completions, per-step trace rows, executed totals — on
// random profile/DAG mixes with staggered releases and cancels landing at
// arbitrary points, including mid-stable-regime.
func TestQuickLeapEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		caps := make([]int, k)
		for i := range caps {
			caps[i] = 1 + rng.Intn(64)
		}
		specs := randomLeapSpecs(rng, k, 2+rng.Intn(10))
		mkCfg := func(noLeap bool) sim.Config {
			return sim.Config{
				K: k, Caps: caps, Scheduler: core.NewKRAD(k),
				Pick: dag.PickFIFO, Trace: sim.TraceSteps,
				ValidateAllotments: true, NoLeap: noLeap,
			}
		}
		// Half the seeds admit in generation order: IDs then disagree with
		// release order and releases insert below the highest active ID.
		admit := admitAll
		if rng.Intn(2) == 0 {
			admit = admitInOrder
		}
		on := admit(t, mkCfg(false), specs)
		off := admit(t, mkCfg(true), specs)

		// Cancel up to two jobs at random times; both engines are at the
		// same clock when each cancel lands, so outcomes must match.
		for c := 0; c < rng.Intn(3); c++ {
			at := rng.Int63n(60)
			id := rng.Intn(len(specs))
			if err := advanceTo(on, at); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if err := advanceTo(off, at); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if on.Now() != off.Now() {
				t.Logf("seed %d: clocks diverged before cancel: %d vs %d", seed, on.Now(), off.Now())
				return false
			}
			errOn := on.Cancel(id)
			errOff := off.Cancel(id)
			if (errOn == nil) != (errOff == nil) {
				t.Logf("seed %d: cancel(%d) diverged: %v vs %v", seed, id, errOn, errOff)
				return false
			}
		}
		if err := drain(on); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := drain(off); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ron, roff := on.Result(), off.Result()
		if !reflect.DeepEqual(ron, roff) {
			t.Logf("seed %d: results diverged:\n on=%+v\noff=%+v", seed, ron, roff)
			return false
		}
		son, soff := on.Snapshot(), off.Snapshot()
		if !reflect.DeepEqual(son.ExecutedTotal, soff.ExecutedTotal) || son.Now != soff.Now {
			t.Logf("seed %d: snapshots diverged", seed)
			return false
		}
		// The whole point: leaps actually fired on the leap-on engine for
		// at least some seeds — assert it when the off engine did real work
		// and there were no DAG jobs (softly: just record the counter).
		_ = son.LeapSteps
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickDAGLeapEquivalence is the DAG half of the soundness property:
// pure-DAG populations (dense barrier layers plus sparse graphs, no
// profile jobs) under every pick policy must be bit-identical between
// leap-on and leap-off engines. LIFO and random picks never leap (their
// per-step order is not reproducible in aggregate) — for those the test
// degenerates to checking the engine correctly refuses, which the
// DAGFrontier/zero-leap accounting below distinguishes from "leapt wrong".
func TestQuickDAGLeapEquivalence(t *testing.T) {
	picks := []dag.PickPolicy{dag.PickFIFO, dag.PickLIFO, dag.PickRandom, dag.PickCPFirst, dag.PickCPLast}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		caps := make([]int, k)
		for i := range caps {
			caps[i] = 1 + rng.Intn(16)
		}
		pick := picks[rng.Intn(len(picks))]
		jobs := 1 + rng.Intn(5)
		specs := make([]sim.JobSpec, 0, jobs)
		for j := 0; j < jobs; j++ {
			g := denseLayeredGraph(k, 8+rng.Intn(57), 1+rng.Intn(4), rng.Intn(k))
			specs = append(specs, sim.JobSpec{Graph: g, Release: rng.Int63n(20)})
		}
		mkCfg := func(noLeap bool) sim.Config {
			return sim.Config{
				K: k, Caps: caps, Scheduler: core.NewKRAD(k),
				Pick: pick, Seed: seed, Trace: sim.TraceSteps,
				ValidateAllotments: true, NoLeap: noLeap,
			}
		}
		on := admitAll(t, mkCfg(false), specs)
		off := admitAll(t, mkCfg(true), specs)
		// Drive the leap-on engine in random chunks so leaps start and
		// stop at arbitrary clock offsets, then drain both.
		for c := 0; c < 3 && on.Remaining() > 0; c++ {
			if _, err := on.StepN(1 + rng.Int63n(9)); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		if err := drain(on); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := drain(off); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(on.Result(), off.Result()) {
			t.Logf("seed %d (pick %v): results diverged", seed, pick)
			return false
		}
		son, soff := on.Snapshot(), off.Snapshot()
		if son.Now != soff.Now || !reflect.DeepEqual(son.ExecutedTotal, soff.ExecutedTotal) {
			t.Logf("seed %d (pick %v): snapshots diverged", seed, pick)
			return false
		}
		switch pick {
		case dag.PickLIFO, dag.PickRandom:
			if son.LeapSteps != 0 {
				t.Logf("seed %d: %v pick leapt %d steps; must never leap", seed, pick, son.LeapSteps)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDAGLeapActuallyFires guards the DAG fast path the way
// TestLeapActuallyFires guards the profile one: wide barrier levels over
// small caps must drain via leaps, and the blocked-reason counters must
// show frontier stalls (the join boundaries) rather than anything
// misconfigured.
func TestDAGLeapActuallyFires(t *testing.T) {
	const k = 2
	var specs []sim.JobSpec
	for j := 0; j < 4; j++ {
		specs = append(specs, sim.JobSpec{Graph: denseLayeredGraph(k, 512, 3, j%k)})
	}
	// One short-lived pairwise-join job: a wide ready level (scheduler
	// horizon positive) funneling into indeg-2 joins (level-stability
	// bound 0), so some early rounds block on dag-frontier specifically.
	pg := dag.New(k)
	wide := pg.AddTasks(1, 32)
	for i := 0; i < len(wide); i += 2 {
		join := pg.AddTasks(2, 1)[0]
		pg.MustEdge(wide[i], join)
		pg.MustEdge(wide[i+1], join)
	}
	specs = append(specs, sim.JobSpec{Graph: pg})
	eng := admitAll(t, sim.Config{
		K: k, Caps: []int{8, 8}, Scheduler: core.NewKRAD(k),
		Pick: dag.PickFIFO, ValidateAllotments: true,
	}, specs)
	if err := drain(eng); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.LeapSteps == 0 {
		t.Fatal("no event-leaps fired on a dense-layered DAG workload")
	}
	if ratio := float64(snap.LeapSteps) / float64(snap.Now); ratio < 0.8 {
		t.Fatalf("leaps covered only %.1f%% of %d steps; want ≥ 80%%", ratio*100, snap.Now)
	}
	b := snap.LeapBlocked
	if b.DAGFrontier == 0 {
		t.Error("no dag-frontier blocks recorded; join boundaries should stall leaps")
	}
	if b.NoLeap != 0 || b.Speed != 0 || b.Observer != 0 || b.Trace != 0 || b.Floors != 0 || b.Runtime != 0 {
		t.Errorf("unexpected blocked reasons on a clean DAG workload: %+v", b)
	}
}

// TestQuickLeapChunkInvariance checks StepN(a);StepN(b) ≡ StepN(a+b): an
// engine driven by random small budgets matches one driven by one huge
// budget, state and trace alike. Journal replay (internal/journal) depends
// on this — replay rarely re-issues the original chunking.
func TestQuickLeapChunkInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		caps := make([]int, k)
		for i := range caps {
			caps[i] = 1 + rng.Intn(48)
		}
		specs := randomLeapSpecs(rng, k, 2+rng.Intn(8))
		mkCfg := func() sim.Config {
			return sim.Config{
				K: k, Caps: caps, Scheduler: core.NewKRAD(k),
				Pick: dag.PickFIFO, Trace: sim.TraceSteps,
				ValidateAllotments: true,
			}
		}
		big := admitAll(t, mkCfg(), specs)
		chunked := admitAll(t, mkCfg(), specs)
		if err := drain(big); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for chunked.Remaining() > 0 {
			if _, err := chunked.StepN(1 + rng.Int63n(7)); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		if !reflect.DeepEqual(big.Result(), chunked.Result()) {
			t.Logf("seed %d: chunked results diverged", seed)
			return false
		}
		sb, sc := big.Snapshot(), chunked.Snapshot()
		return sb.Now == sc.Now && reflect.DeepEqual(sb.ExecutedTotal, sc.ExecutedTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLeapActuallyFires guards the optimization itself: on a pure profile
// workload in a deprived DEQ regime (with a rotating remainder — the
// common case), the engine must cover most steps via leaps, not just be
// correct. This keeps the fast path from silently rotting into "always
// fall back to single-stepping".
func TestLeapActuallyFires(t *testing.T) {
	const k = 2
	phases := []profile.Phase{{Tasks: []int{50_000, 30_000}}, {Tasks: []int{40_000, 60_000}}}
	var specs []sim.JobSpec
	for j := 0; j < 7; j++ { // 7 jobs, caps not divisible: remainder rotates
		specs = append(specs, sim.JobSpec{Source: profile.MustNew(k, "p", phases)})
	}
	eng := admitAll(t, sim.Config{
		K: k, Caps: []int{16, 9}, Scheduler: core.NewKRAD(k),
		Pick: dag.PickFIFO, ValidateAllotments: true,
	}, specs)
	if err := drain(eng); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.LeapSteps == 0 {
		t.Fatal("no event-leaps fired on an all-profile deprived workload")
	}
	if ratio := float64(snap.LeapSteps) / float64(snap.Now); ratio < 0.9 {
		t.Fatalf("leaps covered only %.1f%% of %d steps; want ≥ 90%%", ratio*100, snap.Now)
	}
}

// pinJob is a one-category job that holds one processor for left steps: a
// FloorRuntime without HoldRuntime, the seam an external non-preemptive
// runtime plugs into (every shipped floor-bearing runtime also holds).
type pinJob struct {
	left    int
	started bool
}

func (j *pinJob) Name() string      { return "pin" }
func (j *pinJob) K() int            { return 1 }
func (j *pinJob) WorkVector() []int { return []int{j.left} }
func (j *pinJob) Span() int         { return j.left }
func (j *pinJob) TotalTasks() int   { return j.left }

func (j *pinJob) NewRuntime(dag.PickPolicy, int64) sim.RuntimeJob { return j }

func (j *pinJob) Advance()             {}
func (j *pinJob) Done() bool           { return j.left == 0 }
func (j *pinJob) RemainingWork() []int { return []int{j.left} }

func (j *pinJob) Desire(dag.Category) int {
	if j.left > 0 {
		return 1
	}
	return 0
}

func (j *pinJob) Floor(dag.Category) int {
	if j.started && j.left > 0 {
		return 1
	}
	return 0
}

func (j *pinJob) Execute(_ dag.Category, n int) int {
	if n < 1 || j.left == 0 {
		return 0
	}
	j.started = true
	j.left--
	return 1
}

// TestFloorsWithoutHoldBlockLeaps pins the reason split: a runtime that
// pins processors but cannot report a held window refuses every leap under
// Floors, never under Hold, for as long as it is in flight.
func TestFloorsWithoutHoldBlockLeaps(t *testing.T) {
	specs := []sim.JobSpec{
		{Source: &pinJob{left: 400}},
		{Source: profile.MustNew(1, "p", []profile.Phase{{Tasks: []int{3000}}})},
	}
	eng := admitAll(t, sim.Config{
		K: 1, Caps: []int{8}, Scheduler: core.NewKRAD(1), ValidateAllotments: true,
	}, specs)
	if err := advanceTo(eng, 400); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.LeapSteps != 0 || snap.LeapBlocked.Floors == 0 || snap.LeapBlocked.Hold != 0 {
		t.Errorf("after 400 pinned steps: %d leap steps, blocked %+v; want no leaps, all refusals under Floors",
			snap.LeapSteps, snap.LeapBlocked)
	}
}

var _ sched.Stable = (*sched.PerCategory)(nil)
