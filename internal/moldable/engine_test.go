package moldable_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
)

// These tests live in package moldable_test rather than internal/sim's
// suite because sim's tests cannot import moldable (moldable imports sim).
// They are the engine-level half of the family contract: moldable jobs
// run through the ordinary Step/StepN loop behind sched.WithFloors, leap
// through held phases via the hold law, and stay bit-identical between
// every stepping mode.

// moldCfg is the canonical moldable engine configuration: K-RAD wrapped
// in the floor layer (moldable jobs pin processors non-preemptively).
func moldCfg(k int, caps []int, pick dag.PickPolicy, seed int64, noLeap bool) sim.Config {
	return sim.Config{
		K: k, Caps: caps, Scheduler: sched.WithFloors(core.NewKRAD(k)),
		Pick: pick, Seed: seed, Trace: sim.TraceSteps,
		ValidateAllotments: true, NoLeap: noLeap,
	}
}

// admitAll builds an engine and admits specs in release order.
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
// idle), never executing a step past target.
func advanceTo(eng *sim.Engine, target int64) error {
	for eng.Now() < target {
		info, err := eng.StepN(target - eng.Now())
		if err != nil || info.Idle {
			return err
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

// mixedFamilySpecs draws a random three-family population: moldable jobs
// plus profile, DAG and (one seed in three) duration-graph jobs — moldable
// jobs with Max = 1 — all with staggered releases.
func mixedFamilySpecs(rng *rand.Rand, k, jobs int) []sim.JobSpec {
	specs := moldable.Generate(moldable.GenOpts{
		K: k, Jobs: 1 + jobs/2, MinTasks: 2, MaxTasks: 10,
		MaxWork: 64, MaxProcs: 8, MaxArrival: 30, Seed: rng.Int63(),
	})
	timed := rng.Intn(3) == 0
	for len(specs) < jobs {
		release := rng.Int63n(30)
		if rng.Intn(2) == 0 {
			g := dag.New(k)
			var prev []dag.TaskID
			for l := 0; l < 1+rng.Intn(3); l++ {
				cur := g.AddTasks(dag.Category(1+rng.Intn(k)), 1+rng.Intn(6))
				for _, u := range prev {
					g.MustEdge(u, cur[rng.Intn(len(cur))])
				}
				prev = cur
			}
			if timed && rng.Intn(2) == 0 {
				// A few small multi-step tasks: short floors, so the
				// population still leaps once the job has drained.
				for v := 0; v < g.NumTasks(); v += 2 {
					g.SetDuration(dag.TaskID(v), 1+rng.Intn(3))
				}
				job, err := moldable.FromTimedGraph(g)
				if err != nil {
					panic(err)
				}
				specs = append(specs, sim.JobSpec{Source: job, Release: release})
				continue
			}
			specs = append(specs, sim.JobSpec{Graph: g, Release: release})
			continue
		}
		phases := make([]profile.Phase, 1+rng.Intn(3))
		for p := range phases {
			tasks := make([]int, k)
			tasks[rng.Intn(k)] = 1 + rng.Intn(200)
			phases[p] = profile.Phase{Tasks: tasks}
		}
		specs = append(specs, sim.JobSpec{Source: profile.MustNew(k, "p", phases), Release: release})
	}
	return specs
}

// TestQuickMoldableStepNEquivalence is the PR's central soundness
// property: a pure-moldable engine driven by StepN (hold-leaps enabled)
// is bit-identical — results, clock, executed totals — to one driven one
// Step at a time (which can never leap), across random workloads, caps
// and pick policies.
func TestQuickMoldableStepNEquivalence(t *testing.T) {
	picks := []dag.PickPolicy{dag.PickFIFO, dag.PickLIFO, dag.PickRandom, dag.PickCPFirst, dag.PickCPLast}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		caps := make([]int, k)
		for i := range caps {
			caps[i] = 1 + rng.Intn(12)
		}
		pick := picks[rng.Intn(len(picks))]
		specs := moldable.Generate(moldable.GenOpts{
			K: k, Jobs: 1 + rng.Intn(8), MinTasks: 1, MaxTasks: 12,
			MaxWork: 100, MaxProcs: 10, MaxArrival: 25, Seed: seed,
		})
		bulk := admitAll(t, moldCfg(k, caps, pick, seed, false), specs)
		single := admitAll(t, moldCfg(k, caps, pick, seed, false), specs)
		if err := drain(bulk); err != nil {
			t.Logf("seed %d: bulk: %v", seed, err)
			return false
		}
		for single.Remaining() > 0 {
			if _, err := single.Step(); err != nil {
				t.Logf("seed %d: single: %v", seed, err)
				return false
			}
		}
		if !reflect.DeepEqual(bulk.Result(), single.Result()) {
			t.Logf("seed %d (pick %v): results diverged", seed, pick)
			return false
		}
		sb, ss := bulk.Snapshot(), single.Snapshot()
		if sb.Now != ss.Now || !reflect.DeepEqual(sb.ExecutedTotal, ss.ExecutedTotal) {
			t.Logf("seed %d (pick %v): snapshots diverged", seed, pick)
			return false
		}
		if ss.LeapSteps != 0 {
			t.Logf("seed %d: single-step engine recorded %d leap steps", seed, ss.LeapSteps)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMixedFamilyEquivalence runs all three families — profile, DAG
// and moldable, duration graphs included — through one engine step loop and
// checks leap-on
// against leap-off (NoLeap) bit-identically, plus chunk invariance on the
// leap-on side (random StepN budgets vs one big drain). The seeds also vary
// what moves slots in the engine's table: admission out of release order
// (releases insert below the highest active ID), cancels of whatever is
// active at a random clock, and Speed 2 (several micro-rounds per
// allotment) — with the slot oracle comparing the table to fresh runtime
// reads on every round of every engine.
func TestQuickMixedFamilyEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		caps := make([]int, k)
		for i := range caps {
			caps[i] = 1 + rng.Intn(16)
		}
		specs := mixedFamilySpecs(rng, k, 2+rng.Intn(8))
		admit := admitAll
		if rng.Intn(2) == 0 {
			admit = admitInOrder
		}
		speed := 0
		if rng.Intn(4) == 0 {
			speed = 2
		}
		mk := func(noLeap bool) *sim.Engine {
			cfg := moldCfg(k, caps, dag.PickFIFO, seed, noLeap)
			cfg.Speed = speed
			return admit(t, cfg, specs)
		}
		engines := []*sim.Engine{mk(false), mk(true), mk(false)}
		on, off, chunked := engines[0], engines[1], engines[2]

		// Cancel up to two jobs at random clocks, the same on every engine.
		for c := rng.Intn(3); c > 0; c-- {
			at, id := rng.Int63n(50), rng.Intn(len(specs))
			var first error
			for i, eng := range engines {
				if err := advanceTo(eng, at); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				err := eng.Cancel(id)
				if i == 0 {
					first = err
				} else if (err == nil) != (first == nil) {
					t.Logf("seed %d: cancel(%d) at %d diverged: %v vs %v", seed, id, at, first, err)
					return false
				}
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
		for chunked.Remaining() > 0 {
			if _, err := chunked.StepN(1 + rng.Int63n(9)); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		ron, roff, rch := on.Result(), off.Result(), chunked.Result()
		if !reflect.DeepEqual(ron, roff) {
			t.Logf("seed %d: leap-on vs leap-off diverged", seed)
			return false
		}
		if !reflect.DeepEqual(ron, rch) {
			t.Logf("seed %d: chunked results diverged", seed)
			return false
		}
		son, soff := on.Snapshot(), off.Snapshot()
		return son.Now == soff.Now && reflect.DeepEqual(son.ExecutedTotal, soff.ExecutedTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMoldableHoldLeapActuallyFires guards the hold-law fast path: chain
// jobs with long non-preemptive leases spend almost all their steps held,
// and the engine must cover those phases via leaps rather than re-running
// the scheduler every step. It also pins the blocked-reason accounting:
// the only refusals on this workload are Hold refusals (start boundaries
// where an unheld moldable job blocks the window).
func TestMoldableHoldLeapActuallyFires(t *testing.T) {
	var specs []sim.JobSpec
	for j := 0; j < 4; j++ {
		spec := chainSpec(2, 1+j%2, 6, 4000, 4)
		src, err := moldable.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sim.JobSpec{Source: src})
	}
	eng := admitAll(t, moldCfg(2, []int{8, 8}, dag.PickFIFO, 1, false), specs)
	if err := drain(eng); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.LeapSteps == 0 {
		t.Fatal("no event-leaps fired on an all-held moldable workload")
	}
	if ratio := float64(snap.LeapSteps) / float64(snap.Now); ratio < 0.9 {
		t.Fatalf("leaps covered only %.1f%% of %d steps; want ≥ 90%%", ratio*100, snap.Now)
	}
	b := snap.LeapBlocked
	if b.Hold == 0 {
		t.Error("no hold refusals recorded; start boundaries should block the window")
	}
	if b.NoLeap != 0 || b.Speed != 0 || b.Observer != 0 || b.Trace != 0 || b.Floors != 0 || b.Runtime != 0 {
		t.Errorf("unexpected blocked reasons on a clean moldable workload: %+v", b)
	}
	// Every job must report its family through the status API.
	for id := range specs {
		st, ok := eng.Job(id)
		if !ok || st.Family != sim.FamilyMoldable {
			t.Fatalf("job %d family = %v, want moldable", id, st.Family)
		}
	}
}

// TestTimedGraphLeapsUnderHoldLaw: a duration graph is a moldable job, so
// its in-flight 400-step tasks are held phases the engine leaps across —
// any refusal it causes counts under Hold, never Floors — and the run ends
// at the same clock and completions as single-stepping.
func TestTimedGraphLeapsUnderHoldLaw(t *testing.T) {
	g := dag.New(1)
	u, v := g.AddTask(1), g.AddTask(1)
	g.MustEdge(u, v)
	g.SetDuration(u, 400)
	g.SetDuration(v, 400)
	job, err := moldable.FromTimedGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	specs := []sim.JobSpec{
		{Source: job},
		{Source: profile.MustNew(1, "p", []profile.Phase{{Tasks: []int{3000}}})},
	}
	cfg := moldCfg(1, []int{8}, dag.PickFIFO, 1, false)
	eng, single := admitAll(t, cfg, specs), admitAll(t, cfg, specs)
	if err := drain(eng); err != nil {
		t.Fatal(err)
	}
	for single.Remaining() > 0 {
		if _, err := single.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Snapshot()
	if snap.LeapSteps == 0 {
		t.Errorf("no event-leaps across 800 held steps: %+v", snap.LeapBlocked)
	}
	if snap.LeapBlocked.Floors != 0 {
		t.Errorf("duration graph refused under Floors, want the hold law: %+v", snap.LeapBlocked)
	}
	if snap.Now != single.Snapshot().Now || !reflect.DeepEqual(eng.Result().Jobs, single.Result().Jobs) {
		t.Errorf("leaping run ends at %d with %+v, single-stepping at %d with %+v",
			snap.Now, eng.Result().Jobs, single.Snapshot().Now, single.Result().Jobs)
	}
}

// TestMoldableStepAllocsZero pins the held-phase single-step path — floor
// projection in WithFloors, the hold detection scan, lease countdown — at
// zero steady-state allocations, the moldable analogue of sim's
// TestEngineStepAllocsZero.
func TestMoldableStepAllocsZero(t *testing.T) {
	var specs []sim.JobSpec
	for j := 0; j < 4; j++ {
		src, err := moldable.FromSpec(chainSpec(2, 1+j%2, 2, 1<<22, 4))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sim.JobSpec{Source: src})
	}
	cfg := moldCfg(2, []int{8, 8}, dag.PickFIFO, 1, true)
	cfg.Trace = sim.TraceNone
	cfg.ValidateAllotments = false
	cfg.MaxSteps = 1 << 40
	eng := admitAll(t, cfg, specs)
	eng.CheckSlots(nil) // the oracle allocates; this test counts allocations
	for i := 0; i < 8; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state moldable Engine.Step allocates %.1f per call; want 0", avg)
	}
}

// TestMoldableStepNLeapAllocsZero pins the hold-leap round itself —
// HoldFor scan, LeapTotals with floors, LeapHold countdown — at zero
// steady-state allocations.
func TestMoldableStepNLeapAllocsZero(t *testing.T) {
	var specs []sim.JobSpec
	for j := 0; j < 4; j++ {
		src, err := moldable.FromSpec(chainSpec(2, 1+j%2, 2, 1<<22, 4))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sim.JobSpec{Source: src})
	}
	cfg := moldCfg(2, []int{8, 8}, dag.PickFIFO, 1, false)
	cfg.Trace = sim.TraceNone
	cfg.ValidateAllotments = false
	cfg.MaxSteps = 1 << 40
	eng := admitAll(t, cfg, specs)
	eng.CheckSlots(nil) // the oracle allocates; this test counts allocations
	for i := 0; i < 8; i++ {
		if _, err := eng.StepN(64); err != nil {
			t.Fatal(err)
		}
	}
	var leaps int64
	if avg := testing.AllocsPerRun(100, func() {
		info, err := eng.StepN(64)
		if err != nil {
			t.Fatal(err)
		}
		leaps += info.LeapSteps
	}); avg != 0 {
		t.Fatalf("steady-state moldable Engine.StepN allocates %.1f per call; want 0", avg)
	}
	if leaps == 0 {
		t.Fatal("StepN(64) rounds never leaped on long moldable leases; the test is not exercising the hold-leap path")
	}
}

// TestMoldableCompetitiveRatio checks the execution against the
// list-scheduling envelope of arXiv 2106.07059 / 2509.01811: with the
// ½-efficiency molding rule, the makespan of a batch workload stays
// within a small constant of the area and critical-path lower bounds.
// The asserted constant is generous (the per-category bound is
// 2·Σ work/caps + 2·span-shaped); a regression that breaks molding or
// floor-respecting execution overshoots it immediately.
func TestMoldableCompetitiveRatio(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		caps := []int{6, 9, 4}
		specs := moldable.Generate(moldable.GenOpts{
			K: 3, Jobs: 24, MinTasks: 4, MaxTasks: 20,
			MaxWork: 48, MaxProcs: 12, Seed: seed,
		})
		eng := admitAll(t, moldCfg(3, caps, dag.PickCPFirst, seed, false), specs)
		if err := drain(eng); err != nil {
			t.Fatal(err)
		}
		res := eng.Result()
		var lb, maxSpan int64
		var area float64
		for _, s := range specs {
			if sp := int64(s.Source.Span()); sp > maxSpan {
				maxSpan = sp
			}
		}
		work := make([]int64, 3)
		for _, s := range specs {
			for a, w := range s.Source.WorkVector() {
				work[a] += int64(w)
			}
		}
		for a, w := range work {
			area += float64(w) / float64(caps[a])
			if v := (w + int64(caps[a]) - 1) / int64(caps[a]); v > lb {
				lb = v
			}
		}
		if maxSpan > lb {
			lb = maxSpan
		}
		if res.Makespan < lb {
			t.Fatalf("seed %d: makespan %d below the lower bound %d — accounting is broken", seed, res.Makespan, lb)
		}
		ub := 2*area + 2*float64(maxSpan) + 8
		if float64(res.Makespan) > ub {
			t.Fatalf("seed %d: makespan %d exceeds the list-scheduling envelope %.1f (area %.1f, span %d)",
				seed, res.Makespan, ub, area, maxSpan)
		}
	}
}
