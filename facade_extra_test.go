package krad_test

import (
	"strings"
	"testing"

	"krad"
)

// TestProfileJobsThroughFacade drives the compact representation and its
// generator through the public API.
func TestProfileJobsThroughFacade(t *testing.T) {
	job, err := krad.NewProfileJob(2, "web", []krad.ProfilePhase{
		{Tasks: []int{4, 0}},
		{Tasks: []int{0, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := krad.Run(krad.Config{
		K: 2, Caps: []int{4, 4}, Scheduler: krad.NewKRAD(2), ValidateAllotments: true,
	}, []krad.JobSpec{{Source: job}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2 {
		t.Errorf("makespan %d, want 2 (two satisfied phases)", res.Makespan)
	}
}

// TestSWFThroughFacade writes a synthetic log and replays it.
func TestSWFThroughFacade(t *testing.T) {
	var b strings.Builder
	if err := krad.WriteSyntheticSWF(&b, 25, 3); err != nil {
		t.Fatal(err)
	}
	specs, recs, err := krad.ParseSWF(strings.NewReader(b.String()), krad.SWFOptions{
		K: 2, TimeScale: 300, MaxProcs: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 {
		t.Fatalf("%d records", len(recs))
	}
	res, err := krad.Run(krad.Config{
		K: 2, Caps: []int{8, 8}, Scheduler: krad.NewKRAD(2), ValidateAllotments: true,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if bc := krad.CheckTheorem3(res); !bc.OK {
		t.Errorf("Theorem 3 failed on SWF replay: %v", bc)
	}
}

// TestNonPreemptiveThroughFacade runs duration-annotated jobs with floors.
func TestNonPreemptiveThroughFacade(t *testing.T) {
	g := krad.ForkJoin(1, 4, 1, 1, 1)
	for id := 0; id < g.NumTasks(); id++ {
		g.SetDuration(krad.TaskID(id), 3)
	}
	res, err := krad.Run(krad.Config{
		K: 1, Caps: []int{2},
		Scheduler:          krad.NewKRAD(1),
		ValidateAllotments: true,
	}, []krad.JobSpec{{Source: krad.TimedGraphSource(g)}})
	if err != nil {
		t.Fatal(err)
	}
	// Work 18 on 2 procs, weighted span 9: fork(3) + bodies(3·4/2 = 6) +
	// join(3) = 12 steps.
	if res.Makespan != 12 {
		t.Errorf("makespan %d, want 12", res.Makespan)
	}
	// Preemptive expansion of the same graph gives the same makespan here
	// (migration-free workload).
	exp := krad.ExpandDurations(g)
	res2, err := krad.Run(krad.Config{
		K: 1, Caps: []int{2}, Scheduler: krad.NewKRAD(1), ValidateAllotments: true,
	}, []krad.JobSpec{{Graph: exp}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != res.Makespan {
		t.Errorf("preemptive %d vs non-preemptive %d", res2.Makespan, res.Makespan)
	}
}

// TestChurnObserverThroughFacade wires the churn counter into a run.
func TestChurnObserverThroughFacade(t *testing.T) {
	specs, err := krad.Mix{K: 2, Jobs: 10, MinSize: 3, MaxSize: 20, Seed: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	churn := krad.NewChurn(2)
	_, err = krad.Run(krad.Config{
		K: 2, Caps: []int{3, 3}, Scheduler: krad.NewKRAD(2),
		Observer: churn.Observer(),
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if churn.Steps == 0 || churn.Total == 0 {
		t.Errorf("churn not recorded: %+v", churn)
	}
}

// TestPresetsThroughFacade runs a named preset end to end.
func TestPresetsThroughFacade(t *testing.T) {
	if len(krad.PresetNames()) < 5 {
		t.Fatal("presets missing")
	}
	p, err := krad.FindPreset("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := p.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := krad.Run(krad.Config{
		K: p.K, Caps: p.Caps, Scheduler: krad.NewKRAD(p.K), ValidateAllotments: true,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EverOverloaded() {
		t.Error("overload-storm preset did not overload")
	}
}

// TestSoakManySeeds is a broad randomized sweep kept out of -short runs:
// every seed must produce a valid schedule satisfying Theorem 3 and
// Theorem 6 across machine shapes.
func TestSoakManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for seed := int64(1); seed <= 40; seed++ {
		k := int(seed%4) + 1
		caps := make([]int, k)
		for i := range caps {
			caps[i] = int(seed%5) + 2
		}
		specs, err := krad.Mix{
			K: k, Jobs: 30, MinSize: 2, MaxSize: 50, Seed: seed,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		res, err := krad.Run(krad.Config{
			K: k, Caps: caps, Scheduler: krad.NewKRAD(k), ValidateAllotments: true,
		}, specs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if failures := krad.CheckAll(res); len(failures) != 0 {
			t.Errorf("seed %d: %v", seed, failures)
		}
	}
}
