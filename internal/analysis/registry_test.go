package analysis

import (
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
	"krad/internal/workload"
)

func TestNewSchedulerKnownNames(t *testing.T) {
	for _, name := range SchedulerNames() {
		s, err := NewScheduler(name, 2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
	}
}

func TestNewSchedulerUnknown(t *testing.T) {
	if _, err := NewScheduler("nope", 2); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestSchedulerNamesSortedAndComplete(t *testing.T) {
	names := SchedulerNames()
	if len(names) < 8 {
		t.Errorf("only %d schedulers registered: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
	want := map[string]bool{"k-rad": true, "laps": true, "gang": true, "sjf-oracle": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing schedulers: %v", want)
	}
}

// TestEverySchedulerRunsMixedFamilies runs every registered scheduler, as
// the registry builds it, on kradsim's `-family mixed -jobs 30` set (seed 1,
// caps 4,4,4): K-DAGs, profile jobs and moldable jobs whose started tasks pin
// processors, with allotment validation on. The engine grants the floors, so
// no scheduler needs a wrapper, and the clairvoyant one keeps its oracle.
// The makespans are the ones each scheduler gave when it had to be wrapped
// in a floor layer; sjf-oracle, which that layer hid from its oracle, could
// not run then.
func TestEverySchedulerRunsMixedFamilies(t *testing.T) {
	const k = 3
	dags, err := workload.Mix{K: k, Jobs: 10, MinSize: 4, MaxSize: 60, Seed: 1}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	profs, err := profile.Generate(profile.GenOpts{K: k, Jobs: 10, MinPhases: 2, MaxPhases: 8, MaxParallelism: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	molds := moldable.Generate(moldable.GenOpts{K: k, Jobs: 10, MinTasks: 4, MaxTasks: 60, Seed: 3})
	specs := append(append(dags, profs...), molds...)
	want := map[string]int64{
		"deq-only": 716, "equi": 677, "fcfs": 767, "gang": 1120, "greedy-desire": 775,
		"k-rad": 676, "k-rad-random": 673, "laps": 665, "rr-only": 775, "sjf-oracle": 763,
	}
	for _, name := range SchedulerNames() {
		res, err := sim.Run(sim.Config{
			K: k, Caps: []int{4, 4, 4}, Scheduler: mustScheduler(name, k),
			Pick: dag.PickFIFO, Seed: 1, ValidateAllotments: true,
		}, specs)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Makespan != want[name] {
			t.Errorf("%s: makespan %d, want %d", name, res.Makespan, want[name])
		}
	}
}
