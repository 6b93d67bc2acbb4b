package workload

import (
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sim"
)

func TestPresetNamesSorted(t *testing.T) {
	names := PresetNames()
	if len(names) < 5 {
		t.Fatalf("only %d presets: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("not sorted: %v", names)
		}
	}
}

func TestFindPresetUnknown(t *testing.T) {
	if _, err := FindPreset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestAllPresetsBuildValidSpecs(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := FindPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Description == "" || p.K < 1 || len(p.Caps) != p.K {
			t.Errorf("%s: malformed metadata %+v", name, p)
		}
		specs, err := p.Build(1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(specs) == 0 {
			t.Errorf("%s: empty job set", name)
		}
		for i, s := range specs {
			if s.Graph == nil {
				t.Fatalf("%s: job %d has no graph", name, i)
			}
			if err := s.Graph.Validate(); err != nil {
				t.Errorf("%s job %d: %v", name, i, err)
			}
			if s.Graph.K() != p.K {
				t.Errorf("%s job %d: K mismatch", name, i)
			}
		}
		// Every preset is something kradsim -preset NAME -gantt can draw,
		// under the default pick policy and the one "adversarial" asks for:
		// it runs on its own machine with tasks recorded, the schedule passes
		// the independent Section 2 re-check, and the chart is not empty.
		for _, pick := range []dag.PickPolicy{dag.PickFIFO, dag.PickCPLast} {
			res, err := sim.Run(sim.Config{
				K: p.K, Caps: p.Caps, Scheduler: core.NewKRAD(p.K), Pick: pick,
				Trace: sim.TraceTasks, ValidateAllotments: true,
			}, specs)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if err := sim.ValidateSchedule(specs, res); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if res.Trace.Gantt(len(res.Jobs), 80) == "" {
				t.Errorf("%s: empty gantt", name)
			}
		}
	}
}

func TestPresetsDeterministic(t *testing.T) {
	p, err := FindPreset("io-server")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Build(7)
	b, _ := p.Build(7)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Release != b[i].Release || a[i].Graph.NumTasks() != b[i].Graph.NumTasks() {
			t.Fatalf("job %d differs for identical seed", i)
		}
	}
}
