package moldable_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/sim"
)

// FuzzMoldableSpec drives arbitrary JSON through the wire-decoding path
// kradd and the journal share: decode, validate with FromSpec, and for
// every accepted spec check the canonical-form invariants — Spec()
// round-trips through FromSpec to an equal spec, derived quantities agree,
// and a small engine run completes without panicking. FromSpec must reject
// or accept, never crash.
func FuzzMoldableSpec(f *testing.F) {
	seed := func(s moldable.Spec) {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(moldable.Spec{K: 1, Tasks: []moldable.TaskSpec{
		{Cat: 1, Work: 4, Max: 2, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 0.5}},
	}})
	seed(moldable.Spec{K: 2, Name: "fz", Tasks: []moldable.TaskSpec{
		{Cat: 1, Work: 9, Max: 4, Curve: moldable.CurveSpec{Type: moldable.CurveAmdahl, Serial: 0.25}},
		{Cat: 2, Work: 3, Max: 1, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 1}},
	}, Edges: [][2]int{{0, 1}}})
	f.Add([]byte(`{"k":1,"tasks":[{"cat":1,"work":1,"max":1,"curve":{"type":"amdahl"}}]}`))
	f.Add([]byte(`{"k":0}`))
	f.Add([]byte(`{"k":1,"tasks":[{"cat":1,"work":1,"max":1,"curve":{"type":"powerlaw","alpha":2}}],"edges":[[0,0]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec moldable.Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		// Keep pathological-but-valid inputs cheap to execute.
		if len(spec.Tasks) > 64 || len(spec.Edges) > 256 {
			return
		}
		total := 0
		for _, ts := range spec.Tasks {
			if ts.Work > 1<<16 || ts.Max > 1<<10 {
				return
			}
			total += ts.Work
		}
		if total > 1<<18 {
			return
		}
		job, err := moldable.FromSpec(spec)
		if err != nil {
			return
		}
		rt := job.Spec()
		job2, err := moldable.FromSpec(rt)
		if err != nil {
			t.Fatalf("canonical spec rejected on re-validation: %v", err)
		}
		if !reflect.DeepEqual(rt, job2.Spec()) {
			t.Fatal("Spec() is not a fixed point of FromSpec")
		}
		if job.Span() != job2.Span() || job.TotalTasks() != job2.TotalTasks() ||
			!reflect.DeepEqual(job.WorkVector(), job2.WorkVector()) {
			t.Fatal("round-tripped job derived quantities diverged")
		}
		caps := make([]int, job.K())
		for i := range caps {
			caps[i] = 3
		}
		res, err := sim.Run(sim.Config{
			K: job.K(), Caps: caps,
			Scheduler:          core.NewKRAD(job.K()),
			Pick:               dag.PickFIFO,
			ValidateAllotments: true,
		}, []sim.JobSpec{{Source: job}})
		if err != nil {
			t.Fatalf("engine run on a validated spec failed: %v", err)
		}
		if res.Makespan < int64(job.Span()) {
			// Span is an optimistic critical path; ValidateAllotments plus
			// this check catch accounting bugs the fuzzer digs up.
			t.Fatalf("makespan %d below span %d", res.Makespan, job.Span())
		}
	})
}
