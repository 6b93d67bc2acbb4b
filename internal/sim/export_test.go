package sim

import (
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
)

// DisableRecycling makes e park no released runtime and recycle no ended
// job's state, so every admission mints both afresh: the reference the
// recycling tests compare against.
func (e *Engine) DisableRecycling() { e.noRecycle = true }

// SlotIDs returns the job ID in each slot of e's slot table, -1 for a hole.
func (e *Engine) SlotIDs() []int {
	ids := make([]int, len(e.active))
	for i, j := range e.active {
		ids[i] = -1
		if j != nil {
			ids[i] = j.id
		}
	}
	return ids
}

// ParkedRuntimes returns the runtimes e holds for reuse.
func (e *Engine) ParkedRuntimes() []RuntimeJob {
	var out []RuntimeJob
	for _, pool := range e.parked {
		for _, rt := range pool {
			out = append(out, rt)
		}
	}
	return out
}

// FreeStates returns how many ended jobs' states e holds for reuse.
func (e *Engine) FreeStates() int { return len(e.free) }

// StatusTable is the engine's status table, for tests of it alone.
type StatusTable = statusTable

// NewStatusTable returns an empty table for K categories.
func NewStatusTable(k int) *StatusTable { return &statusTable{k: k} }

// Load is the concurrent reader's Get (Engine.ReadJob).
func (t *StatusTable) Load(i int, work []int) (JobStatus, bool) { return t.load(i, work) }

// Pages returns how many of t's pages are allocated.
func (t *StatusTable) Pages() int {
	n := 0
	if d := t.dir.Load(); d != nil {
		for i := range d.pages {
			if d.pages[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// TerminalHolding returns the IDs of ended jobs whose recycled state still
// holds a runtime, a capability or a spec.
func (e *Engine) TerminalHolding() []int {
	var ids []int
	for _, js := range e.free {
		if js.rt != nil || js.caps != (runtimeCaps{}) || js.spec.Graph != nil || js.spec.Source != nil {
			ids = append(ids, js.id)
		}
	}
	return ids
}

func TestResultJSONRoundTrip(t *testing.T) {
	specs := []JobSpec{
		{Graph: dag.ForkJoin(2, 4, 1, 2, 1)},
		{Graph: dag.RoundRobinChain(2, 5), Release: 2},
	}
	res, err := Run(Config{
		K: 2, Caps: []int{2, 2}, Scheduler: core.NewKRAD(2), ValidateAllotments: true,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Scheduler != res.Scheduler || back.Makespan != res.Makespan {
		t.Errorf("header fields changed: %+v", back)
	}
	if back.TotalResponse() != res.TotalResponse() {
		t.Errorf("responses changed: %d vs %d", back.TotalResponse(), res.TotalResponse())
	}
	if len(back.Jobs) != len(res.Jobs) {
		t.Fatalf("job count changed")
	}
	for i := range res.Jobs {
		if back.Jobs[i].Completion != res.Jobs[i].Completion ||
			back.Jobs[i].Span != res.Jobs[i].Span {
			t.Errorf("job %d changed: %+v vs %+v", i, back.Jobs[i], res.Jobs[i])
		}
	}
	// Derived metrics recompute identically.
	aw, bw := res.TotalWork(), back.TotalWork()
	for a := range aw {
		if aw[a] != bw[a] {
			t.Errorf("work changed in category %d", a+1)
		}
	}
}

func TestReadResultJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadResultJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}
