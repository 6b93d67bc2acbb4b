//go:build !race

// Race instrumentation changes allocation sizes, so these ceilings run
// only in non-race builds.

package sim_test

import (
	"runtime"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sim"
)

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestTerminalJobBytes pins what an engine keeps per finished job: 200k
// K=2 rigid jobs, admitted in batches of 32 beside the step loop and run to
// completion. Without Retire each keeps its 41-byte status record; with
// every terminal job retired, the status pages are freed too.
func TestTerminalJobBytes(t *testing.T) {
	const n = 200_000
	for _, c := range []struct {
		retire bool
		max    float64
	}{{false, 64}, {true, 8}} {
		before := heapAfterGC()
		eng, err := sim.NewEngine(sim.Config{K: 2, Caps: []int{64, 64}, Scheduler: core.NewKRAD(2), Pick: dag.PickFIFO})
		if err != nil {
			t.Fatal(err)
		}
		specs := []sim.JobSpec{
			{Source: profile.MustNewRigid(2, "a", 1, 2, 3)},
			{Source: profile.MustNewRigid(2, "b", 2, 1, 2)},
		}
		batch := make([]sim.JobSpec, 32)
		retire := func(ids []int) {
			for _, id := range ids {
				if err := eng.Retire(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		for eng.NextID() < n || !eng.Idle() {
			if eng.NextID() < n {
				for i := range batch {
					batch[i] = specs[i%2]
					batch[i].Release = eng.Now()
				}
				if _, err := eng.AdmitBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			info, err := eng.StepN(4)
			if err != nil {
				t.Fatal(err)
			}
			if c.retire {
				retire(info.Completed)
			}
		}
		if snap := eng.Snapshot(); snap.Completed != n {
			t.Fatalf("%d of %d jobs completed", snap.Completed, n)
		}
		per := float64(heapAfterGC()-before) / n
		runtime.KeepAlive(eng)
		t.Logf("retire=%v: %.1f B per finished job", c.retire, per)
		if per > c.max {
			t.Errorf("retire=%v: engine keeps %.1f B per finished job, want ≤ %.0f", c.retire, per, c.max)
		}
	}
}
