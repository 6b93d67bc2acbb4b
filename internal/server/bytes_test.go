//go:build !race

// Race instrumentation changes allocation sizes, so this ceiling runs only
// in non-race builds.

package server

import (
	"runtime"
	"testing"

	"krad/internal/sim"
)

// TestIDIndexBytes pins what the job-status index keeps per job at K=2:
// one 41-byte status record in its stripe's table, whatever the job's
// phase.
func TestIDIndexBytes(t *testing.T) {
	const n = 200_000
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	tab := newIDTable(2)
	work := []int{3, 1}
	for id := 0; id < n; id++ {
		tab.put(id, sim.JobStatus{Release: int64(id), Phase: sim.JobPending, Family: sim.FamilyProfile, Work: work, Span: 2})
		if id%3 == 0 {
			tab.setPhase(id, sim.JobDone, int64(id+5))
		}
	}
	per := float64(heap()-before) / n
	runtime.KeepAlive(tab)
	t.Logf("%.1f B per indexed job", per)
	if per > 56 {
		t.Errorf("index keeps %.1f B per job, want ≤ 56", per)
	}
}
