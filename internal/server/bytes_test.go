//go:build !race

// Race instrumentation changes allocation sizes, so this ceiling runs only
// in non-race builds.

package server

import (
	"fmt"
	"runtime"
	"testing"

	"krad/internal/profile"
	"krad/internal/sim"
)

// TestIDIndexBytes pins what a shard keeps per finished job at K=2: a
// journal-free one-shard service that has run 200k rigid jobs to
// completion keeps one 41-byte status record each, in its engine, which
// is also the index status queries read. Config.RetireDone is ignored, so
// it keeps the same either way.
func TestIDIndexBytes(t *testing.T) {
	const n = 200_000
	for _, retire := range []bool{false, true} {
		t.Run(fmt.Sprintf("retire=%v", retire), func(t *testing.T) {
			before := heapAfterGC()
			cfg := testConfig(2, 64, 64)
			cfg.MaxInFlight = 1 << 20
			cfg.RetireDone = retire
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			specs := []sim.JobSpec{
				{Source: profile.MustNewRigid(2, "a", 1, 2, 3)},
				{Source: profile.MustNewRigid(2, "b", 2, 1, 2)},
			}
			batch := make([]sim.JobSpec, 32)
			for admitted := 0; admitted < n; admitted += len(batch) {
				for i := range batch {
					batch[i] = specs[i%2]
				}
				if _, err := svc.SubmitBatchTenant("", "", batch); err != nil {
					t.Fatal(err)
				}
				if _, err := svc.StepAll(4); err != nil {
					t.Fatal(err)
				}
			}
			for {
				did, err := svc.StepAll(64)
				if err != nil {
					t.Fatal(err)
				}
				if did == 0 {
					break
				}
			}
			if st := svc.Stats(); st.Completed != n {
				t.Fatalf("%d of %d jobs completed", st.Completed, n)
			}
			per := float64(heapAfterGC()-before) / n
			runtime.KeepAlive(svc)
			t.Logf("%.1f B per finished job", per)
			if per > 56 {
				t.Errorf("shard keeps %.1f B per finished job, want ≤ 56", per)
			}
		})
	}
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
