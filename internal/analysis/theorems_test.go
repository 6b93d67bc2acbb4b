package analysis

import (
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sim"
	"krad/internal/workload"
)

func runBatchedMix(t *testing.T, k int, caps []int, n int, seed int64) *sim.Result {
	t.Helper()
	specs, err := workload.Mix{K: k, Jobs: n, MinSize: 4, MaxSize: 40, Seed: seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		K: k, Caps: caps, Scheduler: core.NewKRAD(k),
		Pick: dag.PickFIFO, ValidateAllotments: true,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckTheorem3HoldsOnRandomBatches(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res := runBatchedMix(t, 3, []int{2, 4, 8}, 20, seed)
		bc := metrics.CheckTheorem3(res)
		if !bc.OK {
			t.Errorf("seed %d: %v", seed, bc)
		}
		if bc.Measured < 1 {
			t.Errorf("seed %d: ratio %v below 1 — lower bound overshoots", seed, bc.Measured)
		}
	}
}

func TestCheckLemma2HoldsOnBatches(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res := runBatchedMix(t, 2, []int{3, 3}, 15, seed)
		if bc := metrics.CheckLemma2(res); !bc.OK {
			t.Errorf("seed %d: %v", seed, bc)
		}
	}
}

func TestCheckTheorem5And6OnLightLoad(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		res := runBatchedMix(t, 2, []int{8, 8}, 5, seed)
		if res.EverOverloaded() {
			t.Fatalf("seed %d: 5 jobs on 8+8 processors overloaded", seed)
		}
		bc, applicable := metrics.CheckTheorem5(res)
		if !applicable {
			t.Fatalf("seed %d: theorem 5 not applicable", seed)
		}
		if !bc.OK {
			t.Errorf("seed %d: %v", seed, bc)
		}
		i5, applicable := metrics.CheckInequality5(res)
		if !applicable || !i5.OK {
			t.Errorf("seed %d: %v (applicable=%v)", seed, i5, applicable)
		}
		if bc6 := metrics.CheckTheorem6(res); !bc6.OK {
			t.Errorf("seed %d: %v", seed, bc6)
		}
	}
}

func TestCheckTheorem6OnHeavyLoad(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res := runBatchedMix(t, 3, []int{2, 2, 2}, 60, seed)
		if !res.EverOverloaded() {
			t.Fatalf("seed %d: 60 jobs on 2+2+2 processors not overloaded", seed)
		}
		if bc := metrics.CheckTheorem6(res); !bc.OK {
			t.Errorf("seed %d: %v", seed, bc)
		}
	}
}

func TestCheckAllEmptyOnCompliantRuns(t *testing.T) {
	res := runBatchedMix(t, 2, []int{4, 4}, 12, 3)
	if failures := metrics.CheckAll(res); len(failures) != 0 {
		t.Errorf("unexpected failures: %v", failures)
	}
}
