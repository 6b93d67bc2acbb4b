package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"krad/internal/sched"
)

// TestDeqIntoAllocsZero pins the DEQ hot path at zero allocations once the
// caller-owned buffers exist.
func TestDeqIntoAllocsZero(t *testing.T) {
	const n = 64
	desires := make([]int, n)
	for i := range desires {
		desires[i] = 3 + i%17
	}
	allot := make([]int, n)
	scratch := make([]int, n)
	rot := 0
	if avg := testing.AllocsPerRun(200, func() {
		DeqInto(allot, scratch, desires, 41, rot)
		rot++
	}); avg != 0 {
		t.Fatalf("DeqInto allocates %.1f per call; want 0", avg)
	}
}

// TestRADAllotIntoAllocsZero pins RAD's steady-state AllotInto at zero
// allocations, across both the DEQ and round-robin regimes.
func TestRADAllotIntoAllocsZero(t *testing.T) {
	cases := []struct {
		name string
		p    int
	}{
		{"deq", 128},    // |jobs| ≤ p: space sharing
		{"overload", 7}, // |jobs| > p: round-robin cycles
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRAD()
			jobs := make([]sched.CatJob, 32)
			for i := range jobs {
				jobs[i] = sched.CatJob{ID: i, Desire: 1 << 20} // never complete
			}
			dst := make([]int, len(jobs))
			// Warm the scratch buffers and the mark slice.
			for s := int64(1); s <= 4; s++ {
				r.AllotInto(s, jobs, tc.p, dst)
			}
			s := int64(5)
			if avg := testing.AllocsPerRun(200, func() {
				r.AllotInto(s, jobs, tc.p, dst)
				s++
			}); avg != 0 {
				t.Fatalf("AllotInto allocates %.1f per call; want 0", avg)
			}
		})
	}
}

// TestRADLeapTotalsAllocsZero pins the closed-form leap aggregate at zero
// allocations: the engine calls it once per leap with a caller-owned dst,
// and a leap that allocates would eat the rounds it saves.
func TestRADLeapTotalsAllocsZero(t *testing.T) {
	r := NewRAD()
	jobs := make([]sched.CatJob, 24)
	for i := range jobs {
		jobs[i] = sched.CatJob{ID: i, Desire: 1 << 20}
	}
	dst := make([]int, len(jobs))
	const p = 100 // not divisible by 24: the rotating remainder is live
	for s := int64(1); s <= 4; s++ {
		r.AllotInto(s, jobs, p, dst)
	}
	s := int64(5)
	if avg := testing.AllocsPerRun(200, func() {
		for i := range dst {
			dst[i] = 0
		}
		r.LeapTotals(s, jobs, p, 64, dst)
		s += 64
	}); avg != 0 {
		t.Fatalf("LeapTotals allocates %.1f per call; want 0", avg)
	}
}

// TestRADAllotEmptyShared checks the empty-set early return shares one
// allotment slice instead of allocating per step — idle categories are the
// common case in long online runs.
func TestRADAllotEmptyShared(t *testing.T) {
	r := NewRAD()
	a := r.Allot(1, nil, 8)
	b := r.Allot(2, nil, 8)
	if len(a) != 0 || len(b) != 0 {
		t.Fatalf("empty Allot returned %v, %v; want empty", a, b)
	}
	if avg := testing.AllocsPerRun(100, func() { r.Allot(3, nil, 8) }); avg != 0 {
		t.Fatalf("empty Allot allocates %.1f per call; want 0", avg)
	}
	if h := r.StableHorizon(); h != sched.Unbounded {
		t.Fatalf("empty Allot horizon = %d; want Unbounded", h)
	}
	rr := NewRandomRAD(1)
	if got := rr.Allot(1, nil, 8); len(got) != 0 {
		t.Fatalf("RandomRAD empty Allot returned %v", got)
	}
	if h := rr.StableHorizon(); h != sched.Unbounded {
		t.Fatalf("RandomRAD empty Allot horizon = %d; want Unbounded", h)
	}
}

// TestRADRoundRobinCycleGrowsStampOnce pins the mark slice's growth: the
// round-robin steps of the first cycle over 4,096 jobs size it from the
// call's largest ID in one allocation, not one reallocation per newly
// marked ID.
func TestRADRoundRobinCycleGrowsStampOnce(t *testing.T) {
	const n, p = 4096, 48
	jobs := make([]sched.CatJob, n)
	for i := range jobs {
		jobs[i] = sched.CatJob{ID: i, Desire: 1}
	}
	dst := make([]int, n)
	warm := NewRAD()
	warm.AllotInto(1, jobs, p, dst) // sizes the dense entry's memory, which a fresh RAD pays too
	var r *RAD
	avg := testing.AllocsPerRun(5, func() {
		r = NewRAD()
		r.ids, r.grants = warm.ids[:0], warm.grants[:0]
		for s := int64(1); s <= n/p; s++ { // 85 steps mark 4,080 jobs
			r.AllotInto(s, jobs, p, dst)
		}
	})
	// The RAD itself and its stamp slice.
	if avg > 2 {
		t.Fatalf("first round-robin cycle allocates %.0f times; want 2 (was one per marked ID)", avg)
	}
	if len(r.stamp) != n || cap(r.stamp) != n {
		t.Fatalf("stamp len %d cap %d after the cycle, want exactly %d: no spare capacity", len(r.stamp), cap(r.stamp), n)
	}
}

// TestRADRestoreGrowsStampOnce pins the same for RestoreState: 4,096
// ascending marks size the stamp slice in one allocation, not one
// reallocation (and one copy of everything below) per restored ID, and the
// restored RAD snapshots back to the same bytes.
func TestRADRestoreGrowsStampOnce(t *testing.T) {
	const n = 4096
	src := NewRAD()
	for id := 0; id < n; id++ {
		src.mark(id)
	}
	data, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(5, func() {
		var st radState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	})
	var r *RAD
	avg := testing.AllocsPerRun(5, func() {
		r = NewRAD()
		if err := r.RestoreState(data); err != nil {
			t.Fatal(err)
		}
	})
	// Beyond decoding the JSON: the RAD itself and its stamp slice.
	if avg > decode+2 {
		t.Fatalf("restoring %d marks allocates %.0f times, %.0f of them decoding; want 2 more (was one per mark)", n, avg, decode)
	}
	if len(r.stamp) != n || cap(r.stamp) != n {
		t.Fatalf("stamp len %d cap %d after restore, want exactly %d: no spare capacity", len(r.stamp), cap(r.stamp), n)
	}
	again, err := r.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("snapshot bytes changed across restore")
	}
}
