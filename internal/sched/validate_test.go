package sched_test

import (
	"slices"
	"testing"

	"krad/internal/sched"
)

// TestValidateAllotmentsAllocsZero: the engine validates every round, so the
// validator's column sums must not cost an allocation for ordinary K.
func TestValidateAllotmentsAllocsZero(t *testing.T) {
	jobs := []sched.JobView{{ID: 0, Desire: []int{2, 1, 0}}, {ID: 1, Desire: []int{1, 4, 2}}}
	caps, allot := []int{3, 4, 2}, [][]int{{2, 1, 0}, {1, 3, 2}}
	if avg := testing.AllocsPerRun(100, func() {
		if err := sched.ValidateAllotments(jobs, caps, allot); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ValidateAllotments allocates %.1f per call; want 0", avg)
	}
	wide := make([]int, 40) // beyond the stack buffer: still checked, on the heap
	for a := range wide {
		wide[a] = 1
	}
	if err := sched.ValidateAllotments([]sched.JobView{{ID: 0, Desire: wide}}, wide, [][]int{wide}); err != nil {
		t.Fatal(err)
	}
	over := slices.Clone(wide)
	over[39] = 2
	if err := sched.ValidateAllotments([]sched.JobView{{ID: 0, Desire: over}}, wide, [][]int{over}); err == nil {
		t.Fatal("category 40 over capacity accepted")
	}
}
