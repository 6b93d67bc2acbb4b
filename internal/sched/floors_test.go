package sched

import (
	"testing"
)

// TestWithFloorsIdentityWithoutFloors: the deprecated wrapper hands its
// scheduler back, capabilities and name included — the engine grants floors.
func TestWithFloorsIdentityWithoutFloors(t *testing.T) {
	inner := &countingSched{}
	f := WithFloors(inner)
	if f != Scheduler(inner) {
		t.Fatalf("WithFloors wrapped its scheduler: %T", f)
	}
	if f.Name() != "counting" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestWithFloorsForwardsCompletions(t *testing.T) {
	inner := &countingSched{}
	f := WithFloors(inner)
	f.(Completer).JobsDone([]int{7})
	if len(inner.done) != 1 {
		t.Error("completions not forwarded")
	}
}

func TestValidateAllotmentsChecksFloors(t *testing.T) {
	jobs := []JobView{{ID: 0, Desire: []int{4}, Floor: []int{2}}}
	caps := []int{4}
	if err := ValidateAllotments(jobs, caps, [][]int{{1}}); err == nil {
		t.Error("allotment below floor accepted")
	}
	if err := ValidateAllotments(jobs, caps, [][]int{{2}}); err != nil {
		t.Errorf("floor-meeting allotment rejected: %v", err)
	}
}
