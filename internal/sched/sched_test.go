package sched

import (
	"testing"
)

func TestJobViewTotalDesire(t *testing.T) {
	j := JobView{ID: 1, Desire: []int{2, 0, 3}}
	if j.TotalDesire() != 5 {
		t.Errorf("TotalDesire = %d, want 5", j.TotalDesire())
	}
}

func TestValidateAllotments(t *testing.T) {
	jobs := []JobView{
		{ID: 0, Desire: []int{2, 1}},
		{ID: 1, Desire: []int{1, 4}},
	}
	caps := []int{3, 4}
	ok := [][]int{{2, 1}, {1, 3}}
	if err := ValidateAllotments(jobs, caps, ok); err != nil {
		t.Errorf("valid allotment rejected: %v", err)
	}

	cases := []struct {
		name  string
		allot [][]int
	}{
		{"row count", [][]int{{1, 1}}},
		{"row shape", [][]int{{1}, {1, 1}}},
		{"negative", [][]int{{-1, 0}, {0, 0}}},
		{"over capacity", [][]int{{2, 0}, {2, 0}}},
	}
	for _, c := range cases {
		if err := ValidateAllotments(jobs, caps, c.allot); err == nil {
			t.Errorf("%s: accepted %v", c.name, c.allot)
		}
	}
}

// fixedCat is a trivial CategoryScheduler giving one processor to every job
// until capacity runs out; it also records completion notifications.
type fixedCat struct {
	name string
	done []int
}

func (f *fixedCat) Name() string { return f.name }

func (f *fixedCat) Allot(t int64, jobs []CatJob, p int) []int {
	out := make([]int, len(jobs))
	for i := range jobs {
		if p == 0 {
			break
		}
		out[i] = 1
		p--
	}
	return out
}

func (f *fixedCat) JobsDone(ids []int) { f.done = append(f.done, ids...) }

func TestPerCategoryProjection(t *testing.T) {
	a, b := &fixedCat{name: "a"}, &fixedCat{name: "b"}
	s := NewPerCategory("combo", []CategoryScheduler{a, b})
	if s.Name() != "combo" {
		t.Errorf("Name = %q", s.Name())
	}
	jobs := []JobView{
		{ID: 0, Desire: []int{1, 0}},
		{ID: 1, Desire: []int{0, 2}},
		{ID: 2, Desire: []int{3, 3}},
	}
	caps := []int{1, 5}
	allot := s.Allot(1, jobs, caps)
	if err := ValidateAllotments(jobs, caps, allot); err != nil {
		t.Fatal(err)
	}
	// Category 1 has capacity 1 and two active jobs (0, 2): only job 0.
	if allot[0][0] != 1 || allot[2][0] != 0 {
		t.Errorf("category 1 projection wrong: %v", allot)
	}
	// Job 1 is inactive in category 1: must get zero there.
	if allot[1][0] != 0 {
		t.Errorf("inactive job allotted: %v", allot)
	}
	// Category 2 actives (1, 2) both get one.
	if allot[1][1] != 1 || allot[2][1] != 1 {
		t.Errorf("category 2 projection wrong: %v", allot)
	}
}

func TestPerCategoryForwardsCompletions(t *testing.T) {
	a, b := &fixedCat{name: "a"}, &fixedCat{name: "b"}
	s := NewPerCategory("combo", []CategoryScheduler{a, b})
	s.JobsDone([]int{3, 4})
	if len(a.done) != 2 || len(b.done) != 2 {
		t.Errorf("completions not forwarded: %v %v", a.done, b.done)
	}
}

func TestPerCategoryPanicsOnCapsMismatch(t *testing.T) {
	s := NewPerCategory("combo", []CategoryScheduler{&fixedCat{}})
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatched caps")
		}
	}()
	s.Allot(1, nil, []int{1, 2})
}

func TestPerCategoryEmptyJobs(t *testing.T) {
	s := NewPerCategory("combo", []CategoryScheduler{&fixedCat{}})
	if got := s.Allot(1, nil, []int{3}); len(got) != 0 {
		t.Errorf("empty allot = %v", got)
	}
}
