package dag

import (
	"testing"
)

func TestNewAdversarialValidation(t *testing.T) {
	cases := []struct {
		k, m int
		p    []int
	}{
		{1, 1, []int{4}},       // K too small
		{2, 0, []int{2, 2}},    // m too small
		{2, 1, []int{2}},       // wrong cap count
		{2, 1, []int{2, 0}},    // zero processors
		{3, 1, []int{8, 2, 4}}, // P1 > PK violates PK = Pmax
	}
	for _, c := range cases {
		if _, err := NewAdversarial(c.k, c.m, c.p); err == nil {
			t.Errorf("NewAdversarial(%d,%d,%v) accepted", c.k, c.m, c.p)
		}
	}
}

func TestAdversarialStructure(t *testing.T) {
	for _, c := range []struct{ k, m, p int }{
		{2, 2, 3}, {3, 2, 4}, {4, 1, 2}, {5, 3, 2},
	} {
		p := make([]int, c.k)
		for i := range p {
			p[i] = c.p
		}
		adv, err := NewAdversarial(c.k, c.m, p)
		if err != nil {
			t.Fatalf("K=%d m=%d: %v", c.k, c.m, err)
		}
		g := adv.BigJob
		if err := g.Validate(); err != nil {
			t.Fatalf("K=%d m=%d: big job invalid: %v", c.k, c.m, err)
		}
		// Span must be exactly K + m·PK − 1 (paper, Section 4).
		want := c.k + c.m*c.p - 1
		if g.Span() != want {
			t.Errorf("K=%d m=%d: span %d, want %d", c.k, c.m, g.Span(), want)
		}
		// Work per middle level α: m·Pα·PK.
		for a := 2; a <= c.k-1; a++ {
			if got := g.Work(Category(a)); got != c.m*c.p*c.p {
				t.Errorf("K=%d m=%d: level %d work %d, want %d", c.k, c.m, a, got, c.m*c.p*c.p)
			}
		}
		// Level K: mass + chain = m·PK(PK−1)+1 + m·PK−1 = m·PK².
		if got := g.Work(Category(c.k)); got != c.m*c.p*c.p {
			t.Errorf("K=%d m=%d: level K work %d, want %d", c.k, c.m, got, c.m*c.p*c.p)
		}
		// Job count n = m·P1·PK.
		if adv.NumJobs() != c.m*c.p*c.p {
			t.Errorf("K=%d m=%d: %d jobs, want %d", c.k, c.m, adv.NumJobs(), c.m*c.p*c.p)
		}
	}
}

func TestAdversarialClosedForms(t *testing.T) {
	adv, err := NewAdversarial(3, 4, []int{2, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := adv.OptimalMakespan(), 3+4*4-1; got != want {
		t.Errorf("OptimalMakespan = %d, want %d", got, want)
	}
	if got, want := adv.WorstCaseMakespan(), 4*3*4+4*4-4; got != want {
		t.Errorf("WorstCaseMakespan = %d, want %d", got, want)
	}
	if got, want := adv.LimitRatio(), 3.0+1-1.0/4; got != want {
		t.Errorf("LimitRatio = %v, want %v", got, want)
	}
	if adv.FiniteRatio() >= adv.LimitRatio() {
		t.Errorf("finite ratio %v should approach limit %v from below", adv.FiniteRatio(), adv.LimitRatio())
	}
}

func TestAdversarialFiniteRatioConverges(t *testing.T) {
	var prev float64
	for _, m := range []int{1, 2, 4, 8, 16} {
		adv, err := NewAdversarial(3, m, []int{2, 2, 4})
		if err != nil {
			t.Fatal(err)
		}
		r := adv.FiniteRatio()
		if r <= prev {
			t.Errorf("m=%d: ratio %v not increasing (prev %v)", m, r, prev)
		}
		prev = r
	}
	// At m=16 the ratio should be within 5% of the limit.
	adv, _ := NewAdversarial(3, 16, []int{2, 2, 4})
	if adv.LimitRatio()-adv.FiniteRatio() > 0.05*adv.LimitRatio() {
		t.Errorf("m=16 ratio %v too far from limit %v", adv.FiniteRatio(), adv.LimitRatio())
	}
}

func TestAdversarialJobSetOrder(t *testing.T) {
	adv, err := NewAdversarial(2, 1, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	last := adv.JobSet(true)
	if len(last) != adv.NumJobs() {
		t.Fatalf("JobSet size %d, want %d", len(last), adv.NumJobs())
	}
	if last[len(last)-1] != adv.BigJob {
		t.Error("bigJobLast=true did not place big job last")
	}
	first := adv.JobSet(false)
	if first[0] != adv.BigJob {
		t.Error("bigJobLast=false did not place big job first")
	}
	for _, g := range last[:len(last)-1] {
		if g.NumTasks() != 1 || g.Category(0) != 1 {
			t.Fatal("singleton malformed")
		}
	}
}
