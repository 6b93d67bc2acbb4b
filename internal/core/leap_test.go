package core

import (
	"testing"

	"krad/internal/sched"
)

// TestDeqLeapTotalsMatchesSequential cross-checks the closed-form window
// aggregate against literally running Deq for every step of the window and
// summing, over a grid of job counts, capacities, start times and window
// lengths — including every remainder-rotation alignment.
func TestDeqLeapTotalsMatchesSequential(t *testing.T) {
	for _, nj := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		for _, p := range []int{1, 2, 3, 5, 8, 16, 29, 64} {
			if p < nj {
				continue // not all-deprived: horizon is 0, leap never fires
			}
			for _, t0 := range []int64{0, 1, 2, 5, 9, 1000003} {
				for _, n := range []int64{1, 2, 3, 7, 20, 101} {
					// Desires large enough to stay deprived all window.
					jobs := make([]sched.CatJob, nj)
					for i := range jobs {
						jobs[i] = sched.CatJob{ID: i, Desire: p * int(n+2)}
					}
					got := make([]int, nj)
					deqLeapTotals(t0, jobs, p, n, got)

					want := make([]int, nj)
					desires := make([]int, nj)
					for i := range desires {
						desires[i] = jobs[i].Desire
					}
					for s := t0; s < t0+n; s++ {
						for i, a := range Deq(desires, p, int(s)) {
							want[i] += a
							desires[i] -= a
						}
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("nj=%d p=%d t0=%d n=%d job %d: closed form %d, sequential %d",
								nj, p, t0, n, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestDeqStableHorizonSafe verifies deqHorizon's promise: for every step
// of the vouched window plus the entry step, all jobs stay strictly
// deprived (each step is the all-deprived branch) and every desire stays
// strictly positive after the window — no completion or phase boundary
// can fall inside a leap.
func TestDeqStableHorizonSafe(t *testing.T) {
	for _, nj := range []int{1, 2, 3, 5, 8} {
		for _, p := range []int{1, 3, 8, 17, 64} {
			for _, d0 := range []int{1, 2, 3, 10, 65, 1000} {
				desires := make([]int, nj)
				for i := range desires {
					// Slightly staggered desires exercise the min.
					desires[i] = d0 + i
				}
				h := deqHorizon(desires, p)
				if h == 0 {
					continue
				}
				if h == sched.Unbounded {
					t.Fatalf("nj=%d p=%d d0=%d: Unbounded horizon with jobs present", nj, p, d0)
				}
				fair := p / nj
				for s := int64(0); s <= h; s++ {
					for _, d := range desires {
						if d <= fair {
							t.Fatalf("nj=%d p=%d d0=%d step %d/%d: desire %d ≤ fair %d — job satisfied mid-window", nj, p, d0, s, h, d, fair)
						}
					}
					for i, a := range Deq(desires, p, int(s)) {
						desires[i] -= a
					}
				}
				for i, d := range desires {
					if d <= 0 {
						t.Fatalf("nj=%d p=%d d0=%d job %d: desire %d ≤ 0 after window h=%d", nj, p, d0, i, d, h)
					}
				}
			}
		}
	}
}

// deqStableHorizon is the DEQ horizon over an α-active list as RAD computed
// it before it read the desires its DEQ round gathers: a walk of the list,
// holes (Desire 0) passed over. The Figure 2 transcription (figure2_test.go)
// reports it, so TestQuickRADMatchesFigure2 holds RAD's horizon to it.
func deqStableHorizon(jobs []sched.CatJob, p int) int64 {
	n, least := 0, 0
	for _, j := range jobs {
		if j.Desire > 0 {
			if n++; n == 1 || j.Desire < least {
				least = j.Desire
			}
		}
	}
	if n == 0 || p <= 0 {
		return sched.Unbounded
	}
	if n > p {
		return 0
	}
	share, extra := p/n, p%n
	dec, slack := share, share+1
	if extra > 0 {
		dec, slack = share+1, share+2
	}
	if least < slack {
		return 0
	}
	return int64((least - slack) / dec)
}
