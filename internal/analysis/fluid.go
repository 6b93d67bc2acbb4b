package analysis

import (
	"fmt"

	"krad/internal/profile"
)

// The fluid replay: the paper's response-time analysis treats the "mean
// deprived allotment" as exactly equal across deprived jobs, which is only
// realizable with real-valued processor shares (the processor-sharing
// idealization standard in this literature). CheckInequality8 replays the
// induction with the library's integral DEQ and can observe sub-unit
// violations of the per-step inequality — a rounding gap, not an algorithm
// bug. CheckInequality8Fluid replays the same workload in the fluid model:
// fractional remaining work, exact equal shares. Under it the inequality
// is provable, and the replay verifies it holds (it is frequently tight).

// fluidJob is a profile job with real-valued remaining work.
type fluidJob struct {
	phases [][]float64 // remaining per phase per category
	phase  int
}

func newFluidJob(j *profile.Job) *fluidJob {
	counts := j.PhaseTasks()
	phases := make([][]float64, len(counts))
	for p, row := range counts {
		phases[p] = make([]float64, len(row))
		for a, v := range row {
			phases[p][a] = float64(v)
		}
	}
	return &fluidJob{phases: phases}
}

// done reports completion.
func (f *fluidJob) done() bool { return f.phase >= len(f.phases) }

// remaining sums the work per category across the remaining phases; the
// remaining span is the number of remaining phases.
func (f *fluidJob) remaining() ([]float64, int) {
	work := make([]float64, len(f.phases[0]))
	for _, ph := range f.phases[f.phase:] {
		for a, v := range ph {
			work[a] += v
		}
	}
	return work, len(f.phases) - f.phase
}

// execute consumes an allotment of category a; the phase barrier advances
// at the step boundary, mirroring the discrete engine.
func (f *fluidJob) execute(a int, v float64) {
	cur := f.phases[f.phase]
	cur[a] -= v
	if cur[a] < 1e-9 {
		cur[a] = 0
	}
}

// advance moves past exhausted phases (one per step — the barrier).
func (f *fluidJob) advance() {
	if f.done() {
		return
	}
	for _, v := range f.phases[f.phase] {
		if v > 0 {
			return
		}
	}
	f.phase++
}

// fluidDeq is DEQ with real-valued shares: jobs desiring at most the fair
// share are fully satisfied, the rest split the remainder exactly equally.
func fluidDeq(desires []float64, p float64) []float64 {
	allot := make([]float64, len(desires))
	live := make([]int, 0, len(desires))
	for i, d := range desires {
		if d > 0 {
			live = append(live, i)
		}
	}
	for len(live) > 0 && p > 1e-12 {
		fair := p / float64(len(live))
		rest := live[:0]
		satisfied := 0
		for _, i := range live {
			if desires[i] <= fair+1e-12 {
				allot[i] = desires[i]
				p -= desires[i]
				satisfied++
			} else {
				rest = append(rest, i)
			}
		}
		if satisfied == 0 {
			share := p / float64(len(rest))
			for _, i := range rest {
				allot[i] = share
			}
			return allot
		}
		live = rest
	}
	return allot
}

// CheckInequality8Fluid replays the Theorem 5 induction in the fluid model
// on batched profile jobs under per-category fluid DEQ. Time is still
// discrete unit steps; only processor shares are real-valued, so a step
// fails only beyond a 1e-6 float slack.
func CheckInequality8Fluid(k int, caps []int, jobs []*profile.Job) (*InductionReport, error) {
	if len(caps) != k {
		return nil, fmt.Errorf("analysis: %d caps for K=%d", len(caps), k)
	}
	fl := make([]*fluidJob, len(jobs))
	totalWork := 0
	for i, j := range jobs {
		if j.K() != k {
			return nil, fmt.Errorf("analysis: job %d has K=%d, want %d", i, j.K(), k)
		}
		fl[i] = newFluidJob(j)
		totalWork += j.TotalTasks()
	}
	return replay(caps, fl, totalWork, 1e-6, func(_ int64, live []*fluidJob) ([]*fluidJob, error) {
		// Per-category fluid DEQ on current-phase desires.
		desires := make([]float64, len(live))
		for a, p := range caps {
			for i, j := range live {
				desires[i] = j.phases[j.phase][a]
			}
			for i, share := range fluidDeq(desires, float64(p)) {
				if share > 0 {
					live[i].execute(a, share)
				}
			}
		}
		next := live[:0:len(live)]
		for _, j := range live {
			j.advance()
			if !j.done() {
				next = append(next, j)
			}
		}
		return next, nil
	})
}
