package analysis

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sched"
	"krad/internal/sim"
)

// SpanRuntime is a job runtime that can report the span of its unexecuted
// portion — what the Theorem 5 induction calls T∞ of the t-suffix. Both
// shipped runtimes (DAG instances and profile jobs) implement it.
type SpanRuntime interface {
	sim.RuntimeJob
	RemainingSpan() int
}

// InductionReport is the outcome of replaying the Theorem 5 proof step by
// step (CheckInequality8).
type InductionReport struct {
	// Steps is the number of time steps checked.
	Steps int
	// Violations counts steps where Inequality (8) failed.
	Violations int
	// FirstViolation is the earliest failing step (0 if none).
	FirstViolation int64
	// MinSlack is the smallest observed value of RHS − LHS — how close the
	// proof's per-step inequality came to tight (negative iff violations).
	MinSlack float64
	// MaxDeficit is the largest LHS − RHS over violating steps. Integral
	// allotments can produce sub-unit deficits where the real-valued
	// analysis is tight (see CheckInequality8Fluid); deficits ≥ 1 would
	// indicate a genuine bug.
	MaxDeficit float64
}

// replayJob is one job of an Inequality (8) replay, integral or fluid.
type replayJob interface {
	// remaining returns the job's unexecuted work per category and the
	// span of its unexecuted part.
	remaining() (work []float64, span int)
}

// replay checks Inequality (8) at every step of a batched replay: step
// runs step t on the live (uncompleted) jobs and returns those still
// uncompleted after it. A step violates the inequality when Δr exceeds the
// right-hand side by more than tol, the model's rounding slack. totalWork
// sizes the runaway guard.
func replay[J replayJob](caps []int, live []J, totalWork int, tol float64, step func(t int64, live []J) ([]J, error)) (*InductionReport, error) {
	// snapshot returns the per-category swa and the aggregate span of the
	// jobs' unexecuted suffixes.
	snapshot := func(jobs []J) (swa []float64, span int) {
		works := make([][]float64, len(caps))
		for _, j := range jobs {
			w, s := j.remaining()
			for a := range caps {
				works[a] = append(works[a], w[a])
			}
			span += s
		}
		swa = make([]float64, len(caps))
		for a, p := range caps {
			swa[a] = metrics.SqSumFloats(works[a]) / float64(p)
		}
		return swa, span
	}

	report := &InductionReport{MinSlack: 1e18}
	maxSteps := int64(4*totalWork + 64)
	preSwa, preSpan := snapshot(live)
	for t := int64(1); len(live) > 0; t++ {
		if t > maxSteps {
			return nil, fmt.Errorf("analysis: induction replay exceeded %d steps", maxSteps)
		}
		n := len(live)
		next, err := step(t, live)
		if err != nil {
			return nil, err
		}
		postSwa, postSpan := snapshot(next)

		c := 2 - 2/float64(n+1)
		rhs := float64(preSpan - postSpan)
		for a := range caps {
			rhs += c * (preSwa[a] - postSwa[a])
		}
		lhs := float64(n) // Δr: every uncompleted job accrues one step
		report.Steps++
		report.MinSlack = min(report.MinSlack, rhs-lhs)
		if lhs > rhs+tol {
			report.Violations++
			report.MaxDeficit = max(report.MaxDeficit, lhs-rhs)
			if report.FirstViolation == 0 {
				report.FirstViolation = t
			}
		}
		live, preSwa, preSpan = next, postSwa, postSpan
	}
	return report, nil
}

// integralJob is a job runtime under the integral (whole-processor) replay.
type integralJob struct {
	id int
	rt SpanRuntime
}

func (j integralJob) remaining() ([]float64, int) {
	rw := j.rt.RemainingWork()
	work := make([]float64, len(rw))
	for a, v := range rw {
		work[a] = float64(v)
	}
	return work, j.rt.RemainingSpan()
}

// CheckInequality8 replays a batched job set under a scheduler and checks,
// at every time step, the per-step inequality at the heart of the
// Theorem 5 induction (Section 7):
//
//	Δr ≤ c·Σα Δswa(α) + ΔT∞          with c = 2 − 2/(n+1),
//
// where n is the number of uncompleted jobs at the step, Δr = n (each
// uncompleted job accrues one step of response time), Δswa(α) is the drop
// in squashed α-work area of the remaining job set, and ΔT∞ the drop in
// aggregate remaining span. The paper proves the inequality for DEQ under
// light workload; replaying it validates the proof mechanics on concrete
// executions rather than only the theorem's end-to-end consequence.
//
// sources must be batched (released at 0). The caller chooses caps so the
// run stays in the light-load regime if the proof's premise is wanted.
func CheckInequality8(k int, caps []int, sources []sim.JobSource, scheduler sched.Scheduler) (*InductionReport, error) {
	if len(caps) != k {
		return nil, fmt.Errorf("analysis: %d caps for K=%d", len(caps), k)
	}
	jobs := make([]integralJob, len(sources))
	totalWork := 0
	for i, src := range sources {
		rt, ok := src.NewRuntime(dag.PickFIFO, int64(i)).(SpanRuntime)
		if !ok {
			return nil, fmt.Errorf("analysis: job %d runtime does not report remaining span", i)
		}
		jobs[i] = integralJob{id: i, rt: rt}
		totalWork += src.TotalTasks()
	}
	return replay(caps, jobs, totalWork, 1e-9, func(t int64, live []integralJob) ([]integralJob, error) {
		views := make([]sched.JobView, len(live))
		for i, j := range live {
			d := make([]int, k)
			for a := range d {
				d[a] = j.rt.Desire(dag.Category(a + 1))
			}
			views[i] = sched.JobView{ID: j.id, Desire: d}
		}
		allot := scheduler.Allot(t, views, caps)
		if err := sched.ValidateAllotments(views, caps, allot); err != nil {
			return nil, fmt.Errorf("analysis: step %d: %w", t, err)
		}
		var doneIDs []int
		next := live[:0:len(live)]
		for i, j := range live {
			for a, v := range allot[i] {
				if v > 0 {
					j.rt.Execute(dag.Category(a+1), v)
				}
			}
			j.rt.Advance()
			if j.rt.Done() {
				doneIDs = append(doneIDs, j.id)
			} else {
				next = append(next, j)
			}
		}
		if c, ok := scheduler.(sched.Completer); ok && len(doneIDs) > 0 {
			c.JobsDone(doneIDs)
		}
		return next, nil
	})
}
