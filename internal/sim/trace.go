package sim

import (
	"fmt"
	"io"
	"strings"

	"krad/internal/dag"
)

// TraceLevel selects how much per-step detail a run records.
type TraceLevel int

const (
	// TraceNone records nothing (the default; fastest).
	TraceNone TraceLevel = iota
	// TraceSteps records per-step aggregates: tasks executed per category,
	// active job count, completions.
	TraceSteps
	// TraceTasks additionally records every task execution (step, job,
	// task, category) — enough to re-validate the schedule against the
	// Section 2 validity conditions and to render Gantt charts. Memory is
	// proportional to total work; use on small/medium instances.
	TraceTasks
)

// StepStat is one row of the per-step aggregate trace.
type StepStat struct {
	// Step is the time step t (1-based).
	Step int64
	// Executed[α−1] is the number of α-tasks executed during the step.
	Executed []int
	// Active is the number of uncompleted released jobs during the step.
	Active int
	// Completed is the number of jobs that finished at this step.
	Completed int
}

// TaskExec is one task execution event in the full trace.
type TaskExec struct {
	Step int64
	Job  int
	Task dag.TaskID
	Cat  dag.Category
}

// Trace is the recorded timeline of a run.
type Trace struct {
	level TraceLevel
	k     int

	// Steps has one entry per simulated (non-idle) step in time order.
	Steps []StepStat
	// Tasks has one entry per executed task, grouped by step in time
	// order. Only populated at TraceTasks.
	Tasks []TaskExec

	cur     StepStat
	curStep int64
}

func newTrace(level TraceLevel, k int) *Trace {
	return &Trace{level: level, k: k}
}

// Level returns the level the trace was recorded at.
func (tr *Trace) Level() TraceLevel { return tr.level }

// record logs the execution of tasks run (category cat) by job at step t.
func (tr *Trace) record(t int64, job int, cat int, run []dag.TaskID) {
	if tr.level == TraceNone || len(run) == 0 {
		return
	}
	tr.ensure(t)
	tr.cur.Executed[cat-1] += len(run)
	if tr.level >= TraceTasks {
		for _, id := range run {
			tr.Tasks = append(tr.Tasks, TaskExec{Step: t, Job: job, Task: id, Cat: dag.Category(cat)})
		}
	}
}

// add logs n executed tasks of category cat at step t without task IDs
// (serial aggregate-level recording).
func (tr *Trace) add(t int64, cat, n int) {
	if tr.level == TraceNone || n == 0 {
		return
	}
	tr.ensure(t)
	tr.cur.Executed[cat-1] += n
}

// recordCounts merges pre-aggregated per-category counts (event-leaps).
func (tr *Trace) recordCounts(t int64, counts []int) {
	if tr.level == TraceNone {
		return
	}
	tr.ensure(t)
	for a, c := range counts {
		tr.cur.Executed[a] += c
	}
}

func (tr *Trace) ensure(t int64) {
	if tr.curStep != t {
		tr.flush()
		tr.curStep = t
		tr.cur = StepStat{Step: t, Executed: make([]int, tr.k)}
	}
}

// endStep finalizes the current step's aggregate row.
func (tr *Trace) endStep(t int64, active, completed int) {
	if tr.level == TraceNone {
		return
	}
	tr.ensure(t)
	tr.cur.Active = active
	tr.cur.Completed = completed
	tr.flush()
	tr.curStep = 0
}

func (tr *Trace) flush() {
	if tr.curStep != 0 {
		tr.Steps = append(tr.Steps, tr.cur)
	}
}

// WriteCSV writes the aggregate trace as CSV: step, active, completed, then
// one executed-count column per category.
func (tr *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "step,active,completed"); err != nil {
		return err
	}
	for a := 1; a <= tr.k; a++ {
		if _, err := fmt.Fprintf(w, ",exec_cat%d", a); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, s := range tr.Steps {
		if _, err := fmt.Fprintf(w, "%d,%d,%d", s.Step, s.Active, s.Completed); err != nil {
			return err
		}
		for _, e := range s.Executed {
			if _, err := fmt.Fprintf(w, ",%d", e); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Gantt renders the full trace as an ASCII chart: one row per job, one
// column per step, the digit of the category executing (or '#' when a job
// runs tasks of several categories in one step, '.' when idle-but-active).
// Requires TraceTasks; returns an explanatory string otherwise. maxWidth
// truncates long timelines (0 means no limit).
func (tr *Trace) Gantt(numJobs int, maxWidth int) string {
	if tr.level < TraceTasks {
		return "gantt: trace was not recorded at TraceTasks level\n"
	}
	var hi int64
	for _, s := range tr.Steps {
		if s.Step > hi {
			hi = s.Step
		}
	}
	if maxWidth > 0 && hi > int64(maxWidth) {
		hi = int64(maxWidth)
	}
	rows := make([][]byte, numJobs)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", int(hi)))
	}
	for _, e := range tr.Tasks {
		if e.Step > hi || e.Job >= numJobs {
			continue
		}
		c := &rows[e.Job][e.Step-1]
		ch := byte('0' + e.Cat%10)
		switch *c {
		case ' ':
			*c = ch
		case ch:
			// same category again: keep
		default:
			*c = '#'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time  1..%d  (digit = category executing, # = mixed)\n", hi)
	for i, r := range rows {
		fmt.Fprintf(&b, "job %3d |%s|\n", i, string(r))
	}
	return b.String()
}
