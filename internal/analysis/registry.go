package analysis

import (
	"fmt"
	"sort"

	"krad/internal/baselines"
	"krad/internal/core"
	"krad/internal/sched"
)

// namedScheduler is one scheduler of the comparison tables, under its
// report name. mk returns a fresh instance per run because several
// schedulers are stateful.
type namedScheduler struct {
	name string
	mk   func(k int) sched.Scheduler
}

// schedulers is the registry, in the report order of E8 and E17.
var schedulers = []namedScheduler{
	{"k-rad", func(k int) sched.Scheduler { return core.NewKRAD(k) }},
	{"k-rad-random", func(k int) sched.Scheduler { return core.NewRandomKRAD(k, 1) }},
	{"deq-only", func(k int) sched.Scheduler { return baselines.NewDEQOnly(k) }},
	{"rr-only", func(k int) sched.Scheduler { return baselines.NewRROnly(k) }},
	{"equi", func(k int) sched.Scheduler { return baselines.NewEQUI(k) }},
	{"laps", func(k int) sched.Scheduler { return baselines.NewLAPS(k, 0.5) }},
	{"gang", func(int) sched.Scheduler { return baselines.NewGang(4) }},
	{"fcfs", func(k int) sched.Scheduler { return baselines.NewFCFS(k) }},
	{"greedy-desire", func(k int) sched.Scheduler { return baselines.NewGreedyDesire(k) }},
	{"sjf-oracle", func(int) sched.Scheduler { return baselines.NewSJF() }},
}

// NewScheduler constructs a scheduler by report name for k categories.
// Names match the E8 comparison table: k-rad, deq-only, rr-only, equi,
// fcfs, greedy-desire, sjf-oracle, ….
func NewScheduler(name string, k int) (sched.Scheduler, error) {
	for _, s := range schedulers {
		if s.name == name {
			return s.mk(k), nil
		}
	}
	return nil, fmt.Errorf("analysis: unknown scheduler %q (have %v)", name, SchedulerNames())
}

// SchedulerNames lists the registry's names, sorted.
func SchedulerNames() []string {
	names := make([]string, len(schedulers))
	for i, s := range schedulers {
		names[i] = s.name
	}
	sort.Strings(names)
	return names
}

// mustScheduler is NewScheduler for the tables' own names, which are
// constants: an unknown one is a bug.
func mustScheduler(name string, k int) sched.Scheduler {
	s, err := NewScheduler(name, k)
	if err != nil {
		panic(err)
	}
	return s
}
