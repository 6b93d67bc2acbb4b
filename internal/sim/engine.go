// Package sim implements the K-resource scheduling model of Section 2 as a
// discrete-time simulator. Time advances in unit steps; at every step each
// active job reports its instantaneous per-category parallelism, the
// scheduler under test returns integer allotments bounded by the
// per-category processor counts, and each job executes that many ready
// tasks. The engine enforces the paper's schedule-validity conditions
// (precedence, category matching, capacity) and records the metrics the
// competitive analysis is stated in: makespan and response times.
//
// Two entry points exist. Run simulates a fully known batch job set and is
// what the experiment suite uses. Engine is the incremental form of the
// same machine: jobs can be admitted (and cancelled) while the clock is
// running, which is what the online scheduler service (internal/server)
// builds on. Run is a thin loop over Engine, so both paths produce
// identical schedules for identical job sets.
package sim

import (
	"fmt"
	"sort"

	"krad/internal/dag"
	"krad/internal/sched"
)

// JobSpec describes one job submitted to a run: its shape and release
// time. Exactly one of Graph and Source must be set — Graph is the common
// K-DAG case; Source admits alternative representations such as
// internal/profile's compact phase jobs.
type JobSpec struct {
	Graph   *dag.Graph
	Source  JobSource
	Release int64
}

// source resolves the job's JobSource.
func (s JobSpec) source() JobSource {
	if s.Graph != nil {
		return GraphSource(s.Graph)
	}
	return s.Source
}

// Config parameterizes a run.
type Config struct {
	// K is the number of resource categories; every job graph must agree.
	K int
	// Caps[α−1] is Pα, the processor count of category α.
	Caps []int
	// Scheduler is the algorithm under test.
	Scheduler sched.Scheduler
	// Pick is the task-pick policy applied by every job when its allotment
	// is below its desire (see dag.PickPolicy). The scheduling theorems
	// hold for every policy; the adversarial experiments vary it.
	Pick dag.PickPolicy
	// Seed feeds the PickRandom policy (ignored otherwise).
	Seed int64
	// Speed is the resource-augmentation factor of the speed-augmentation
	// analysis framework (Kalyanasundaram–Pruhs; Edmonds' EQUI results):
	// every processor runs s ≥ 1 micro-rounds per time step, so it can
	// execute s dependent tasks in one step. 0 and 1 both mean normal
	// speed. Allotments are decided once per step and reused each
	// micro-round; completion times are whole steps.
	Speed int
	// MaxSteps aborts runaway simulations (e.g. a broken scheduler that
	// never allots anything). 0 means an automatic bound of
	// 4·(total work + max release) + 64.
	MaxSteps int64
	// Trace selects how much per-step detail to record.
	Trace TraceLevel
	// ValidateAllotments re-checks the scheduler's output every step and
	// fails the run on the first violation. Cheap; on by default in tests.
	ValidateAllotments bool
	// Observer, when non-nil, is invoked after every scheduling decision
	// with the step, the job views the scheduler saw, and the allotments
	// it returned. The slices are reused between steps — copy anything
	// retained. Used for instrumentation such as reallocation-churn
	// accounting (metrics.ChurnObserver).
	Observer func(t int64, jobs []sched.JobView, allot [][]int)
	// NoLeap disables the event-leap fast path: StepN executes every step
	// through its own scheduling round. Results are bit-identical either
	// way (the equivalence tests assert it); the knob exists for those
	// tests and for debugging.
	NoLeap bool
}

// Run simulates the job set under cfg and returns the collected results.
// The specs may be given in any order; the engine sorts them by release
// time (stable, so equal releases keep submission order) and assigns job
// IDs 0, 1, 2, ... in that order — ascending ID is ascending arrival order,
// which is the queue order RAD's round-robin relies on.
//
// Run is implemented as a thin loop over Engine: admit every job, step
// until all of them complete.
func Run(cfg Config, specs []JobSpec) (*Result, error) {
	if err := checkConfig(&cfg, specs); err != nil {
		return nil, err
	}

	// Sort by release, stably, so Admit assigns IDs in release order
	// (equal releases keep submission order).
	ordered := make([]JobSpec, len(specs))
	copy(ordered, specs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Release < ordered[j].Release })

	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range ordered {
		if _, err := eng.Admit(s); err != nil {
			return nil, err
		}
	}
	// Drive through StepN so batch runs benefit from event-leaps; StepN is
	// bit-identical to single-stepping, so Run's results are unchanged.
	for eng.Remaining() > 0 {
		if _, err := eng.StepN(1 << 40); err != nil {
			return nil, err
		}
	}
	return eng.Result(), nil
}

// checkConfig validates a batch run: the configuration itself plus every
// spec, reporting spec errors by their index in the caller's slice.
func checkConfig(cfg *Config, specs []JobSpec) error {
	if err := checkEngineConfig(cfg); err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("sim: empty job set")
	}
	for i, s := range specs {
		if err := checkSpec(cfg, s, i); err != nil {
			return err
		}
	}
	return nil
}

// checkEngineConfig validates the job-independent part of a Config.
func checkEngineConfig(cfg *Config) error {
	if cfg.K < 1 {
		return fmt.Errorf("sim: config K=%d, need ≥ 1", cfg.K)
	}
	if len(cfg.Caps) != cfg.K {
		return fmt.Errorf("sim: config has %d capacities for K=%d", len(cfg.Caps), cfg.K)
	}
	for a, p := range cfg.Caps {
		if p < 1 {
			return fmt.Errorf("sim: category %d has capacity %d, need ≥ 1", a+1, p)
		}
	}
	if cfg.Scheduler == nil {
		return fmt.Errorf("sim: config has no scheduler")
	}
	if cfg.Speed < 0 {
		return fmt.Errorf("sim: config Speed=%d, need ≥ 0", cfg.Speed)
	}
	return nil
}

// checkSpec validates one job spec; i labels it in error messages.
func checkSpec(cfg *Config, s JobSpec, i int) error {
	if s.Graph == nil && s.Source == nil {
		return fmt.Errorf("sim: job %d has neither graph nor source", i)
	}
	if s.Graph != nil && s.Source != nil {
		return fmt.Errorf("sim: job %d sets both graph and source", i)
	}
	src := s.source()
	if src.K() != cfg.K {
		return fmt.Errorf("sim: job %d (%s) declared for K=%d, run has K=%d", i, src.Name(), src.K(), cfg.K)
	}
	if src.TotalTasks() == 0 {
		return fmt.Errorf("sim: job %d (%s) is empty", i, src.Name())
	}
	if s.Release < 0 {
		return fmt.Errorf("sim: job %d has negative release %d", i, s.Release)
	}
	return nil
}
