package sim

// RuntimeFamily classifies a job's execution model. The engine itself is
// family-agnostic — it drives every job through the RuntimeJob contract
// plus whatever optional capabilities (runtimeCaps) the runtime declares —
// but the family travels with the job for operators: status reports,
// journal admission records, and workload generators all speak in
// families.
//
// The shipped families and their allotment contracts:
//
//   - FamilyProfile: phase/barrier profile jobs (internal/profile). Unit
//     tasks, drain law, always leapable mid-phase.
//   - FamilyDAG: unit-task K-DAG jobs (internal/dag.Instance). Drain law;
//     leapable inside promotion-free frontier windows (StableRuntime).
//   - FamilyMoldable: moldable tasks under precedence with concave
//     speedup (internal/moldable). Non-preemptive floors; leapable across
//     held phases (HoldRuntime). A duration-annotated DAG is this family
//     with every task's processor maximum at 1 (moldable.FromTimedGraph).
type RuntimeFamily int

const (
	// FamilyUnknown is the zero value: a JobSource that does not declare
	// its family (external implementations predating FamilySource).
	FamilyUnknown RuntimeFamily = iota
	// FamilyProfile is the compact parallelism-profile representation.
	FamilyProfile
	// FamilyDAG is the unit-task K-DAG representation.
	FamilyDAG
	// FamilyMoldable is the moldable-task family: each task picks a
	// processor count once at start under a concave speedup curve.
	FamilyMoldable
)

// String returns the family's wire spelling (used in job status, journal
// records and metric labels).
func (f RuntimeFamily) String() string {
	switch f {
	case FamilyProfile:
		return "profile"
	case FamilyDAG:
		return "dag"
	case FamilyMoldable:
		return "moldable"
	default:
		return "unknown"
	}
}

// FamilySource is an optional JobSource extension declaring the source's
// runtime family. Sources that do not implement it are FamilyUnknown —
// fully functional, just unlabeled.
type FamilySource interface {
	Family() RuntimeFamily
}

// FamilyOf resolves a source's runtime family.
func FamilyOf(src JobSource) RuntimeFamily {
	if fs, ok := src.(FamilySource); ok {
		return fs.Family()
	}
	return FamilyUnknown
}

// HoldRuntime is the event-leap capability of floor-pinning runtimes
// (moldable tasks, duration graphs among them): the complement
// of LeapRuntime's drain law. A drain-law runtime leaps because its
// desires decrease by exactly the allotment each step; a hold-law runtime
// leaps because, in a held phase — every frontier task in flight, nothing
// ready, so each category's desire equals its floor — repeating the
// floor allotment changes nothing but in-flight countdowns. The engine
// treats a job as held for a round only when it implements HoldRuntime
// AND its snapshotted desires equal its floors in every category; held
// jobs leap via LeapHold while drain jobs in the same window leap via
// LeapTasks.
type HoldRuntime interface {
	RuntimeJob
	// HoldFor reports how many additional steps after the current one the
	// runtime provably stays held: no task starts, finishes, or becomes
	// ready, so desires and floors are frozen. The window must end before
	// any completion — leaps never cross completions. ≤ 0 disables
	// leaping this round. Only meaningful while the runtime is held.
	HoldFor() int64
	// LeapHold applies n consecutive held steps in closed form, leaving
	// the runtime in the state n single Execute(floor)+Advance rounds
	// would have produced. The engine guarantees 1 ≤ n ≤ HoldFor() + 1
	// from the same round's HoldFor report.
	LeapHold(n int64)
}

// runtimeCaps caches a runtime's optional capability interfaces, asserted
// once at admission. This is the family-capability seam: the engine's hot
// paths branch on these cached fields and never type-switch on concrete
// runtimes, so a new family plugs in by implementing capabilities, not by
// editing the engine.
type runtimeCaps struct {
	task   TaskRuntime   // reports executed task IDs (TraceTasks)
	floor  FloorRuntime  // pins processors non-preemptively
	leap   LeapRuntime   // drain-law event-leap
	stable StableRuntime // per-round leap eligibility (DAG frontiers)
	hold   HoldRuntime   // hold-law event-leap (moldable held phases)
}

// bindCaps asserts every optional capability once.
func bindCaps(rt RuntimeJob) runtimeCaps {
	var c runtimeCaps
	c.task, _ = rt.(TaskRuntime)
	c.floor, _ = rt.(FloorRuntime)
	c.leap, _ = rt.(LeapRuntime)
	c.stable, _ = rt.(StableRuntime)
	c.hold, _ = rt.(HoldRuntime)
	return c
}
