// Package krad is a simulation library and scheduler suite reproducing
// "Adaptive Scheduling of Parallel Jobs on Functionally Heterogeneous
// Resources" (He, Sun, Hsu — ICPP 2007).
//
// The paper's K-resource model partitions processors and tasks into K
// functional categories (CPUs, vector units, I/O processors, ...); a task
// runs only on a processor of its own category. Jobs are dynamically
// unfolding K-DAGs of unit-time tasks, and the scheduler is online and
// non-clairvoyant: at each time step it sees only each job's instantaneous
// per-category parallelism. The paper's K-RAD algorithm — one RAD (DEQ +
// round-robin) scheduler per category — is (K+1−1/Pmax)-competitive for
// makespan (optimal) and (4K+1−4K/(n+1))-competitive for mean response
// time on batched jobs.
//
// This package is the user-facing facade over the implementation packages:
//
//	internal/dag       K-DAG model, builders, Figure 3 adversary
//	internal/core      DEQ, round-robin, RAD, K-RAD (Figure 2)
//	internal/baselines comparison schedulers incl. a clairvoyant oracle
//	internal/sim       discrete-time engine, traces, validation
//	internal/workload  seeded workload generators
//	internal/metrics   squashed work areas, theorem bounds and checks, ratios
//	internal/analysis  the E1–E21 experiment suite and scheduler registry
//
// Quick start:
//
//	job := krad.NewGraph(2).Named("my-job")
//	a := job.AddTask(1)        // category-1 (CPU) task
//	b := job.AddTask(2)        // category-2 (I/O) task
//	job.MustEdge(a, b)         // a must finish before b starts
//
//	res, err := krad.Run(krad.Config{
//		K:         2,
//		Caps:      []int{4, 2},            // 4 CPUs, 2 I/O processors
//		Scheduler: krad.NewKRAD(2),
//	}, []krad.JobSpec{{Graph: job}})
//
// See the examples/ directory for full programs and cmd/kradbench for the
// experiment suite that regenerates EXPERIMENTS.md.
package krad

import (
	"krad/internal/analysis"
	"krad/internal/baselines"
	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
	"krad/internal/workload"
)

// Model types (internal/dag).
type (
	// Graph is a K-DAG job: unit-time tasks colored by resource category,
	// connected by precedence edges.
	Graph = dag.Graph
	// Category is a 1-based resource category index α ∈ {1..K}.
	Category = dag.Category
	// TaskID identifies a task within one Graph.
	TaskID = dag.TaskID
	// PickPolicy selects which ready tasks run when allotment < desire.
	PickPolicy = dag.PickPolicy
	// LayerSpec describes one level of a Layered job.
	LayerSpec = dag.LayerSpec
	// Adversarial is the Theorem 1 / Figure 3 lower-bound construction.
	Adversarial = dag.Adversarial
)

// Pick policies for Config.Pick.
const (
	PickFIFO    = dag.PickFIFO
	PickLIFO    = dag.PickLIFO
	PickRandom  = dag.PickRandom
	PickCPFirst = dag.PickCPFirst
	PickCPLast  = dag.PickCPLast
)

// Graph constructors (internal/dag).
var (
	// NewGraph returns an empty K-DAG for k categories.
	NewGraph = dag.New
	// Chain, ForkJoin, Layered, MapReduce, Pipeline, Singleton and
	// RoundRobinChain build the standard job shapes.
	Chain            = dag.Chain
	UniformChain     = dag.UniformChain
	RoundRobinChain  = dag.RoundRobinChain
	ForkJoin         = dag.ForkJoin
	Layered          = dag.Layered
	MapReduce        = dag.MapReduce
	Pipeline         = dag.Pipeline
	Singleton        = dag.Singleton
	RandomGraph      = dag.Random
	BinaryReduction  = dag.BinaryReduction
	Butterfly        = dag.Butterfly
	Stencil2D        = dag.Stencil2D
	DivideAndConquer = dag.DivideAndConquer
	// Series and Parallel compose existing graphs.
	Series      = dag.Series
	ParallelDAG = dag.Parallel
	// ExpandDurations converts a duration-annotated graph to its
	// preemptive unit-task equivalent.
	ExpandDurations = dag.ExpandDurations
	// Figure1 builds the paper's Figure 1 three-category example job.
	Figure1 = dag.Figure1
	// NewAdversarial builds the Figure 3 job set for (K, m, caps).
	NewAdversarial = dag.NewAdversarial
	// Stretch models per-category execution costs (performance
	// heterogeneity, the paper's Section 8 challenge) by expanding each
	// α-task into a chain of cost_α unit tasks.
	Stretch     = dag.Stretch
	MustStretch = dag.MustStretch
)

// RandomOpts parameterizes RandomGraph.
type RandomOpts = dag.RandomOpts

// Scheduling types (internal/sched).
type (
	// Scheduler computes per-step processor allotments from job desires.
	Scheduler = sched.Scheduler
	// JobView is the non-clairvoyant per-job snapshot a Scheduler sees.
	JobView = sched.JobView
	// CategoryScheduler allocates one category's processors; K-RAD is K
	// of them.
	CategoryScheduler = sched.CategoryScheduler
)

// Schedulers.
var (
	// NewKRAD returns the paper's K-RAD scheduler for k categories.
	NewKRAD = core.NewKRAD
	// NewRAD returns a single-category RAD (used directly for K = 1 or
	// composed via sched.NewPerCategory).
	NewRAD = core.NewRAD
	// NewRandomKRAD is K-RAD with randomized round-robin order — immune
	// to the deterministic Theorem 1 adversary (experiment E19).
	NewRandomKRAD = core.NewRandomKRAD
	// Deq exposes the Figure 2 DEQ allocation primitive.
	Deq = core.Deq
	// Baseline schedulers for comparison studies.
	NewDEQOnly      = baselines.NewDEQOnly
	NewRROnly       = baselines.NewRROnly
	NewEQUI         = baselines.NewEQUI
	NewFCFS         = baselines.NewFCFS
	NewGreedyDesire = baselines.NewGreedyDesire
	// NewLAPS is Latest Arrival Processor Sharing with share fraction β.
	NewLAPS = baselines.NewLAPS
	// NewGang is time-sliced whole-machine gang scheduling.
	NewGang = baselines.NewGang
	// NewSJF is the clairvoyant shortest-job-first yardstick.
	NewSJF = baselines.NewSJF
	// NewQuantized wraps any scheduler to recompute allotments only every
	// L steps (the two-level deployment model; see experiment E13).
	NewQuantized = sched.NewQuantized
	// WithFloors makes any scheduler valid for non-preemptive jobs whose
	// in-flight tasks pin processors (see TimedGraphSource).
	WithFloors = sched.WithFloors
)

// Simulation types (internal/sim).
type (
	// Config parameterizes a simulation run.
	Config = sim.Config
	// JobSpec is one submitted job: its K-DAG and release time.
	JobSpec = sim.JobSpec
	// Result is a run's outcome: makespan, per-job responses, trace.
	Result = sim.Result
	// JobResult is one job's outcome.
	JobResult = sim.JobResult
	// TraceLevel selects per-step recording detail.
	TraceLevel = sim.TraceLevel
)

// Trace levels for Config.Trace.
const (
	TraceNone  = sim.TraceNone
	TraceSteps = sim.TraceSteps
	TraceTasks = sim.TraceTasks
)

// Run simulates a job set under the given configuration.
var Run = sim.Run

// Incremental engine (internal/sim): admit and cancel jobs while the
// virtual clock runs. Run is a thin batch driver over it, so batch and
// online schedules of the same workload are identical. internal/server
// wraps the engine as a goroutine-safe HTTP service (see cmd/kradd).
type (
	// Engine steps one simulation incrementally; not goroutine-safe.
	Engine = sim.Engine
	// JobStatus is one job's live lifecycle state.
	JobStatus = sim.JobStatus
	// JobPhase is a job's lifecycle phase (pending/active/done/cancelled).
	JobPhase = sim.JobPhase
	// StepInfo reports what one Engine.Step executed.
	StepInfo = sim.StepInfo
	// EngineSnapshot is a point-in-time engine summary.
	EngineSnapshot = sim.EngineSnapshot
)

// NewEngine builds an incremental engine from a Config (MaxSteps applies;
// jobs arrive via Engine.Admit instead of a spec slice).
var NewEngine = sim.NewEngine

// Job lifecycle phases reported by JobStatus.Phase.
const (
	JobPending   = sim.JobPending
	JobActive    = sim.JobActive
	JobDone      = sim.JobDone
	JobCancelled = sim.JobCancelled
)

// JobSource admits alternative job representations (see ProfileJob);
// JobSpec.Graph covers the common K-DAG case.
type JobSource = sim.JobSource

// GraphSource wraps a K-DAG as an explicit JobSource.
var GraphSource = sim.GraphSource

// TimedGraphSource wraps a duration-annotated K-DAG for non-preemptive
// execution (pair the run's scheduler with WithFloors): a moldable job
// whose tasks each hold one processor for their duration. It panics on a
// graph FromSpec rejects (no tasks, or a cycle).
func TimedGraphSource(g *Graph) JobSource {
	j, err := moldable.FromTimedGraph(g)
	if err != nil {
		panic(err)
	}
	return j
}

// NewChurn accumulates reallocation churn through Config.Observer
// (see experiment E17).
var NewChurn = metrics.NewChurn

// ChurnCounter tallies processors reassigned between jobs per step.
type ChurnCounter = metrics.Churn

// Profile jobs: compact phase-based representation for huge simulations
// (internal/profile).
type (
	// ProfileJob is a phase-list job: per-phase per-category task counts
	// with barriers between phases.
	ProfileJob = profile.Job
	// ProfilePhase is one barrier-delimited stage of a ProfileJob.
	ProfilePhase = profile.Phase
	// ProfileGenOpts parameterizes GenerateProfiles.
	ProfileGenOpts = profile.GenOpts
)

var (
	// NewProfileJob builds a profile job from phases.
	NewProfileJob = profile.New
	// GenerateProfiles draws a seeded batched set of profile jobs.
	GenerateProfiles = profile.Generate
)

// Moldable jobs: tasks under precedence that pick a processor count once
// at start, run non-preemptively under a concave speedup curve, and plug
// into the engine as the third runtime family (internal/moldable). Pair
// runs containing moldable jobs with WithFloors.
type (
	// MoldableJob is a validated moldable-task job (a JobSource).
	MoldableJob = moldable.Job
	// MoldableSpec is the declarative wire form of a MoldableJob.
	MoldableSpec = moldable.Spec
	// MoldableTaskSpec is one task of a MoldableSpec.
	MoldableTaskSpec = moldable.TaskSpec
	// MoldableCurveSpec names a speedup curve ("powerlaw" or "amdahl").
	MoldableCurveSpec = moldable.CurveSpec
	// MoldableGenOpts parameterizes GenerateMoldable.
	MoldableGenOpts = moldable.GenOpts
)

var (
	// NewMoldableJob validates a spec into a MoldableJob.
	NewMoldableJob = moldable.FromSpec
	// GenerateMoldable draws a seeded moldable job set.
	GenerateMoldable = moldable.Generate
)

// RuntimeFamily classifies a job's execution model (profile, dag,
// moldable); FamilyOf resolves a JobSource's family.
type RuntimeFamily = sim.RuntimeFamily

// Runtime families reported by FamilyOf and JobStatus.Family.
const (
	FamilyUnknown  = sim.FamilyUnknown
	FamilyProfile  = sim.FamilyProfile
	FamilyDAG      = sim.FamilyDAG
	FamilyMoldable = sim.FamilyMoldable
)

// FamilyOf resolves a JobSource's runtime family.
var FamilyOf = sim.FamilyOf

// ValidateSchedule re-checks a TraceTasks run against the paper's
// schedule-validity conditions (precedence, category matching, capacity).
var ValidateSchedule = sim.ValidateSchedule

// ReadResultJSON parses a result written by Result.WriteJSON.
var ReadResultJSON = sim.ReadResultJSON

// Workload generation (internal/workload).
type (
	// Mix parameterizes a random job set.
	Mix = workload.Mix
	// Shape names a job-DAG family.
	Shape = workload.Shape
	// ArrivalProcess draws interarrival gaps for online workloads.
	ArrivalProcess = workload.ArrivalProcess
)

// Arrival processes.
var (
	Poisson = workload.Poisson
	Uniform = workload.Uniform
	Bursty  = workload.Bursty
)

// SWF (Standard Workload Format) support: parse Parallel Workloads Archive
// logs into engine-ready rigid jobs, or emit a synthetic log.
type (
	SWFOptions = workload.SWFOptions
	SWFRecord  = workload.SWFRecord
)

var (
	ParseSWF          = workload.ParseSWF
	WriteSyntheticSWF = workload.WriteSyntheticSWF
	// WithDurations annotates a job set with random task durations for
	// the non-preemptive execution experiments.
	WithDurations = workload.WithDurations
	// FindPreset and PresetNames expose the named workload presets.
	FindPreset  = workload.FindPreset
	PresetNames = workload.PresetNames
)

// Metrics and bounds (internal/metrics).
var (
	// SqSum computes the squashed sum of Definition 4.
	SqSum = metrics.SqSum
	// SquashedWorkArea computes swa(J, α) of Definition 5.
	SquashedWorkArea = metrics.SquashedWorkArea
	// MakespanLowerBound computes the Section 4 optimal-makespan bound.
	MakespanLowerBound = metrics.MakespanLowerBound
	// ResponseLowerBound computes the Section 6 optimal-response bound.
	ResponseLowerBound = metrics.ResponseLowerBound
	// MakespanCompetitiveLimit returns K + 1 − 1/Pmax.
	MakespanCompetitiveLimit = metrics.MakespanCompetitiveLimit
	// ComputeRatios evaluates a run against all the paper's bounds.
	ComputeRatios = metrics.ComputeRatios
	// Theorem checkers for individual runs.
	CheckLemma2   = metrics.CheckLemma2
	CheckTheorem3 = metrics.CheckTheorem3
	CheckTheorem5 = metrics.CheckTheorem5
	CheckTheorem6 = metrics.CheckTheorem6
	CheckAll      = metrics.CheckAll
)

type (
	// Ratios bundles a run's measured-versus-bound report.
	Ratios = metrics.Ratios
	// BoundCheck is a theorem-bound evaluation on one run.
	BoundCheck = metrics.BoundCheck
)

// Experiments (internal/analysis).
type (
	// Experiment is one table of the reproduction suite (E1–E21).
	Experiment = analysis.Experiment
	// ExperimentOptions tunes an experiment run.
	ExperimentOptions = analysis.Options
	// ResultTable is an experiment's rendered output.
	ResultTable = analysis.Table
)

var (
	// Experiments returns the full E1–E21 suite.
	Experiments = analysis.All
	// FindExperiment looks an experiment up by ID.
	FindExperiment = analysis.Find
	// NewScheduler builds a scheduler by its report name (k-rad, equi, …)
	// for k categories; SchedulerNames lists the names, sorted.
	NewScheduler   = analysis.NewScheduler
	SchedulerNames = analysis.SchedulerNames
)
