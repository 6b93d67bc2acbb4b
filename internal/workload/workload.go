// Package workload generates the synthetic job sets the experiment suite
// runs on: batched and online-arrival mixes of the job shapes from
// internal/dag, all driven by seeded math/rand generators so every
// experiment is reproducible from its parameters alone.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"krad/internal/dag"
	"krad/internal/sim"
)

// Shape names a job-DAG family a generator can draw from.
type Shape int

const (
	// ShapeChain is a sequential chain cycling through the categories.
	ShapeChain Shape = iota
	// ShapeForkJoin is a single wide fork-join.
	ShapeForkJoin
	// ShapeLayered is a stack of levels with a collector between levels.
	ShapeLayered
	// ShapeMapReduce is split → map ×w → reduce ×w/2 → merge.
	ShapeMapReduce
	// ShapePipeline is a stages×width wavefront.
	ShapePipeline
	// ShapeRandom is a random forward-edge DAG.
	ShapeRandom
	// ShapeReduction is a binary reduction tree.
	ShapeReduction
	// ShapeButterfly is an FFT-style butterfly.
	ShapeButterfly
	// ShapeStencil is a time-stepped stencil with halo exchanges.
	ShapeStencil
	// ShapeDnC is a recursive divide-and-conquer skeleton.
	ShapeDnC
)

// String returns the shape name.
func (s Shape) String() string {
	switch s {
	case ShapeChain:
		return "chain"
	case ShapeForkJoin:
		return "forkjoin"
	case ShapeLayered:
		return "layered"
	case ShapeMapReduce:
		return "mapreduce"
	case ShapePipeline:
		return "pipeline"
	case ShapeRandom:
		return "random"
	case ShapeReduction:
		return "reduction"
	case ShapeButterfly:
		return "butterfly"
	case ShapeStencil:
		return "stencil"
	case ShapeDnC:
		return "dnc"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// AllShapes lists every generator family.
var AllShapes = []Shape{
	ShapeChain, ShapeForkJoin, ShapeLayered, ShapeMapReduce, ShapePipeline,
	ShapeRandom, ShapeReduction, ShapeButterfly, ShapeStencil, ShapeDnC,
}

// Mix parameterizes a random job set.
type Mix struct {
	// K is the number of resource categories.
	K int
	// Jobs is the number of jobs to generate.
	Jobs int
	// Shapes restricts the families drawn from (nil = AllShapes).
	Shapes []Shape
	// MinSize and MaxSize bound each job's approximate task count.
	MinSize, MaxSize int
	// CatWeights biases the category distribution (nil = uniform).
	CatWeights []float64
	// Seed makes the mix reproducible.
	Seed int64
}

// Generate materializes the mix as a batched job set (all releases 0).
func (m Mix) Generate() ([]sim.JobSpec, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(m.Seed))
	specs := make([]sim.JobSpec, m.Jobs)
	for i := range specs {
		specs[i] = sim.JobSpec{Graph: m.job(rng, i)}
	}
	return specs, nil
}

// GenerateOnline materializes the mix with arrivals: interarrival times are
// drawn by arrive (e.g. Poisson or Uniform below).
func (m Mix) GenerateOnline(arrive ArrivalProcess) ([]sim.JobSpec, error) {
	specs, err := m.Generate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(m.Seed + 0x9e3779b9))
	var t int64
	for i := range specs {
		t += arrive(rng)
		specs[i].Release = t
	}
	return specs, nil
}

func (m Mix) check() error {
	if m.K < 1 {
		return fmt.Errorf("workload: mix K=%d, need ≥ 1", m.K)
	}
	if m.Jobs < 1 {
		return fmt.Errorf("workload: mix Jobs=%d, need ≥ 1", m.Jobs)
	}
	if m.MinSize < 1 || m.MaxSize < m.MinSize {
		return fmt.Errorf("workload: mix size bounds [%d,%d] invalid", m.MinSize, m.MaxSize)
	}
	if m.CatWeights != nil && len(m.CatWeights) != m.K {
		return fmt.Errorf("workload: mix has %d category weights for K=%d", len(m.CatWeights), m.K)
	}
	return nil
}

// job draws one job graph.
func (m Mix) job(rng *rand.Rand, idx int) *dag.Graph {
	shapes := m.Shapes
	if len(shapes) == 0 {
		shapes = AllShapes
	}
	shape := shapes[rng.Intn(len(shapes))]
	size := m.MinSize
	if m.MaxSize > m.MinSize {
		size += rng.Intn(m.MaxSize - m.MinSize + 1)
	}
	cat := m.catPicker(rng)
	var g *dag.Graph
	switch shape {
	case ShapeChain:
		g = dag.Chain(m.K, size, func(int) dag.Category { return cat(rng) })
	case ShapeForkJoin:
		width := size - 2
		if width < 1 {
			width = 1
		}
		g = dag.ForkJoin(m.K, width, cat(rng), cat(rng), cat(rng))
	case ShapeLayered:
		layers := 2 + rng.Intn(4)
		per := size / layers
		if per < 1 {
			per = 1
		}
		specs := make([]dag.LayerSpec, layers)
		for i := range specs {
			specs[i] = dag.LayerSpec{Count: per, Cat: cat(rng)}
		}
		g = dag.Layered(m.K, specs, rng.Intn(2) == 0)
	case ShapeMapReduce:
		mappers := size * 2 / 3
		if mappers < 1 {
			mappers = 1
		}
		reducers := mappers / 2
		if reducers < 1 {
			reducers = 1
		}
		g = dag.MapReduce(m.K, mappers, reducers, cat(rng), cat(rng), cat(rng), cat(rng))
	case ShapePipeline:
		stages := 2 + rng.Intn(3)
		width := size / stages
		if width < 1 {
			width = 1
		}
		cats := make([]dag.Category, stages)
		for i := range cats {
			cats[i] = cat(rng)
		}
		g = dag.Pipeline(m.K, stages, width, func(s int) dag.Category { return cats[s] })
	case ShapeRandom:
		g = dag.Random(m.K, dag.RandomOpts{
			Tasks:      size,
			EdgeProb:   0.08 + rng.Float64()*0.15,
			Window:     8 + rng.Intn(24),
			CatWeights: m.CatWeights,
		}, rng)
	case ShapeReduction:
		leaves := size / 2
		if leaves < 1 {
			leaves = 1
		}
		g = dag.BinaryReduction(m.K, leaves, cat(rng), cat(rng))
	case ShapeButterfly:
		logN := 1
		for (logN+2)*(1<<(logN+1)) <= size && logN < 6 {
			logN++
		}
		g = dag.Butterfly(m.K, logN, func(int) dag.Category { return cat(rng) })
	case ShapeStencil:
		width := 2 + rng.Intn(6)
		steps := size / width
		if steps < 1 {
			steps = 1
		}
		g = dag.Stencil2D(m.K, steps, width, 2+rng.Intn(3), cat(rng), cat(rng))
	case ShapeDnC:
		depth := 1
		for 3*(1<<(depth+1)) <= size && depth < 6 {
			depth++
		}
		g = dag.DivideAndConquer(m.K, depth, 2, cat(rng), cat(rng), cat(rng))
	default:
		panic(fmt.Sprintf("workload: unknown shape %v", shape))
	}
	return g.Named(fmt.Sprintf("%s-%d", shape, idx))
}

// catPicker returns a weighted category sampler.
func (m Mix) catPicker(rng *rand.Rand) func(*rand.Rand) dag.Category {
	weights := m.CatWeights
	if weights == nil {
		return func(r *rand.Rand) dag.Category { return dag.Category(r.Intn(m.K) + 1) }
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return func(r *rand.Rand) dag.Category {
		x := r.Float64() * total
		for i, w := range weights {
			x -= w
			if x < 0 {
				return dag.Category(i + 1)
			}
		}
		return dag.Category(m.K)
	}
}

// WithDurations returns a copy of the specs whose graphs carry per-task
// durations drawn uniformly from [1, maxDur] — input to the non-preemptive
// execution experiments (moldable.FromTimedGraph / dag.ExpandDurations). The
// originals are not modified.
func WithDurations(specs []sim.JobSpec, maxDur int, seed int64) ([]sim.JobSpec, error) {
	if maxDur < 1 {
		return nil, fmt.Errorf("workload: WithDurations maxDur=%d, need ≥ 1", maxDur)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.JobSpec, len(specs))
	for i, s := range specs {
		if s.Graph == nil {
			return nil, fmt.Errorf("workload: WithDurations: job %d has no graph", i)
		}
		g := s.Graph.Clone()
		for id := 0; id < g.NumTasks(); id++ {
			g.SetDuration(dag.TaskID(id), 1+rng.Intn(maxDur))
		}
		out[i] = sim.JobSpec{Graph: g, Release: s.Release}
	}
	return out, nil
}

// ArrivalProcess draws one interarrival gap.
type ArrivalProcess func(*rand.Rand) int64

// Poisson returns an arrival process with exponential interarrival times of
// the given mean (rounded to whole steps).
func Poisson(mean float64) ArrivalProcess {
	if mean <= 0 {
		panic("workload: Poisson mean must be positive")
	}
	return func(rng *rand.Rand) int64 {
		return int64(math.Round(rng.ExpFloat64() * mean))
	}
}

// Uniform returns an arrival process with gaps uniform in [lo, hi].
func Uniform(lo, hi int64) ArrivalProcess {
	if lo < 0 || hi < lo {
		panic("workload: Uniform bounds invalid")
	}
	return func(rng *rand.Rand) int64 {
		return lo + rng.Int63n(hi-lo+1)
	}
}

// Bursty returns an arrival process that releases jobs in bursts of the
// given size separated by the given gap — the regime where RAD's
// round-robin cycles matter most.
func Bursty(burst int, gap int64) ArrivalProcess {
	if burst < 1 || gap < 0 {
		panic("workload: Bursty parameters invalid")
	}
	n := 0
	return func(*rand.Rand) int64 {
		n++
		if n%burst == 1 && n > 1 {
			return gap
		}
		return 0
	}
}
