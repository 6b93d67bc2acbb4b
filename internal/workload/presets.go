package workload

import (
	"fmt"
	"sort"

	"krad/internal/dag"
	"krad/internal/sim"
)

// Preset is a named, fully parameterized workload used by the CLI tools
// and documentation — reproducible from its name and a seed alone.
type Preset struct {
	// Name identifies the preset (see Presets).
	Name string
	// Description says what the workload models.
	Description string
	// K is the resource-category count the preset assumes.
	K int
	// Caps is the machine the preset was tuned for (callers may override).
	Caps []int
	// Build materializes the job set for a seed.
	Build func(seed int64) ([]sim.JobSpec, error)
}

// presets is the registry, keyed by name.
var presets = map[string]Preset{}

func register(p Preset) {
	if _, dup := presets[p.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate preset %q", p.Name))
	}
	presets[p.Name] = p
}

func init() {
	register(Preset{
		Name:        "numerical-batch",
		Description: "batched numerical kernels: CPU-dominant map-reduce and fork-join jobs with a vector-unit tail",
		K:           3,
		Caps:        []int{8, 4, 2},
		Build: func(seed int64) ([]sim.JobSpec, error) {
			return Mix{
				K: 3, Jobs: 48,
				Shapes:  []Shape{ShapeForkJoin, ShapeMapReduce, ShapeLayered},
				MinSize: 10, MaxSize: 90,
				CatWeights: []float64{6, 3, 1},
				Seed:       seed,
			}.Generate()
		},
	})
	register(Preset{
		Name:        "io-server",
		Description: "online I/O-heavy service: pipelines and chains arriving as a Poisson stream, I/O processors the bottleneck",
		K:           3,
		Caps:        []int{8, 4, 2},
		Build: func(seed int64) ([]sim.JobSpec, error) {
			return Mix{
				K: 3, Jobs: 120,
				Shapes:  []Shape{ShapePipeline, ShapeChain},
				MinSize: 4, MaxSize: 40,
				CatWeights: []float64{2, 1, 3},
				Seed:       seed,
			}.GenerateOnline(Poisson(2.0))
		},
	})
	register(Preset{
		Name:        "vector-mix",
		Description: "mixed scientific load with a strong vector-unit component and bursty submissions",
		K:           3,
		Caps:        []int{4, 8, 2},
		Build: func(seed int64) ([]sim.JobSpec, error) {
			return Mix{
				K: 3, Jobs: 80,
				MinSize: 8, MaxSize: 70,
				CatWeights: []float64{2, 5, 1},
				Seed:       seed,
			}.GenerateOnline(Bursty(8, 30))
		},
	})
	register(Preset{
		Name:        "overload-storm",
		Description: "a batched storm of small jobs far exceeding every category's processor count — the round-robin regime",
		K:           2,
		Caps:        []int{2, 2},
		Build: func(seed int64) ([]sim.JobSpec, error) {
			return Mix{
				K: 2, Jobs: 150,
				MinSize: 2, MaxSize: 12,
				Seed: seed,
			}.Generate()
		},
	})
	register(Preset{
		Name:        "light-wide",
		Description: "a handful of very wide jobs on a wide machine — the pure DEQ space-sharing regime",
		K:           2,
		Caps:        []int{16, 16},
		Build: func(seed int64) ([]sim.JobSpec, error) {
			return Mix{
				K: 2, Jobs: 6,
				Shapes:  []Shape{ShapeForkJoin, ShapeMapReduce},
				MinSize: 40, MaxSize: 160,
				Seed: seed,
			}.Generate()
		},
	})
	// Four fixed job sets small enough to read as a Gantt chart
	// (kradsim -preset NAME -gantt); the seed is ignored.
	register(Preset{
		Name:        "etl",
		Description: "three staggered CPU→vector→I/O pipelines under DEQ space sharing",
		K:           3,
		Caps:        []int{4, 2, 2},
		Build: func(int64) ([]sim.JobSpec, error) {
			var specs []sim.JobSpec
			for i := 0; i < 3; i++ {
				g := dag.Pipeline(3, 3, 6, func(s int) dag.Category { return dag.Category(s + 1) }).
					Named(fmt.Sprintf("pipeline-%d", i))
				specs = append(specs, sim.JobSpec{Graph: g, Release: int64(2 * i)})
			}
			return specs, nil
		},
	})
	register(Preset{
		Name:        "adversarial",
		Description: "the Figure 3 instance (K=2, m=2): run with -pick cp-last and the adversary forces ≈10 steps where the optimum needs 5",
		K:           2,
		Caps:        []int{2, 2},
		Build: func(int64) ([]sim.JobSpec, error) {
			adv, err := dag.NewAdversarial(2, 2, []int{2, 2})
			if err != nil {
				return nil, err
			}
			var specs []sim.JobSpec
			for _, g := range adv.JobSet(true) {
				specs = append(specs, sim.JobSpec{Graph: g})
			}
			return specs, nil
		},
	})
	register(Preset{
		Name:        "overload",
		Description: "7 chains on 2 processors: watch the round-robin cycles",
		K:           1,
		Caps:        []int{2},
		Build: func(int64) ([]sim.JobSpec, error) {
			var specs []sim.JobSpec
			for i := 0; i < 7; i++ {
				specs = append(specs, sim.JobSpec{Graph: dag.UniformChain(1, 4, 1).Named(fmt.Sprintf("chain-%d", i))})
			}
			return specs, nil
		},
	})
	register(Preset{
		Name:        "families",
		Description: "reduction tree, butterfly, divide-and-conquer and stencil side by side on a two-category machine",
		K:           2,
		Caps:        []int{4, 2},
		Build: func(int64) ([]sim.JobSpec, error) {
			return []sim.JobSpec{
				{Graph: dag.BinaryReduction(2, 8, 1, 2).Named("reduce")},
				{Graph: dag.Butterfly(2, 3, func(r int) dag.Category { return dag.Category(r%2 + 1) }).Named("butterfly")},
				{Graph: dag.DivideAndConquer(2, 3, 2, 1, 1, 2).Named("dnc")},
				{Graph: dag.Stencil2D(2, 6, 4, 2, 1, 2).Named("stencil")},
			}, nil
		},
	})
}

// PresetNames lists registered presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FindPreset looks a preset up by name.
func FindPreset(name string) (Preset, error) {
	p, ok := presets[name]
	if !ok {
		return Preset{}, fmt.Errorf("workload: unknown preset %q (have %v)", name, PresetNames())
	}
	return p, nil
}
