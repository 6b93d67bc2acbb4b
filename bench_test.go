package krad_test

// The micro suite, and CI's bench smoke: one testing.B target per experiment
// in DESIGN.md's per-experiment index (E1–E21), each running the full table
// generation so `go test -bench=.` regenerates every reproduced figure/table,
// plus microbenchmarks of the engines and the scheduling primitives. Table
// output itself is produced by cmd/kradbench; here the work is measured.
// These are for measuring while you work: regressions are judged by
// cmd/benchgate on the repository's benchmark (benchmark/, BENCHMARK.json).

import (
	"fmt"
	"runtime"
	"testing"

	"krad"
	"krad/internal/profile"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := krad.FindExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(krad.ExperimentOptions{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1_KDAGModel(b *testing.B)               { benchExperiment(b, "E1") }
func BenchmarkE2_RADStep(b *testing.B)                 { benchExperiment(b, "E2") }
func BenchmarkE3_AdversarialLowerBound(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4_MakespanCompetitiveness(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5_MRTLightLoad(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE6_MRTHeavyLoad(b *testing.B)            { benchExperiment(b, "E6") }
func BenchmarkE7_K1MeanResponse(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8_BaselineComparison(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9_Ablations(b *testing.B)               { benchExperiment(b, "E9") }
func BenchmarkE10_EngineScaling(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11_PerfHeterogeneity(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12_ProfileRepresentation(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13_QuantumSensitivity(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14_InductionReplay(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15_FairnessPrice(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16_NonPreemptive(b *testing.B)          { benchExperiment(b, "E16") }
func BenchmarkE17_ReallocationChurn(b *testing.B)      { benchExperiment(b, "E17") }
func BenchmarkE18_SWFReplay(b *testing.B)              { benchExperiment(b, "E18") }
func BenchmarkE19_Randomization(b *testing.B)          { benchExperiment(b, "E19") }
func BenchmarkE20_ExactRatios(b *testing.B)            { benchExperiment(b, "E20") }
func BenchmarkE21_SpeedAugmentation(b *testing.B)      { benchExperiment(b, "E21") }

// BenchmarkProfileEngine measures the compact profile representation at a
// scale the per-task DAG representation cannot reach.
func BenchmarkProfileEngine(b *testing.B) {
	specs, err := krad.GenerateProfiles(krad.ProfileGenOpts{
		K: 3, Jobs: 64, MinPhases: 2, MaxPhases: 8, MaxParallelism: 100_000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tasks := 0
	for _, s := range specs {
		tasks += s.Source.TotalTasks()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 3, Caps: []int{256, 256, 256}, Scheduler: krad.NewKRAD(3),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// denseLayeredSpecs builds the level-structured K-DAG workload the DAG
// event-leap targets: each job stacks dense levels — a wide level of width
// same-category tasks, then a one-task barrier join, then the next wide
// level — so per-category ready counts stay constant while a level drains.
// Categories rotate across jobs and levels so every category stays busy.
func denseLayeredSpecs(k, jobs, width, levels int) []krad.JobSpec {
	specs := make([]krad.JobSpec, jobs)
	for j := 0; j < jobs; j++ {
		layers := make([]krad.LayerSpec, 0, 2*levels-1)
		for l := 0; l < levels; l++ {
			layers = append(layers, krad.LayerSpec{Count: width, Cat: krad.Category(1 + (j+l)%k)})
			if l < levels-1 {
				layers = append(layers, krad.LayerSpec{Count: 1, Cat: krad.Category(1 + (j+l+1)%k)})
			}
		}
		specs[j] = krad.JobSpec{Graph: krad.Layered(k, layers, true)}
	}
	return specs
}

// BenchmarkDAGEngine measures a dense-layered K-DAG workload end to end —
// the shape every kradd deployment runs (the HTTP API admits graphs only),
// and the target of the DAG event-leap.
func BenchmarkDAGEngine(b *testing.B) {
	specs := denseLayeredSpecs(2, 8, 2048, 4)
	tasks := 0
	for _, s := range specs {
		tasks += s.Graph.NumTasks()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{8, 8}, Scheduler: krad.NewKRAD(2),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkMixedEngine measures a mixed population: compact profile jobs
// and dense-layered DAG jobs sharing the machine. Leap eligibility must be
// decided per round across heterogeneous runtimes.
func BenchmarkMixedEngine(b *testing.B) {
	specs := denseLayeredSpecs(2, 4, 1024, 4)
	profiles, err := krad.GenerateProfiles(krad.ProfileGenOpts{
		K: 2, Jobs: 4, MinPhases: 2, MaxPhases: 4, MaxParallelism: 50_000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	specs = append(specs, profiles...)
	tasks := 0
	for _, s := range specs {
		if s.Graph != nil {
			tasks += s.Graph.NumTasks()
		} else {
			tasks += s.Source.TotalTasks()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{48, 48}, Scheduler: krad.NewKRAD(2),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// moldableBenchSpecs draws the seeded moldable workload shared by the
// moldable and mixed-family engine benchmarks.
func moldableBenchSpecs(jobs int, seed int64) []krad.JobSpec {
	return krad.GenerateMoldable(krad.MoldableGenOpts{
		K: 2, Jobs: jobs, MinTasks: 8, MaxTasks: 24, MaxWork: 4096, MaxProcs: 6, Seed: seed,
	})
}

// BenchmarkMoldableEngine measures a pure-moldable population, whose floors
// the engine grants: long non-preemptive leases are the hold-law
// event-leap's target, so most virtual steps should be leapt.
func BenchmarkMoldableEngine(b *testing.B) {
	specs := moldableBenchSpecs(16, 3)
	tasks := 0
	for _, s := range specs {
		tasks += s.Source.TotalTasks()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{12, 12}, Scheduler: krad.NewKRAD(2),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkMixedFamilyEngine measures all three runtime families — dense
// DAG, compact profile and moldable — sharing one engine step loop. Leap
// eligibility mixes the drain law (profile/DAG) with the hold law
// (moldable) each round.
func BenchmarkMixedFamilyEngine(b *testing.B) {
	specs := denseLayeredSpecs(2, 3, 1024, 4)
	profiles, err := krad.GenerateProfiles(krad.ProfileGenOpts{
		K: 2, Jobs: 3, MinPhases: 2, MaxPhases: 4, MaxParallelism: 50_000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	specs = append(specs, profiles...)
	specs = append(specs, moldableBenchSpecs(6, 11)...)
	tasks := 0
	for _, s := range specs {
		if s.Graph != nil {
			tasks += s.Graph.NumTasks()
		} else {
			tasks += s.Source.TotalTasks()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{48, 48}, Scheduler: krad.NewKRAD(2),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkDeq measures the Figure 2 DEQ primitive across regimes.
func BenchmarkDeq(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		desires := make([]int, n)
		for i := range desires {
			desires[i] = 1 + i%13
		}
		for _, p := range []int{n / 2, 2 * n} {
			b.Run(fmt.Sprintf("jobs=%d/p=%d", n, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					krad.Deq(desires, p, i)
				}
			})
		}
	}
}

// BenchmarkKRADAllot measures a full K-RAD allotment step.
func BenchmarkKRADAllot(b *testing.B) {
	for _, cfg := range []struct{ k, n int }{{1, 16}, {3, 64}, {3, 512}, {8, 256}} {
		b.Run(fmt.Sprintf("K=%d/jobs=%d", cfg.k, cfg.n), func(b *testing.B) {
			s := krad.NewKRAD(cfg.k)
			caps := make([]int, cfg.k)
			for i := range caps {
				caps[i] = 8
			}
			jobs := make([]krad.JobView, cfg.n)
			for i := range jobs {
				d := make([]int, cfg.k)
				for a := range d {
					d[a] = (i + a) % 7
				}
				jobs[i] = krad.JobView{ID: i, Desire: d}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Allot(int64(i), jobs, caps)
			}
		})
	}
}

// BenchmarkEngineRound measures one scheduling round of the engine kradd
// ships (K-RAD, allotment validation on) against the size of the active
// set: K=3, 16 processors per category, rigid jobs. In
// the active=N variants no job completes while the clock runs and every
// category is overloaded, so each round is RAD's round-robin branch — 48
// processors handed out whatever the queue length — and ns/round should be
// flat in N. Those jobs never finish, so they never leave a hole in the slot
// table: the drain=N variants run the benchmark's overload_drain population
// (rigid jobs, 1–4 processors, 8–63 steps; 4,000 of them in the benchmark)
// at N jobs from release to idle, completions, compactions and
// cycle-completing rounds included. Every round hands out the same 48
// processors, so ns/round should not grow with N either. A rigid job never
// leaves its category, so the reenter=N variant drains N profile jobs whose
// phases alternate between two categories: each phase change takes the job
// out of one category's α-active list and back into the other's, where it
// refills the hole it left there, if that is still open.
func BenchmarkEngineRound(b *testing.B) {
	newEngine := func(b *testing.B, specs []krad.JobSpec) *krad.Engine {
		eng, err := krad.NewEngine(krad.Config{
			K: 3, Caps: []int{16, 16, 16}, Scheduler: krad.NewKRAD(3),
			ValidateAllotments: true, MaxSteps: 1 << 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.AdmitBatch(specs); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	for _, active := range []int{64, 512, 4096, 32768} {
		b.Run(fmt.Sprintf("active=%d", active), func(b *testing.B) {
			specs := make([]krad.JobSpec, active)
			for j := range specs {
				specs[j] = krad.JobSpec{Source: profile.MustNewRigid(3, "r", krad.Category(1+j%3), 1+(j/3)%4, 1<<40)}
			}
			eng := newEngine(b, specs)
			if _, err := eng.Step(); err != nil { // release and size every buffer
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
		})
	}
	drain := func(b *testing.B, specs []krad.JobSpec) {
		b.ReportAllocs()
		var rounds int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := newEngine(b, specs)
			b.StartTimer()
			for {
				info, err := eng.Step()
				if err != nil {
					b.Fatal(err)
				}
				if info.Idle {
					break
				}
				rounds++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	}
	for _, jobs := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("drain=%d", jobs), func(b *testing.B) {
			specs := make([]krad.JobSpec, jobs)
			for j := range specs {
				c := j / 3
				specs[j] = krad.JobSpec{Source: profile.MustNewRigid(3, "ovl", krad.Category(1+j%3), 1+c%4, 8+(c/4)%56)}
			}
			drain(b, specs)
		})
	}
	b.Run("reenter=4000", func(b *testing.B) {
		specs := make([]krad.JobSpec, 4000)
		for j := range specs {
			phases := make([]profile.Phase, 6)
			for p := range phases {
				phases[p].Tasks = make([]int, 3)
				phases[p].Tasks[(j+p%2)%3] = 2 + (j/3+p)%6
			}
			specs[j] = krad.JobSpec{Source: profile.MustNew(3, "alt", phases)}
		}
		drain(b, specs)
	})
}

// BenchmarkEngineChurn measures a steady admit→complete stream — rigid 0.7,
// chain DAG 0.2, moldable 0.1, eight admissions per four steps, the shape
// of the benchmark's tenant_churn — with Retire off and on. One op is one
// admitted job; heap-B/job is the live heap after GC per admitted job, so
// anything a finished job still pins shows up there.
func BenchmarkEngineChurn(b *testing.B) {
	molds := krad.GenerateMoldable(krad.MoldableGenOpts{
		K: 2, Jobs: 8, MinTasks: 3, MaxTasks: 8, MaxWork: 4, MaxProcs: 3, Seed: 7,
	})
	specs := make([]krad.JobSpec, 80)
	for j := range specs {
		switch {
		case j%10 < 7:
			specs[j] = krad.JobSpec{Source: profile.MustNewRigid(2, "r", krad.Category(1+j%2), 1+j%3, 2+j%5)}
		case j%10 < 9:
			specs[j] = krad.JobSpec{Graph: krad.RoundRobinChain(2, 3+j%6)}
		default:
			specs[j] = molds[j/10%len(molds)]
		}
	}
	for _, retire := range []bool{false, true} {
		b.Run(fmt.Sprintf("retire=%v", retire), func(b *testing.B) {
			eng, err := krad.NewEngine(krad.Config{
				K: 2, Caps: []int{16, 16}, Scheduler: krad.NewKRAD(2), MaxSteps: 1 << 60,
			})
			if err != nil {
				b.Fatal(err)
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			base := ms.HeapAlloc
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := specs[i%len(specs)]
				spec.Release = eng.Now()
				if _, err := eng.Admit(spec); err != nil {
					b.Fatal(err)
				}
				if i%8 != 7 {
					continue
				}
				info, err := eng.StepN(4)
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range info.Completed {
					if retire {
						if err := eng.Retire(id); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b.ReportMetric((float64(ms.HeapAlloc)-float64(base))/float64(b.N), "heap-B/job")
			runtime.KeepAlive(eng)
		})
	}
}

// BenchmarkEngineRun measures end-to-end simulation throughput.
func BenchmarkEngineRun(b *testing.B) {
	for _, n := range []int{20, 100, 400} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			specs, err := krad.Mix{K: 3, Jobs: n, MinSize: 10, MaxSize: 50, Seed: 1}.Generate()
			if err != nil {
				b.Fatal(err)
			}
			tasks := 0
			for _, s := range specs {
				tasks += s.Graph.NumTasks()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := krad.Run(krad.Config{
					K: 3, Caps: []int{8, 8, 8}, Scheduler: krad.NewKRAD(3),
				}, specs)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
			b.ReportMetric(float64(tasks), "tasks/op")
		})
	}
}

// BenchmarkAdversarialInstance measures Figure 3 construction + execution
// at the scale used by E3's largest row.
func BenchmarkAdversarialInstance(b *testing.B) {
	caps := []int{4, 4, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := krad.NewAdversarial(3, 8, caps)
		if err != nil {
			b.Fatal(err)
		}
		jobs := adv.JobSet(true)
		specs := make([]krad.JobSpec, len(jobs))
		for j, g := range jobs {
			specs[j] = krad.JobSpec{Graph: g}
		}
		if _, err := krad.Run(krad.Config{
			K: 3, Caps: caps, Scheduler: krad.NewKRAD(3), Pick: krad.PickCPLast,
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSqSum measures the Definition 4 primitive.
func BenchmarkSqSum(b *testing.B) {
	works := make([]int, 1000)
	for i := range works {
		works[i] = (i * 37) % 211
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		krad.SqSum(works)
	}
}
