// Quantum: the two-level deployment question — how often must the system
// allocator actually run? The paper's guarantees assume allotments are
// recomputed every unit step; real runtimes re-partition processors on a
// scheduling quantum. This example wraps K-RAD in krad.NewQuantized and
// sweeps the quantum L, printing how the makespan and mean response
// degrade, plus the worst per-job slowdown at each L.
//
//	go run ./examples/quantum [-jobs 40]
package main

import (
	"flag"
	"fmt"
	"log"

	"krad"
)

func main() {
	log.SetFlags(0)
	jobsFlag := flag.Int("jobs", 40, "batch size")
	seedFlag := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	const K = 3
	caps := []int{4, 4, 4}
	specs, err := krad.Mix{
		K: K, Jobs: *jobsFlag, MinSize: 4, MaxSize: 50, Seed: *seedFlag,
	}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	totalWork := int64(0)
	for _, s := range specs {
		totalWork += int64(s.Graph.NumTasks())
	}

	fmt.Printf("batch of %d jobs on K=%d, caps=%v\n\n", *jobsFlag, K, caps)
	fmt.Printf("%8s  %8s  %12s  %10s  %12s\n", "quantum", "makespan", "vs L=1", "mean resp", "max slowdown")

	var base int64
	for _, l := range []int64{1, 2, 4, 8, 16, 32} {
		var s krad.Scheduler = krad.NewKRAD(K)
		if l > 1 {
			s = krad.NewQuantized(s, l)
		}
		res, err := krad.Run(krad.Config{
			K: K, Caps: caps, Scheduler: s, Pick: krad.PickFIFO,
			MaxSteps: (l + 4) * (4*totalWork + 64),
		}, specs)
		if err != nil {
			log.Fatal(err)
		}
		if l == 1 {
			base = res.Makespan
		}
		fmt.Printf("%8d  %8d  %12.2f  %10.1f  %12.1f\n",
			l, res.Makespan, float64(res.Makespan)/float64(base),
			res.MeanResponse(), krad.MaxSlowdown(res))
	}

	fmt.Println("\nThe proven bounds apply at L = 1. The degradation above is the price")
	fmt.Println("of holding allotments fixed between allocator invocations: jobs whose")
	fmt.Println("parallelism shifted mid-quantum idle until the next boundary. Pick the")
	fmt.Println("quantum by how much of that price the deployment can afford.")
}
