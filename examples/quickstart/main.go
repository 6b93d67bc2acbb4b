// Quickstart: build a heterogeneous job by hand, schedule it with K-RAD
// alongside a background mix, and check the paper's guarantees on the run.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"krad"
)

func main() {
	log.SetFlags(0)

	// A machine with two resource categories: 4 CPUs (category 1) and
	// 2 I/O processors (category 2).
	const K = 2
	caps := []int{4, 2}

	// An ETL-style job: read (I/O) → decode (CPU) → 6-way parallel crunch
	// (CPU) → merge (CPU) → write (I/O).
	etl := krad.NewGraph(K).Named("etl")
	read := etl.AddTask(2)
	decode := etl.AddTask(1)
	etl.MustEdge(read, decode)
	merge := etl.AddTask(1)
	for i := 0; i < 6; i++ {
		c := etl.AddTask(1)
		etl.MustEdge(decode, c)
		etl.MustEdge(c, merge)
	}
	write := etl.AddTask(2)
	etl.MustEdge(merge, write)

	fmt.Printf("job %q: tasks=%d span=%d work per category=%v\n",
		etl.Name(), etl.NumTasks(), etl.Span(), etl.WorkVector())

	// Background load: a pipeline and a map-reduce, released later.
	specs := []krad.JobSpec{
		{Graph: etl},
		{Graph: krad.Pipeline(K, 2, 5, func(s int) krad.Category { return krad.Category(s + 1) }), Release: 1},
		{Graph: krad.MapReduce(K, 8, 4, 2, 1, 1, 2), Release: 3},
	}

	res, err := krad.Run(krad.Config{
		K:         K,
		Caps:      caps,
		Scheduler: krad.NewKRAD(K),
		Pick:      krad.PickFIFO,
		Trace:     krad.TraceTasks,
	}, specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmakespan: %d steps\n", res.Makespan)
	for _, j := range res.Jobs {
		fmt.Printf("  job %d: released %d, completed %d, response %d\n",
			j.ID, j.Release, j.Completion, j.Response())
	}

	// Compare the measured schedule against the paper's bounds.
	r := krad.ComputeRatios(res)
	fmt.Printf("\nmakespan ratio vs lower bound: %.3f (Theorem 3 bound: %.3f)\n",
		r.MakespanRatio, r.MakespanBound)

	// Independently re-validate the schedule (precedence, capacity,
	// category matching) from the recorded trace.
	if err := krad.ValidateSchedule(specs, res); err != nil {
		log.Fatalf("schedule invalid: %v", err)
	}
	fmt.Println("schedule validity re-checked: OK")

	fmt.Println("\nGantt (digit = executing category):")
	fmt.Print(res.Trace.Gantt(len(res.Jobs), 100))
}
