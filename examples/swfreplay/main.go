// Swfreplay: replay a Standard Workload Format log (the Parallel Workloads
// Archive format) through the K-resource simulator. Without -log it
// generates a synthetic archive-shaped log first, so the example is
// self-contained; point -log at a real archive trace (e.g. a *.swf from
// the Feitelson archive) to replay production traffic.
//
//	go run ./examples/swfreplay [-log trace.swf] [-jobs 300] [-scale 60]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"krad"
)

func main() {
	log.SetFlags(0)
	logPath := flag.String("log", "", "SWF log file (empty = generate a synthetic one)")
	jobs := flag.Int("jobs", 300, "jobs for the synthetic log / cap for real logs")
	scale := flag.Int64("scale", 60, "seconds per simulation step")
	seed := flag.Int64("seed", 1, "synthetic log seed")
	flag.Parse()

	const K = 3
	caps := []int{16, 16, 16}

	var reader *strings.Reader
	if *logPath == "" {
		var b strings.Builder
		if err := krad.WriteSyntheticSWF(&b, *jobs, *seed); err != nil {
			log.Fatal(err)
		}
		reader = strings.NewReader(b.String())
		fmt.Printf("generated synthetic SWF log with %d jobs\n", *jobs)
	} else {
		data, err := os.ReadFile(*logPath)
		if err != nil {
			log.Fatal(err)
		}
		reader = strings.NewReader(string(data))
		fmt.Printf("replaying %s\n", *logPath)
	}

	specs, recs, err := krad.ParseSWF(reader, krad.SWFOptions{
		K: K, TimeScale: *scale, MaxJobs: *jobs, MaxProcs: 16,
		Category: func(rec krad.SWFRecord, _ int) krad.Category {
			p := rec.Partition
			if p < 1 {
				p = 1
			}
			return krad.Category((p-1)%K + 1)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	totalWork := 0
	for _, s := range specs {
		totalWork += s.Source.TotalTasks()
	}
	fmt.Printf("%d usable jobs, %d processor-steps of work, categories from the partition field\n\n",
		len(recs), totalWork)

	fmt.Printf("%-10s  %8s  %7s  %10s  %8s  %8s\n", "scheduler", "makespan", "ratio", "mean resp", "p95 resp", "util")
	for _, name := range []string{"k-rad", "deq-only", "rr-only", "equi", "fcfs"} {
		s, err := krad.NewScheduler(name, K)
		if err != nil {
			log.Fatal(err)
		}
		res, err := krad.Run(krad.Config{
			K: K, Caps: caps, Scheduler: s, ValidateAllotments: true,
		}, specs)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		resp := make([]float64, len(res.Jobs))
		for i, j := range res.Jobs {
			resp[i] = float64(j.Response())
		}
		sort.Float64s(resp)
		lb := krad.MakespanLowerBound(res)
		var util float64
		for _, u := range res.Utilization() {
			util += u
		}
		fmt.Printf("%-10s  %8d  %7.3f  %10.1f  %8.0f  %7.0f%%\n",
			name, res.Makespan, float64(res.Makespan)/float64(lb),
			res.MeanResponse(), resp[len(resp)*95/100], 100*util/float64(K))
	}
	fmt.Println("\nEvery run stays within the paper's K+1−1/Pmax makespan bound; the")
	fmt.Println("ratio column shows how far above the work/span lower bound each")
	fmt.Println("scheduler lands on archive-shaped traffic.")
}
