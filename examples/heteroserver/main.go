// Heteroserver: an online multiprogrammed server with three functional
// resource categories — CPUs, vector units, and I/O processors — receiving
// a Poisson stream of mixed jobs (the workload the paper's introduction
// motivates: interleaved computation, communication and I/O phases, with
// special-purpose processors). Compares K-RAD against the baselines on the
// same arrival trace and prints per-scheduler response-time statistics.
//
//	go run ./examples/heteroserver [-jobs 200] [-load 2.5]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"krad"
)

func main() {
	log.SetFlags(0)
	jobsFlag := flag.Int("jobs", 200, "number of arriving jobs")
	loadFlag := flag.Float64("load", 2.0, "mean interarrival gap (smaller = heavier load)")
	seedFlag := flag.Int64("seed", 7, "workload seed")
	flag.Parse()

	// The machine: 8 CPUs, 4 vector units, 2 I/O processors.
	const K = 3
	caps := []int{8, 4, 2}

	// The job mix: CPU-heavy overall (weights 4:2:1), drawn from all
	// shapes, arriving as a Poisson process.
	mix := krad.Mix{
		K: K, Jobs: *jobsFlag, MinSize: 6, MaxSize: 80,
		CatWeights: []float64{4, 2, 1},
		Seed:       *seedFlag,
	}
	specs, err := mix.GenerateOnline(krad.Poisson(*loadFlag))
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, s := range specs {
		total += s.Graph.NumTasks()
	}
	fmt.Printf("machine: %d CPUs, %d vector units, %d I/O processors\n", caps[0], caps[1], caps[2])
	fmt.Printf("workload: %d jobs, %d tasks, Poisson arrivals (mean gap %.1f)\n\n", len(specs), total, *loadFlag)

	type row struct {
		name                string
		makespan            int64
		mean, p50, p95, max float64
		util                []float64
	}
	var rows []row
	for _, name := range []string{"k-rad", "deq-only", "rr-only", "equi", "fcfs"} {
		s := scheduler(name, K)
		res, err := krad.Run(krad.Config{
			K: K, Caps: caps, Scheduler: s, Pick: krad.PickFIFO,
		}, specs)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		resp := make([]float64, len(res.Jobs))
		for i, j := range res.Jobs {
			resp[i] = float64(j.Response())
		}
		sort.Float64s(resp)
		rows = append(rows, row{
			name:     name,
			makespan: res.Makespan,
			mean:     res.MeanResponse(),
			p50:      resp[len(resp)/2],
			p95:      resp[len(resp)*95/100],
			max:      resp[len(resp)-1],
			util:     res.Utilization(),
		})
	}

	fmt.Printf("%-10s  %8s  %10s  %8s  %8s  %8s  %s\n",
		"scheduler", "makespan", "mean resp", "p50", "p95", "max", "utilization cpu/vec/io")
	for _, r := range rows {
		fmt.Printf("%-10s  %8d  %10.1f  %8.0f  %8.0f  %8.0f  %.0f%%/%.0f%%/%.0f%%\n",
			r.name, r.makespan, r.mean, r.p50, r.p95, r.max,
			100*r.util[0], 100*r.util[1], 100*r.util[2])
	}
	fmt.Println("\nReading the table: K-RAD and EQUI post the best makespans (space")
	fmt.Println("sharing keeps processors busy). Run-to-completion policies (fcfs,")
	fmt.Println("deq-only) can show lower mean response on benign traces like this —")
	fmt.Println("but they carry no worst-case guarantee: long jobs arriving early can")
	fmt.Println("starve everything behind them (see experiment E9). K-RAD's round-")
	fmt.Println("robin cycles bound every job's delay while staying provably within")
	fmt.Println("K+1−1/Pmax of the optimal makespan on every input.")
}

func scheduler(name string, k int) krad.Scheduler {
	switch name {
	case "k-rad":
		return krad.NewKRAD(k)
	case "deq-only":
		return krad.NewDEQOnly(k)
	case "rr-only":
		return krad.NewRROnly(k)
	case "equi":
		return krad.NewEQUI(k)
	case "fcfs":
		return krad.NewFCFS(k)
	}
	log.Fatalf("unknown scheduler %q", name)
	return nil
}
