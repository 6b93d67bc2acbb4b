package main

import (
	"fmt"
	"math"
)

// virtualMetrics must not merely agree within a bound between two sets of
// the same binary on the same input: they must be identical.
var virtualMetrics = map[string]bool{
	"journal_bytes_per_job": true,
	"mean_response_steps":   true,
	"makespan_steps":        true,
}

// runAA runs two sets of repetitions of the same binary, alternating
// A B A B per workload, and holds the gap between their medians against
// each metric's bound. A benchmark that cannot pass against itself cannot
// resolve a regression of that size. The last line is the JSON result of
// the check itself.
func runAA(o options, run []*workloadDef, inputs []*input, env *environment) (int, error) {
	all, err := repeat(o, run, inputs, env, 2)
	if err != nil {
		return 0, err
	}
	printEnv(env)
	fmt.Printf("\n%-15s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "gap", "bound", "verdict")
	out := result{Correct: true, Metrics: make(map[string]metricValue)}
	fails := 0
	for i, w := range run {
		medA, problemsA := summarize(w, all[i][0])
		medB, problemsB := summarize(w, all[i][1])
		for _, p := range append(problemsA, problemsB...) {
			fmt.Println("PROBLEM:", p)
			out.Correct = false
		}
		for _, set := range all[i] {
			for _, res := range set {
				out.Attempted += res.run.attempted
				out.Failed += res.run.failed
			}
		}
		for _, m := range endToEnd {
			a, b := medA[m.name], medB[m.name]
			gap := math.Abs(relGap(a, b, m.higher))
			verdict := "pass"
			if gap > m.bound || (virtualMetrics[m.name] && a != b) {
				verdict = "FAIL"
				fails++
			}
			fmt.Printf("%-15s %-24s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", w.name, m.name, a, b, 100*gap, 100*m.bound, verdict)
			out.Metrics[w.name+"."+m.name+".aa_gap"] = metricValue{gap, "1"}
		}
	}
	fmt.Printf("\n%d of %d comparisons failed\n", fails, len(run)*len(endToEnd))
	printResult(out)
	if fails > 0 || !out.Correct {
		return 1, nil
	}
	return 0, nil
}
