// Command benchgate is the repository's one regression gate: it runs the
// benchmark BENCHMARK.json declares on a parent commit and on the working
// tree, and holds every end-to-end metric on every workload against the
// bound the contract fixes for it.
//
//	go run ./cmd/benchgate <parent-ref>      (from the repository root)
//
// The parent ref is checked out into a git worktree under .bench_build/ and
// each tree runs its own benchmark command, 5 parent/head pairs per
// workload with the order flipped each pair. Every run is printed, then one
// verdict per (workload, metric): FAIL when the head median is worse than
// the parent median by more than the bound; unresolved when the parent's own
// runs spread (interquartile) wider than the bound, unless every head run
// beats every parent run; pass otherwise.
//
// Exit status is 1 on any FAIL, any run reporting correct:false, or a larger
// failed/attempted share at the head; 2 when the comparison could not be
// made. There is no tolerance flag: the bounds are the contract's.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"krad/internal/metrics"
)

const pairs = 5

var (
	sideNames = [2]string{"parent", "head"}
	passFail  = map[bool]string{true: "pass", false: "FAIL"}
)

// contract is the part of BENCHMARK.json the gate reads. Workload and
// metric names exist nowhere else in this program.
type contract struct {
	Command    []string
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metric `json:"end_to_end"`
}

type metric struct {
	Name   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening that counts as a regression
}

// result is the object a benchmark run prints as its last line.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

func loadContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Command) == 0 || c.RunSeconds <= 0 || len(c.Workloads) == 0 || len(c.EndToEnd) == 0 {
		return c, fmt.Errorf("%s: need command, run_seconds, workloads and end_to_end", path)
	}
	for _, m := range c.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			return c, fmt.Errorf("%s: metric %q: better %q, bound %v", path, m.Name, m.Better, m.Bound)
		}
	}
	return c, nil
}

// verdict is the judgement on one (workload, metric). The two checks that
// are not metrics — every run correct, failed share not larger — are rows
// of their own.
type verdict struct {
	workload, metric   string
	parent, head       float64 // medians
	gap, spread, bound float64 // relative; gap > 0 means the head is worse
	verdict            string  // "pass", "FAIL" or "unresolved"
}

// judge applies the rules in the package comment to the runs of both sides
// (parent, head), keyed by workload. A workload or metric the contract names
// and a side lacks is an error: a gate that cannot see a number must not
// pass it.
func judge(c contract, runs [2]map[string][]result) ([]verdict, error) {
	var out []verdict
	for _, w := range c.Workloads {
		var wrong, share [2]float64 // runs reporting correct:false; failed/attempted over all runs
		for s := range runs {
			if len(runs[s][w.Name]) == 0 {
				return nil, fmt.Errorf("workload %q: no %s runs", w.Name, sideNames[s])
			}
			attempted, failed := 0, 0
			for _, r := range runs[s][w.Name] {
				if !r.Correct {
					wrong[s]++
				}
				attempted += r.Attempted
				failed += r.Failed
			}
			share[s] = float64(failed) / math.Max(1, float64(attempted))
		}
		out = append(out,
			verdict{workload: w.Name, metric: "(runs not correct)", parent: wrong[0], head: wrong[1], verdict: passFail[wrong[0]+wrong[1] == 0]},
			verdict{workload: w.Name, metric: "(failed/attempted)", parent: share[0], head: share[1], verdict: passFail[share[1] <= share[0]]})
		for _, m := range c.EndToEnd {
			var vs [2][]float64
			for s := range runs {
				for i, r := range runs[s][w.Name] {
					v, ok := r.Metrics[m.Name]
					if !ok {
						return nil, fmt.Errorf("workload %q: %s run %d reports no metric %q", w.Name, sideNames[s], i+1, m.Name)
					}
					vs[s] = append(vs[s], v.Value)
				}
				sort.Float64s(vs[s])
			}
			out = append(out, judgeMetric(w.Name, m, vs[0], vs[1]))
		}
	}
	return out, nil
}

// judgeMetric takes both sides' sorted values of one metric. Gap and spread
// are relative to the parent median; a zero one makes them NaN (nothing
// moved: pass) or infinite.
func judgeMetric(workload string, m metric, p, h []float64) verdict {
	v := verdict{workload: workload, metric: m.Name, bound: m.Bound, verdict: "pass"}
	v.parent, v.head = metrics.Percentile(p, 0.5), metrics.Percentile(h, 0.5)
	v.gap = (v.head - v.parent) / math.Abs(v.parent)
	headWins := h[len(h)-1] < p[0]
	if m.Better == "higher" {
		v.gap = -v.gap
		headWins = h[0] > p[len(p)-1]
	}
	v.spread = (metrics.Percentile(p, 0.75) - metrics.Percentile(p, 0.25)) / math.Abs(v.parent)
	switch {
	case v.spread > m.Bound && !headWins:
		v.verdict = "unresolved"
	case v.gap > m.Bound:
		v.verdict = "FAIL"
	}
	return v
}

// runOnce runs the contract's command for one workload in dir, and prints
// and decodes the last line of its output. A run that exits 1 has printed a
// result with correct:false; that is a verdict, not a failure to measure.
func runOnce(c contract, dir, workload string) (result, error) {
	args := append(append([]string(nil), c.Command[1:]...),
		"--workload", workload, "--seed", "1",
		"--seconds", strconv.FormatFloat(c.RunSeconds, 'g', -1, 64), "--trace", "0")
	cmd := exec.Command(c.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return result{}, fmt.Errorf("%s in %s: %w", cmd, dir, err)
	}
	out = bytes.TrimSpace(out)
	line := out[bytes.LastIndexByte(out, '\n')+1:]
	fmt.Printf("%s\n", line)
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		return r, fmt.Errorf("%s in %s: last output line is not a result: %w", cmd, dir, err)
	}
	return r, nil
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/benchgate <parent-ref>   (from the repository root)")
		os.Exit(2)
	}
	verdicts, err := compare(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fmt.Printf("\n%-15s %-24s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "parent median", "head median", "gap", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, v := range verdicts {
		counts[v.verdict]++
		fmt.Printf("%-15s %-24s %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
			v.workload, v.metric, v.parent, v.head, 100*v.gap, 100*v.spread, 100*v.bound, v.verdict)
	}
	fmt.Printf("\n%d pass, %d FAIL, %d unresolved (%d parent/head pairs per workload)\n",
		counts["pass"], counts["FAIL"], counts["unresolved"], pairs)
	if counts["FAIL"] > 0 {
		os.Exit(1)
	}
}

// compare measures both trees, printing every run as it finishes.
func compare(ref string) ([]verdict, error) {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	// The parent goes into a detached worktree, replacing what a killed
	// earlier run may have left registered there.
	dirs := [2]string{filepath.Join(".bench_build", "parent"), "."}
	remove := func() {
		_ = exec.Command("git", "worktree", "remove", "--force", dirs[0]).Run() // nothing registered is fine
		_ = os.RemoveAll(dirs[0])
	}
	remove()
	if out, err := exec.Command("git", "worktree", "add", "--detach", "--force", dirs[0], ref).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("git worktree add %s %s: %w\n%s", dirs[0], ref, err, out)
	}
	defer remove()
	runs := [2]map[string][]result{{}, {}}
	for pair := 0; pair < pairs; pair++ {
		for _, w := range c.Workloads {
			for k := 0; k < 2; k++ {
				s := (k + pair) % 2 // which side goes first flips each pair
				fmt.Printf("pair %d %-6s %-15s ", pair+1, sideNames[s], w.Name)
				r, err := runOnce(c, dirs[s], w.Name)
				if err != nil {
					return nil, err
				}
				runs[s][w.Name] = append(runs[s][w.Name], r)
			}
		}
	}
	return judge(c, runs)
}
