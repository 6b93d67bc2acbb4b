// Command kradbench runs the reproduction experiment suite (E1–E21 from
// DESIGN.md) and prints each experiment's table. With -markdown it emits
// the EXPERIMENTS.md body; with -run it restricts to a comma-separated set
// of experiment IDs.
//
// Usage:
//
//	kradbench [-run E3,E4] [-quick] [-seed N] [-markdown] [-o file]
//
// Performance is measured elsewhere: `go test -bench` runs the micro
// suite (bench_test.go), benchmark/ is the repository's benchmark, and
// cmd/benchgate compares two commits on it.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"krad/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kradbench: ")
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick    = flag.Bool("quick", false, "use the reduced test-scale sweeps")
		seed     = flag.Int64("seed", 1, "workload seed")
		markdown = flag.Bool("markdown", false, "emit markdown instead of plain text")
		outPath  = flag.String("o", "", "write output to file instead of stdout")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		out = f
	}

	experiments := analysis.All()
	if *runIDs != "" {
		var selected []analysis.Experiment
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := analysis.Find(strings.TrimSpace(id))
			if err != nil {
				log.Fatal(err)
			}
			selected = append(selected, e)
		}
		experiments = selected
	}

	failures, err := run(out, experiments, analysis.Options{Quick: *quick, Seed: *seed}, *markdown)
	if err != nil {
		log.Fatal(err)
	}
	if failures > 0 {
		log.Fatalf("%d bound violations — the reproduction does NOT match the paper", failures)
	}
}

// run renders each experiment's table to out — the EXPERIMENTS.md body
// when markdown is set — and counts the notes that report a violated bound.
func run(out io.Writer, experiments []analysis.Experiment, opts analysis.Options, markdown bool) (failures int, err error) {
	for _, e := range experiments {
		start := time.Now()
		tbl, err := e.Run(opts)
		if err != nil {
			return failures, fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if markdown {
			fmt.Fprintf(out, "%s\n*source: %s; generated in %s*\n\n", tbl.Markdown(), e.Source, elapsed)
		} else {
			fmt.Fprintf(out, "%s(source: %s; generated in %s)\n\n", tbl.Render(), e.Source, elapsed)
		}
		for _, n := range tbl.Notes {
			if strings.Contains(n, "FAIL") || strings.Contains(n, "UNEXPECTED") {
				failures++
				log.Printf("%s: %s", e.ID, n)
			}
		}
	}
	return failures, nil
}
