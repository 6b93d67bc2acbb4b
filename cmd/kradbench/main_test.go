package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"krad/internal/analysis"
)

var generatedIn = regexp.MustCompile(`generated in [^*]+\*`)

// maskTimings blanks the cells of the EXPERIMENTS.md body that depend on
// the machine: every "generated in" stamp, and the wall and tasks/sec
// columns of the two throughput tables (E10, E12). Every other cell is
// deterministic for a given seed.
func maskTimings(body string) string {
	lines := strings.Split(body, "\n")
	section := ""
	var masked []int // wall-clock column indexes of the current table
	for n, line := range lines {
		switch {
		case strings.HasPrefix(line, "### "):
			section, masked = strings.Fields(line)[1], nil
		case strings.HasPrefix(line, "*source:"):
			lines[n] = generatedIn.ReplaceAllString(line, "generated in ~*")
		case strings.HasPrefix(line, "| ") && (section == "E10" || section == "E12"):
			cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | ")
			if masked == nil { // the header row names the columns
				for i, c := range cells {
					if c == "wall" || c == "tasks/sec" {
						masked = append(masked, i)
					}
				}
				continue
			}
			for _, i := range masked {
				cells[i] = "~"
			}
			lines[n] = "| " + strings.Join(cells, " | ") + " |"
		}
	}
	return strings.Join(lines, "\n")
}

// TestExperimentsFileIsCurrent regenerates every experiment at the
// documented seed and compares the result with the checked-in
// EXPERIMENTS.md cell for cell, timings aside — so a change that moves a
// makespan, a ratio or a count anywhere in E1–E21 has to show it there.
func TestExperimentsFileIsCurrent(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const rule = "\n---\n\n"
	at := strings.Index(string(doc), rule)
	if at < 0 {
		t.Fatal("EXPERIMENTS.md has no --- rule before the generated body")
	}
	want := maskTimings(string(doc[at+len(rule):]))

	var body bytes.Buffer
	failures, err := run(&body, analysis.All(), analysis.Options{Seed: 1}, true)
	if err != nil || failures != 0 {
		t.Fatalf("run: %d bound violations, err %v", failures, err)
	}
	got := maskTimings(body.String())
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("EXPERIMENTS.md body line %d differs (regenerate with `go run ./cmd/kradbench -markdown -seed 1`):\n got  %s\n file %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md body has %d lines, regenerated %d", len(wl), len(gl))
}
