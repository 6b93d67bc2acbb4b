package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// quickDigest is the SHA-256 of every experiment's markdown table under
// Options{Quick: true, Seed: 11}, timings masked.
const quickDigest = "4c8ab9c703005e6bfd184bea8b7d49c9dbed57de1530e18579b1a6685c5fde57"

// TestQuickSweepsAreUnchanged pins the reduced sweeps that `go test` and the
// E-benchmarks run, which EXPERIMENTS.md does not show: a change that moves
// any cell of them, timings aside, has to update quickDigest. It also holds
// every row to its header's width — Render indexes the column widths per
// cell, and Markdown would draw a short row as a ragged table.
func TestQuickSweepsAreUnchanged(t *testing.T) {
	var body strings.Builder
	for _, e := range analysis.All() {
		tbl, err := e.Run(analysis.Options{Quick: true, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for i, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Errorf("%s row %d has %d cells, header %d", e.ID, i, len(row), len(tbl.Header))
			}
		}
		body.WriteString(tbl.Markdown() + "\n")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(maskTimings(body.String())))); got != quickDigest {
		t.Errorf("quick sweeps digest %s, want %s", got, quickDigest)
	}
}
