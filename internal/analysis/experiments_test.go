package analysis

import (
	"strings"
	"testing"
)

func TestAllExperimentsRunQuickWithoutFailureNotes(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(Options{Quick: true, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Error("experiment produced no rows")
			}
			for _, n := range tbl.Notes {
				if strings.Contains(n, "FAIL") || strings.Contains(n, "UNEXPECTED") {
					t.Errorf("experiment reported: %s", n)
				}
			}
		})
	}
}

func TestFind(t *testing.T) {
	e, err := Find("E3")
	if err != nil || e.ID != "E3" {
		t.Errorf("Find(E3) = %v, %v", e.ID, err)
	}
	if _, err := Find("E99"); err == nil {
		t.Error("Find(E99) succeeded")
	}
}

func TestExperimentsAreSeedDeterministic(t *testing.T) {
	e, err := Find("E4")
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Run(Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d cell %d differs: %q vs %q", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", true)
	tbl.AddNote("note %d", 7)

	text := tbl.Render()
	for _, want := range []string{"== T: demo ==", "a", "bb", "2.500", "yes", "note: note 7"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q in:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### T — demo", "| a | bb |", "| --- | --- |", "| 1 | 2.500 |", "- note 7"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q in:\n%s", want, md)
		}
	}
}
