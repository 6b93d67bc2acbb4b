package analysis

import (
	"testing"
)

// TestE3GoldenValues pins the exact deterministic outcomes of the Figure 3
// reproduction: the adversarial makespan must equal the paper's formula
// m·K·PK + m·PK − m and the benign makespan the closed-form optimum
// K + m·PK − 1, cell for cell. Any engine or scheduler regression that
// perturbs the adversarial dance breaks this test immediately.
func TestE3GoldenValues(t *testing.T) {
	e, err := Find("E3")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Header: K Pmax m jobs Tadv paperWorst Tbenign T* ratio limit.
	type golden struct {
		k, p, m              string
		tAdv, tStar, tBenign string
	}
	want := map[[3]string][3]string{
		{"2", "2", "1"}: {"5", "3", "3"},
		{"2", "2", "2"}: {"10", "5", "5"},
		{"2", "2", "4"}: {"20", "9", "9"},
		{"2", "4", "1"}: {"11", "5", "5"},
		{"2", "4", "2"}: {"22", "9", "9"},
		{"2", "4", "4"}: {"44", "17", "17"},
		{"3", "2", "1"}: {"7", "4", "4"},
		{"3", "2", "2"}: {"14", "6", "6"},
		{"3", "2", "4"}: {"28", "10", "10"},
		{"3", "4", "1"}: {"15", "6", "6"},
		{"3", "4", "2"}: {"30", "10", "10"},
		{"3", "4", "4"}: {"60", "18", "18"},
	}
	seen := 0
	for _, row := range tbl.Rows {
		key := [3]string{row[0], row[1], row[2]}
		exp, ok := want[key]
		if !ok {
			continue
		}
		seen++
		if row[4] != exp[0] {
			t.Errorf("K=%s P=%s m=%s: adversarial makespan %s, want %s", key[0], key[1], key[2], row[4], exp[0])
		}
		if row[4] != row[5] {
			t.Errorf("K=%s P=%s m=%s: measured %s != paper formula %s", key[0], key[1], key[2], row[4], row[5])
		}
		if row[6] != exp[2] {
			t.Errorf("K=%s P=%s m=%s: benign makespan %s, want %s", key[0], key[1], key[2], row[6], exp[2])
		}
		if row[7] != exp[1] {
			t.Errorf("K=%s P=%s m=%s: closed-form %s, want %s", key[0], key[1], key[2], row[7], exp[1])
		}
	}
	if seen != len(want) {
		t.Errorf("matched %d golden rows, want %d", seen, len(want))
	}
}
