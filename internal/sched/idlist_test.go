package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// idEntry is what the model remembers of one live entry.
type idEntry struct {
	val int
	row []int
}

// checkIDList restates the list's invariants densely against the model of
// its live entries: IDs ascend, holes included; a hole reads as absent to
// every client — not Found, value 0, a zero row; no hole is at either end;
// every live entry holds what was written to it, a value that is not 0;
// the live count is right; and the holes are never due, since a Delete that
// makes them due closes them.
func checkIDList(l *IDList, model map[int]idEntry) error {
	jobs := l.Jobs()
	if len(l.rows) != len(jobs)*l.w {
		return fmt.Errorf("%d entries, %d row ints at width %d", len(jobs), len(l.rows), l.w)
	}
	live := 0
	for i, j := range jobs {
		if i > 0 && jobs[i-1].ID >= j.ID {
			return fmt.Errorf("position %d holds ID %d after ID %d, want ascending IDs", i, j.ID, jobs[i-1].ID)
		}
		_, found := l.Find(j.ID)
		e, ok := model[j.ID]
		if !ok {
			if found || j.Desire != 0 || slices.ContainsFunc(l.Row(i), func(x int) bool { return x != 0 }) {
				return fmt.Errorf("hole %d (ID %d) reads as present: found %v, value %d, row %v", i, j.ID, found, j.Desire, l.Row(i))
			}
			continue
		}
		live++
		if !found || j.Desire != e.val || !slices.Equal(l.Row(i), e.row) {
			return fmt.Errorf("entry %d (ID %d) reads value %d, row %v, found %v; model %+v", i, j.ID, j.Desire, l.Row(i), found, e)
		}
	}
	if n := len(jobs); n > 0 && (jobs[0].Desire == 0 || jobs[n-1].Desire == 0) {
		return fmt.Errorf("a hole at an end of the %d entries", n)
	}
	if live != l.live || live != len(model) {
		return fmt.Errorf("%d live entries, Live says %d, model holds %d", live, l.live, len(model))
	}
	if CompactDue(len(l.Jobs()), l.live) {
		return fmt.Errorf("%d holes in %d entries are due and still there", len(l.Jobs())-l.live, len(l.Jobs()))
	}
	return nil
}

// TestIDListChurn drives IDLists of widths 0 to 3 through random inserts —
// new IDs above every other, IDs coming back to their own holes, IDs below
// the highest, live IDs given a new value — deletes, row and value writes,
// compactions and clears, checking the list densely after every operation, and that a
// Delete drops the holes at the ends and compacts exactly when the holes
// left are due.
func TestIDListChurn(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := IDList{w: int(seed % 4)}
		model := map[int]idEntry{}
		next, compactions := 0, 0
		pick := func() int { // a live ID, the same one for the same seed
			ids := make([]int, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids[rng.Intn(len(ids))]
		}
		for op := 0; op < 4000; op++ {
			var what string
			// The list grows and drains in turns of 500 operations.
			ins, del := 20, 70
			if op/500%2 == 0 {
				ins, del = 55, 80
			}
			switch r := rng.Intn(100); {
			case r < ins:
				id := next // a release: the highest ID yet
				next += 1 + rng.Intn(2)
				if rng.Intn(3) == 0 {
					id = rng.Intn(next) // a job coming back, or one below the highest
				}
				v := 1 + rng.Intn(9)
				what = fmt.Sprintf("insert %d with value %d", id, v)
				i, added := l.Insert(id, v)
				e, was := model[id]
				if was == added {
					t.Fatalf("seed %d op %d: %s: added %v, but it was live: %v", seed, op, what, added, was)
				}
				if l.Jobs()[i].ID != id {
					t.Fatalf("seed %d op %d: %s: position %d holds ID %d", seed, op, what, i, l.Jobs()[i].ID)
				}
				if added {
					e.row = make([]int, l.w)
				}
				e.val = v
				model[id] = e
			case r < del && len(model) > 0:
				id := pick()
				what = fmt.Sprintf("delete %d", id)
				i, in := l.Find(id)
				if !in {
					t.Fatalf("seed %d op %d: %s: not found", seed, op, what)
				}
				// The rule, restated: the holes at either end are dropped,
				// and the rest are closed once they are a quarter of the
				// list and at least 32.
				lo, hi := 0, len(l.Jobs())
				jobs := l.Jobs()
				for ; lo < hi && (lo == i || jobs[lo].Desire == 0); lo++ {
				}
				for ; hi > lo && (hi-1 == i || jobs[hi-1].Desire == 0); hi-- {
				}
				n, h := hi-lo, hi-lo-(l.live-1)
				due := h >= 32 && 4*h >= n
				if !l.Delete(id) {
					t.Fatalf("seed %d op %d: %s: Delete found nothing", seed, op, what)
				}
				delete(model, id)
				if due {
					compactions++
				}
				if got := len(l.Jobs()); (due && got != l.live) || (!due && got != n) {
					t.Fatalf("seed %d op %d: %s: %d entries after, want %d (or %d compacted) with %d live; due %v", seed, op, what, got, n, l.live, l.live, due)
				}
			case r < 98 && len(model) > 0:
				id := pick()
				what = fmt.Sprintf("write %d", id)
				i, _ := l.Find(id)
				e := idEntry{val: 1 + rng.Intn(9), row: make([]int, l.w)}
				for a := range e.row {
					e.row[a] = rng.Intn(5)
				}
				l.Jobs()[i].Desire = e.val
				copy(l.Row(i), e.row)
				model[id] = e
			case rng.Intn(3) > 0:
				what = "compact"
				l.Compact()
				if len(l.Jobs()) != l.live {
					t.Fatalf("seed %d op %d: compact left %d holes", seed, op, len(l.Jobs())-l.live)
				}
			case rng.Intn(5) > 0:
				what = "delete a missing ID"
				if l.Delete(next + 1) {
					t.Fatalf("seed %d op %d: removed an ID never inserted", seed, op)
				}
			default:
				what = "clear"
				l.Clear()
				clear(model)
			}
			if err := checkIDList(&l, model); err != nil {
				t.Fatalf("seed %d op %d (%s): %v", seed, op, what, err)
			}
		}
		if compactions == 0 {
			t.Fatalf("seed %d: no Delete compacted; the churn never reached the threshold", seed)
		}
	}
}
