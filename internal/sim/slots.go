package sim

import (
	"fmt"
	"slices"
	"sort"

	"krad/internal/dag"
	"krad/internal/sched"
)

// The slot table is the engine's persistent view of the active set: slot i
// describes e.active[i], and every per-slot array below is kept parallel to
// e.active through releases, cancels and completions. A scheduling round
// rebuilds nothing: the scheduler is told of each change to the table as it
// is made (e.delta), and only the slots the round touched (non-zero
// allotment row) are re-read from the runtimes, so a round costs the
// processors it hands out plus what changed, not the jobs that wait.
//
// The table also grants the floors — processors that started
// non-preemptive tasks pin — so no scheduler has to: a slot reports its
// residual desire, max(desire − floor, 0), the scheduler partitions the
// capacity the floors leave (pinned), and every floor-bearing job
// (floorIDs) gains its floor row on top of its grants.
//
// A job that ends leaves a hole: its slot stays where it is, with a nil job,
// a zero desire row, no floor, flags 0 and a zero allotment row, so a
// completion moves nothing. compact closes every hole in one pass once they
// are a fixed share of the table (closeHoles), and before anything that
// reads the table densely: an event-leap, an Observer, an insert below the
// highest ID, growth. Live slots ascend by ID, and so do the IDs the views
// of the holes keep. An active job's status record holds its slot
// (statusTable.activeSlot), so a grant finds its row without a search.
//
// That is sound because of the idle-step law in the RuntimeJob contract: a job
// that executes nothing in a step does not change Desire, Floor, Done or
// hold state in that step. The invariant between rounds is therefore
//
//	views[i].Desire/Floor, flags[i] == a fresh read of active[i].rt (zero for a hole)
//	activeCount, hardFloors, softUnheld, noLeap, pinned == sums over the slots
//	floorIDs == the IDs of the slots whose view carries floors, ascending
//	live == the slots that are not holes
//	allot rows == all zero
//
// and checkSlots (the test oracle behind CheckSlots) restates it densely.

// Per-slot flags: what the slot contributes to the leap aggregates.
const (
	// slotHeld: hold-capable and desire == floor > 0 somewhere, == floor
	// everywhere — the whole frontier is in flight, so repeating the floor
	// allotment only counts down leases (the hold law).
	slotHeld uint8 = 1 << iota
	// slotSoftUnheld: hold-capable but not held this round.
	slotSoftUnheld
	// slotHardFloor: pins processors without hold capability (no shipped
	// runtime does; external FloorRuntimes may); blocks leaping outright.
	slotHardFloor
	// slotNoLeap: neither held nor drain-law leapable.
	slotNoLeap
)

// growSlots makes room for n slots. Storage is sized to the active set, not
// to the admitted one: pending jobs own no slot. Rows are fixed to their
// position — views[i].Desire is always desire[i*k:(i+1)*k] — so moving a
// slot copies contents and never re-points a slice. insertActive closes the
// holes first, so only live slots are copied.
func (e *Engine) growSlots(n int) {
	k := e.cfg.K
	c := n + n/2 + 8
	used := len(e.views)

	desire := make([]int, c*k)
	copy(desire, e.desire)
	e.desire = desire
	views := make([]sched.JobView, c)
	copy(views, e.views)
	for i := range views {
		views[i].Desire = desire[i*k : (i+1)*k : (i+1)*k]
	}
	e.views = views[:used]
	if e.floor != nil {
		e.floor = nil
		e.growFloors()
	}
	flags := make([]uint8, used, c)
	copy(flags, e.flags)
	e.flags = flags
	// Rows are all zero between rounds, so there is nothing to copy.
	e.allotBack = make([]int, c*k)
	e.allot = make([][]int, c)
	for i := range e.allot {
		e.allot[i] = e.allotBack[i*k : (i+1)*k : (i+1)*k]
	}
}

// growFloors (re)allocates the floor rows at the table's capacity — only
// once a floor-bearing runtime is released; unit-task populations never pay
// for them — and re-points the views that carry one.
func (e *Engine) growFloors() {
	k := e.cfg.K
	floor := make([]int, cap(e.views)*k)
	for i := range e.views {
		if v := &e.views[i]; v.Floor != nil {
			row := floor[i*k : (i+1)*k : (i+1)*k]
			copy(row, v.Floor)
			v.Floor = row
		}
	}
	e.floor = floor
}

// insertActive gives a released job its slot, keeping ascending ID order —
// the order the Scheduler contract requires views in — and writes the slot
// into its status record with the move to JobActive. Releases normally
// arrive in ID order, so this is an append; a job admitted late with an
// early release closes the holes and shifts the slots above it up by one.
func (e *Engine) insertActive(js *jobState) {
	n := len(e.active)
	if n > 0 && e.views[n-1].ID > js.id {
		e.compact()
		n = len(e.active)
	}
	if n == cap(e.views) {
		// Full: close the holes, and grow only when live jobs fill the
		// table, so it is never larger than one without holes.
		e.compact()
		if n = len(e.active); n == cap(e.views) {
			e.growSlots(n + 1)
		}
	}
	if js.caps.floor != nil && e.floor == nil {
		e.growFloors()
	}
	e.active = append(e.active, js)
	e.views = e.views[:n+1]
	e.flags = e.flags[:n+1]
	i := n
	if n > 0 && e.views[n-1].ID > js.id {
		i = sort.Search(n, func(i int) bool { return e.active[i].id > js.id })
		for x := n; x > i; x-- {
			e.moveSlot(x, x-1)
		}
		e.active[i] = js
	}
	e.live++
	e.recs.SetPhase(js.id, JobActive, int64(i))
	v := &e.views[i]
	v.ID, v.Floor = js.id, nil
	for a := range v.Desire {
		v.Desire[a] = 0
	}
	e.flags[i] = 0
	e.refreshSlot(i)
	// Read against a row of zeros — what a job not yet active reports — so
	// the flagged categories are the ones it enters.
	e.report(i)
}

// moveSlot copies live slot src over slot dst (compaction, insertActive's
// shift) and writes dst into the job's status record. Allotment rows are
// not moved: they are zero whenever slots move.
func (e *Engine) moveSlot(dst, src int) {
	j := e.active[src]
	e.active[dst] = j
	e.recs.setSlot(j.id, dst)
	fl := e.flags[src]
	e.flags[dst] = fl
	d, s := &e.views[dst], &e.views[src]
	d.ID = s.ID
	for a, v := range s.Desire {
		d.Desire[a] = v
	}
	if s.Floor != nil {
		k := e.cfg.K
		row := e.floor[dst*k : (dst+1)*k : (dst+1)*k]
		for a, v := range s.Floor {
			row[a] = v
		}
		d.Floor = row
	} else if d.Floor != nil {
		d.Floor = nil
	}
}

// compact closes every hole, sliding each live slot down to the first free
// position below it. It runs while the allotment rows are zero.
func (e *Engine) compact() {
	n := len(e.active)
	if e.live == n {
		return
	}
	w := 0
	for i, j := range e.active {
		if j == nil {
			continue
		}
		if w != i {
			e.moveSlot(w, i)
		}
		w++
	}
	clear(e.active[w:n])
	e.active = e.active[:w]
	e.views = e.views[:w]
	e.flags = e.flags[:w]
}

// closeHoles compacts the table once its holes are due (sched.CompactDue).
func (e *Engine) closeHoles() {
	if sched.CompactDue(len(e.active), e.live) {
		e.compact()
	}
}

// rereadSlot is refreshSlot for a slot the scheduler already knows: it is
// told only when a row actually changed.
func (e *Engine) rereadSlot(i int) {
	if e.refreshSlot(i) {
		e.report(i)
	}
}

// report tells the scheduler slot i's residual desire — its desire less its
// floor, at least 0 — flagging what refreshSlot flagged: a residual entry
// moves only where the desire or the floor does.
func (e *Engine) report(i int) {
	v := &e.views[i]
	d := v.Desire
	if v.Floor != nil {
		d = e.residual
		for a, f := range v.Floor {
			d[a] = max(v.Desire[a]-f, 0)
		}
	}
	e.delta.JobChanged(v.ID, d, e.changed)
	e.resetChanged()
}

// resetChanged clears the flags refreshSlot set. K is small: a loop that
// the compiler does not turn into a memclr call is the cheaper form.
func (e *Engine) resetChanged() {
	for a, c := range e.changed {
		if c {
			e.changed[a] = false
		}
	}
}

// refreshSlot re-reads slot i's desires, floors and leap classification
// from its runtime and folds the difference into the aggregates, pinned and
// floorIDs included. It reports whether the desire or floor row changed —
// what the residual row the scheduler sees is made of — and flags in
// e.changed (clear on entry; the caller clears it again) which categories
// did.
func (e *Engine) refreshSlot(i int) (changed bool) {
	j := e.active[i]
	v := &e.views[i]
	d := v.Desire
	for a := range d {
		now := j.rt.Desire(dag.Category(a + 1))
		if now == d[a] {
			continue
		}
		changed, e.changed[a] = true, true
		if (now > 0) != (d[a] > 0) {
			if now > 0 {
				e.activeCount[a]++
			} else {
				e.activeCount[a]--
			}
		}
		d[a] = now
	}
	var fl uint8
	if j.caps.floor != nil {
		k := e.cfg.K
		row := e.floor[i*k : (i+1)*k : (i+1)*k]
		was := v.Floor != nil
		any, atFloor := false, true
		for a := range row {
			now, old := j.caps.floor.Floor(dag.Category(a+1)), 0
			// The row is this slot's last read only while the view carries
			// it; otherwise every floor was zero.
			if was {
				old = row[a]
			}
			if now != old {
				changed, e.changed[a] = true, true
				e.pinned[a] += now - old
			}
			row[a] = now
			any = any || now > 0
			atFloor = atFloor && now == d[a]
		}
		v.Floor = nil
		if any {
			v.Floor = row
		}
		if any != was {
			e.setFloored(v.ID, any)
		}
		switch {
		case j.caps.hold == nil:
			if any {
				fl |= slotHardFloor
			}
		case any && atFloor:
			fl |= slotHeld
		default:
			fl |= slotSoftUnheld
		}
	}
	if fl&slotHeld == 0 && j.caps.leap == nil {
		fl |= slotNoLeap
	}
	if old := e.flags[i]; old != fl {
		e.countFlags(old, -1)
		e.countFlags(fl, +1)
		e.flags[i] = fl
	}
	return changed
}

// countFlags adds by to every leap aggregate fl contributes to.
func (e *Engine) countFlags(fl uint8, by int) {
	if fl&slotSoftUnheld != 0 {
		e.softUnheld += by
	}
	if fl&slotHardFloor != 0 {
		e.hardFloors += by
	}
	if fl&slotNoLeap != 0 {
		e.noLeap += by
	}
}

// setFloored adds job id to floorIDs, or takes it out.
func (e *Engine) setFloored(id int, on bool) {
	i, _ := slices.BinarySearch(e.floorIDs, id)
	if on {
		e.floorIDs = slices.Insert(e.floorIDs, i, id)
	} else {
		e.floorIDs = slices.Delete(e.floorIDs, i, i+1)
	}
}

// dropSlot withdraws slot i's contributions from the aggregates, tells the
// scheduler its job is gone and leaves a hole in its place: no job, a zero
// desire row, no floor, no flags. The desire row is a valid hint for JobGone:
// it is positive wherever the residual row last reported is.
func (e *Engine) dropSlot(i int) {
	v := &e.views[i]
	for a, d := range v.Desire {
		if d > 0 {
			e.activeCount[a]--
		}
	}
	if v.Floor != nil {
		for a, f := range v.Floor {
			e.pinned[a] -= f
		}
		e.setFloored(v.ID, false)
	}
	e.countFlags(e.flags[i], -1)
	e.delta.JobGone(v.ID, v.Desire)
	clear(v.Desire)
	v.Floor = nil
	e.flags[i] = 0
	e.active[i] = nil
	e.live--
}

// clearAllot zeroes the allotment rows of the first n slots.
func (e *Engine) clearAllot(n int) { clear(e.allotBack[:n*e.cfg.K]) }

// CheckSlots installs the slot table's test oracle: at the start of every
// scheduling round the engine compares each cached view, floor, held flag,
// hole, status record and aggregate against fresh Desire/Floor reads from
// every active runtime and hands any disagreement to report. It makes every
// round O(active jobs) again and exists for the equivalence suites; product
// code never calls it.
func (e *Engine) CheckSlots(report func(error)) { e.slotOracle = report }

// checkSlots is the dense restatement of the slot-table invariant: what the
// per-round snapshot loop used to compute, compared against what the table
// holds.
func (e *Engine) checkSlots() error {
	k := e.cfg.K
	if len(e.views) != len(e.active) || len(e.flags) != len(e.active) {
		return fmt.Errorf("sim: slot table has %d views, %d flags for %d slots", len(e.views), len(e.flags), len(e.active))
	}
	count, pinned := make([]int, k), make([]int, k)
	var floorIDs []int
	live, hard, soft, noLeap := 0, 0, 0, 0
	for i, j := range e.active {
		v := e.views[i]
		if i > 0 && e.views[i-1].ID >= v.ID {
			return fmt.Errorf("sim: slot %d views job %d after job %d, want ascending IDs", i, v.ID, e.views[i-1].ID)
		}
		if len(v.Desire) != k || &v.Desire[0] != &e.desire[i*k] {
			return fmt.Errorf("sim: slot %d desire row is not row %d of the table", i, i)
		}
		for a, x := range e.allot[i] {
			if x != 0 {
				return fmt.Errorf("sim: slot %d (job %d) category %d allotment row holds %d between rounds", i, v.ID, a+1, x)
			}
		}
		if j == nil {
			for a, d := range v.Desire {
				if d != 0 {
					return fmt.Errorf("sim: hole %d category %d holds desire %d", i, a+1, d)
				}
			}
			if v.Floor != nil || e.flags[i] != 0 {
				return fmt.Errorf("sim: hole %d carries floors: %v, flags %#x", i, v.Floor != nil, e.flags[i])
			}
			continue
		}
		live++
		if slot, ok := e.recs.activeSlot(j.id); v.ID != j.id || !ok || slot != i {
			phase, _, _ := e.recs.Phase(j.id)
			return fmt.Errorf("sim: slot %d views job %d, holds job %d (%s, record says slot %d)", i, v.ID, j.id, phase, slot)
		}
		for a := 0; a < k; a++ {
			want := j.rt.Desire(dag.Category(a + 1))
			if v.Desire[a] != want {
				return fmt.Errorf("sim: job %d category %d cached desire %d, runtime reports %d", j.id, a+1, v.Desire[a], want)
			}
			if want > 0 {
				count[a]++
			}
		}
		held := false
		any := false
		if j.caps.floor != nil {
			pinned := true
			for a := 0; a < k; a++ {
				want := j.caps.floor.Floor(dag.Category(a + 1))
				if want > 0 {
					any = true
				}
				if want != v.Desire[a] {
					pinned = false
				}
				if v.Floor != nil && v.Floor[a] != want {
					return fmt.Errorf("sim: job %d category %d cached floor %d, runtime reports %d", j.id, a+1, v.Floor[a], want)
				}
			}
			if j.caps.hold != nil {
				if any && pinned {
					held = true
				} else {
					soft++
				}
			} else if any {
				hard++
			}
		}
		if any != (v.Floor != nil) {
			return fmt.Errorf("sim: job %d pins processors: %v, view carries floors: %v", j.id, any, v.Floor != nil)
		}
		if any {
			floorIDs = append(floorIDs, j.id)
			for a, f := range v.Floor {
				pinned[a] += f
			}
			if &v.Floor[0] != &e.floor[i*k] {
				return fmt.Errorf("sim: slot %d floor row is not row %d of the table", i, i)
			}
		}
		if held != (e.flags[i]&slotHeld != 0) {
			return fmt.Errorf("sim: job %d held: %v, cached flag says %v", j.id, held, !held)
		}
		if !held && j.caps.leap == nil {
			noLeap++
		}
	}
	if live != e.live {
		return fmt.Errorf("sim: %d live slots, the table counts %d", live, e.live)
	}
	for a := range count {
		if count[a] != e.activeCount[a] {
			return fmt.Errorf("sim: category %d has %d desiring jobs, aggregate says %d", a+1, count[a], e.activeCount[a])
		}
	}
	if hard != e.hardFloors || soft != e.softUnheld || noLeap != e.noLeap {
		return fmt.Errorf("sim: aggregates hard/soft/noleap = %d/%d/%d, table says %d/%d/%d",
			hard, soft, noLeap, e.hardFloors, e.softUnheld, e.noLeap)
	}
	if !slices.Equal(pinned, e.pinned) || !slices.Equal(floorIDs, e.floorIDs) {
		return fmt.Errorf("sim: floors pin %v on jobs %v, the table says %v on jobs %v", pinned, floorIDs, e.pinned, e.floorIDs)
	}
	return nil
}
