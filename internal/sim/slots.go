package sim

import (
	"fmt"
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
// That is sound because of the idle-step law in the RuntimeJob contract: a job
// that executes nothing in a step does not change Desire, Floor, Done or
// hold state in that step. The invariant between rounds is therefore
//
//	views[i].Desire/Floor, flags[i] == a fresh read of active[i].rt
//	activeCount, hardFloors, softUnheld, noLeap, floored == sums over the slots
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
	// slotFloored: the view carries floors (some floor > 0).
	slotFloored
)

// growSlots makes room for n slots. Storage is sized to the active set, not
// to the admitted one: pending jobs own no slot. Rows are fixed to their
// position — views[i].Desire is always desire[i*k:(i+1)*k] — so moving a
// slot copies contents and never re-points a slice.
func (e *Engine) growSlots(n int) {
	k := e.cfg.K
	c := n + n/2 + 8
	live := len(e.views)

	desire := make([]int, c*k)
	copy(desire, e.desire)
	e.desire = desire
	views := make([]sched.JobView, c)
	copy(views, e.views)
	for i := range views {
		views[i].Desire = desire[i*k : (i+1)*k : (i+1)*k]
	}
	e.views = views[:live]
	if e.floor != nil {
		e.floor = nil
		e.growFloors()
	}
	flags := make([]uint8, live, c)
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
// the order the Scheduler contract requires views in. Releases normally
// arrive in ID order, so this is an append; a job admitted late with an
// early release shifts the slots above it up by one.
func (e *Engine) insertActive(js *jobState) {
	n := len(e.active)
	if n == cap(e.views) {
		e.growSlots(n + 1)
	}
	if js.caps.floor != nil && e.floor == nil {
		e.growFloors()
	}
	e.active = append(e.active, js)
	e.views = e.views[:n+1]
	e.flags = e.flags[:n+1]
	i := n
	if n > 0 && e.active[n-1].id > js.id {
		i = sort.Search(n, func(i int) bool { return e.active[i].id > js.id })
		for x := n; x > i; x-- {
			e.moveSlot(x, x-1)
		}
		e.active[i] = js
	}
	v := &e.views[i]
	v.ID, v.Floor = js.id, nil
	for a := range v.Desire {
		v.Desire[a] = 0
	}
	e.flags[i] = 0
	e.refreshSlot(i)
	// Read against a row of zeros — what a job not yet active reports — so
	// the flagged categories are the ones it enters.
	e.delta.JobChanged(js.id, v.Desire, v.Floor, e.changed)
	e.resetChanged()
}

// moveSlot copies slot src over slot dst (insertActive's shift; removeSlots
// moves whole runs). Allotment rows are not moved: they are zero whenever
// slots move.
func (e *Engine) moveSlot(dst, src int) {
	e.active[dst] = e.active[src]
	fl := e.flags[src]
	e.flags[dst] = fl
	d, s := &e.views[dst], &e.views[src]
	d.ID = s.ID
	for a, v := range s.Desire {
		d.Desire[a] = v
	}
	if fl&slotFloored != 0 {
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

// rereadSlot is refreshSlot for a slot the scheduler already knows: it is
// told only when a row actually changed.
func (e *Engine) rereadSlot(i int) {
	if !e.refreshSlot(i) {
		return
	}
	v := &e.views[i]
	e.delta.JobChanged(v.ID, v.Desire, v.Floor, e.changed)
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
// from its runtime and folds the difference into the aggregates. It reports
// whether the rows the scheduler sees — desire, floor — changed, and flags
// in e.changed (clear on entry; the caller clears it again) which categories
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
		any, pinned := false, true
		for a := range row {
			now := j.caps.floor.Floor(dag.Category(a + 1))
			// The row is this slot's last read only while the view carries
			// it; otherwise every floor was zero.
			if was := v.Floor != nil; was && now != row[a] || !was && now != 0 {
				changed, e.changed[a] = true, true
			}
			row[a] = now
			if row[a] > 0 {
				any = true
			}
			if row[a] != d[a] {
				pinned = false
			}
		}
		v.Floor = nil
		if any {
			v.Floor = row
			fl = slotFloored
		}
		switch {
		case j.caps.hold == nil:
			if any {
				fl |= slotHardFloor
			}
		case any && pinned:
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
	if fl&slotFloored != 0 {
		e.floored += by
	}
}

// dropSlot withdraws slot i's contributions from the aggregates and tells the
// scheduler its job is gone; the slot itself stays in place until removeSlots
// closes the gap.
func (e *Engine) dropSlot(i int) {
	v := &e.views[i]
	for a, d := range v.Desire {
		if d > 0 {
			e.activeCount[a]--
		}
	}
	e.countFlags(e.flags[i], -1)
	v.Floor = nil
	e.delta.JobGone(v.ID, v.Desire)
}

// removeSlots deletes the given slots (ascending; their contributions
// already withdrawn by dropSlot), sliding the survivors above the first of
// them down over the gaps: each run of survivors between two gaps moves with
// one copy per flat array. A view's Desire stays pinned to its row, so only
// its ID moves; floor rows move, and views are re-pointed at them, only while
// some survivor carries floors (dropSlot cleared the views of those that
// left). Runs only when a round completed something or a job was cancelled.
func (e *Engine) removeSlots(gone []int32) {
	n, k := len(e.active), e.cfg.K
	w := int(gone[0])
	for g, from := range gone {
		lo, hi := int(from)+1, n
		if g+1 < len(gone) {
			hi = int(gone[g+1])
		}
		copy(e.active[w:], e.active[lo:hi])
		copy(e.flags[w:], e.flags[lo:hi])
		copy(e.desire[w*k:], e.desire[lo*k:hi*k])
		for i := lo; i < hi; i++ {
			e.views[w+i-lo].ID = e.views[i].ID
		}
		if e.floored > 0 {
			copy(e.floor[w*k:], e.floor[lo*k:hi*k])
			for i := w; i < w+hi-lo; i++ {
				e.views[i].Floor = nil
				if e.flags[i]&slotFloored != 0 {
					e.views[i].Floor = e.floor[i*k : (i+1)*k : (i+1)*k]
				}
			}
		}
		w += hi - lo
	}
	clear(e.active[w:n])
	e.active = e.active[:w]
	e.views = e.views[:w]
	e.flags = e.flags[:w]
}

// flooredAmong counts the listed slots whose view carries floors.
func (e *Engine) flooredAmong(slots []int32) int {
	c := 0
	if e.floored > 0 {
		for _, i := range slots {
			if e.flags[i]&slotFloored != 0 {
				c++
			}
		}
	}
	return c
}

// activeIndex returns the slot of the active job with the given ID.
func (e *Engine) activeIndex(id int) int {
	return sort.Search(len(e.active), func(i int) bool { return e.active[i].id >= id })
}

// clearAllot zeroes the allotment rows of the first n slots.
func (e *Engine) clearAllot(n int) { clear(e.allotBack[:n*e.cfg.K]) }

// CheckSlots installs the slot table's test oracle: at the start of every
// scheduling round the engine compares each cached view, floor, held flag
// and aggregate against fresh Desire/Floor reads from every active runtime
// and hands any disagreement to report. It makes every round O(active jobs)
// again and exists for the equivalence suites; product code never calls it.
func (e *Engine) CheckSlots(report func(error)) { e.slotOracle = report }

// checkSlots is the dense restatement of the slot-table invariant: what the
// per-round snapshot loop used to compute, compared against what the table
// holds.
func (e *Engine) checkSlots() error {
	k := e.cfg.K
	if len(e.views) != len(e.active) || len(e.flags) != len(e.active) {
		return fmt.Errorf("sim: slot table has %d views, %d flags for %d active jobs", len(e.views), len(e.flags), len(e.active))
	}
	count := make([]int, k)
	hard, soft, noLeap, floored := 0, 0, 0, 0
	for i, j := range e.active {
		v := e.views[i]
		if v.ID != j.id || j.phase != JobActive {
			return fmt.Errorf("sim: slot %d views job %d, holds job %d (%s)", i, v.ID, j.id, j.phase)
		}
		if i > 0 && e.active[i-1].id >= j.id {
			return fmt.Errorf("sim: slot %d job %d after job %d, want ascending IDs", i, j.id, e.active[i-1].id)
		}
		if len(v.Desire) != k || &v.Desire[0] != &e.desire[i*k] {
			return fmt.Errorf("sim: slot %d desire row is not row %d of the table", i, i)
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
		if any != (v.Floor != nil) || any != (e.flags[i]&slotFloored != 0) {
			return fmt.Errorf("sim: job %d pins processors: %v, view carries floors: %v, flagged: %v", j.id, any, v.Floor != nil, e.flags[i]&slotFloored != 0)
		}
		if any {
			floored++
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
		for a, x := range e.allot[i] {
			if x != 0 {
				return fmt.Errorf("sim: job %d category %d allotment row holds %d between rounds", j.id, a+1, x)
			}
		}
	}
	for a := range count {
		if count[a] != e.activeCount[a] {
			return fmt.Errorf("sim: category %d has %d desiring jobs, aggregate says %d", a+1, count[a], e.activeCount[a])
		}
	}
	if hard != e.hardFloors || soft != e.softUnheld || noLeap != e.noLeap || floored != e.floored {
		return fmt.Errorf("sim: aggregates hard/soft/noleap/floored = %d/%d/%d/%d, table says %d/%d/%d/%d",
			hard, soft, noLeap, floored, e.hardFloors, e.softUnheld, e.noLeap, e.floored)
	}
	return nil
}
