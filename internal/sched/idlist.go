package sched

// CompactDue is the one hole rule of the engine's slot table and IDList: a
// table of n entries, live of them not holes, closes its holes once they are
// a quarter of it and at least 32, so a departure costs O(1) amortized.
func CompactDue(n, live int) bool { return n-live >= 32 && 4*(n-live) >= n }

// IDList is a list of entries in ascending ID order — arrival order, the
// queue order RAD serves. An entry is a CatJob (its ID and a non-zero value)
// and a row of w ints. Deleting an entry inside the list leaves a hole: it
// keeps its ID, so the order and every other position stay, and reads value
// 0 and a zero row. An ID that comes back refills its own hole in O(1), and
// the holes are closed in one pass when CompactDue says so. The zero value
// is empty, with w = 0; a client in this package may set w.
type IDList struct {
	jobs []CatJob
	rows []int
	w    int
	live int
	hint int // where the last search landed (see FindCatJob)
}

// Jobs returns the entries, holes (value 0) included; a client may write a
// live entry's value, never to 0.
func (l *IDList) Jobs() []CatJob { return l.jobs }

// Row returns position i's row.
func (l *IDList) Row(i int) []int { return l.rows[i*l.w : (i+1)*l.w : (i+1)*l.w] }

// Find returns the position of id's live entry and true, or false.
func (l *IDList) Find(id int) (int, bool) {
	i, in := l.search(id)
	return i, in && l.jobs[i].Desire != 0
}

// search returns the position of id's entry, or the one it would be
// inserted at, and whether it is there. Calls within a round come in
// ascending ID, so most land on the entry after the last one's, or on
// that one again: those two are tried before FindCatJob.
func (l *IDList) search(id int) (int, bool) {
	for i := l.hint; i < len(l.jobs) && i <= l.hint+1; i++ {
		if l.jobs[i].ID == id {
			l.hint = i
			return i, true
		}
	}
	i, in := FindCatJob(l.jobs, l.hint, id)
	l.hint = i
	return i, in
}

// Insert makes id's entry read v, which is not 0, and returns its position
// and whether it was not live before; if not, its row is now zero. An ID
// above every other is appended; one below takes its own hole, or the
// entries above it move up by one.
func (l *IDList) Insert(id, v int) (int, bool) {
	i, in := l.search(id)
	switch {
	case in && l.jobs[i].Desire != 0:
		l.jobs[i].Desire = v
		return i, false
	case in:
	default: // append, and move what lies above i up by one
		l.jobs = append(l.jobs, CatJob{})
		l.rows = append(l.rows, make([]int, l.w)...)
		copy(l.jobs[i+1:], l.jobs[i:])
		copy(l.rows[(i+1)*l.w:], l.rows[i*l.w:])
	}
	l.jobs[i] = CatJob{ID: id, Desire: v}
	clear(l.Row(i))
	l.live++
	return i, true
}

// Delete deletes id's live entry, and reports whether there was one. The
// entry becomes a hole; holes at either end are dropped, so a short list
// whose oldest entries leave first is not mostly holes, and the rest are
// closed when CompactDue says so. Positions are stale after it.
func (l *IDList) Delete(id int) bool {
	i, in := l.Find(id)
	if !in {
		return false
	}
	l.jobs[i].Desire = 0
	clear(l.Row(i))
	l.live--
	lo, hi := 0, len(l.jobs)
	for ; lo < hi && l.jobs[lo].Desire == 0; lo++ {
	}
	for ; hi > lo && l.jobs[hi-1].Desire == 0; hi-- {
	}
	if lo > 0 {
		copy(l.jobs, l.jobs[lo:hi])
		copy(l.rows, l.rows[lo*l.w:hi*l.w])
	}
	n := hi - lo
	if l.jobs, l.rows = l.jobs[:n], l.rows[:n*l.w]; CompactDue(n, l.live) {
		l.Compact()
	}
	return true
}

// Compact closes every hole, sliding each live entry down to the first
// free position below it.
func (l *IDList) Compact() {
	w := 0
	for i, j := range l.jobs {
		if j.Desire != 0 {
			l.jobs[w] = j
			copy(l.rows[w*l.w:(w+1)*l.w], l.Row(i))
			w++
		}
	}
	l.jobs, l.rows, l.hint = l.jobs[:w], l.rows[:w*l.w], 0
}

// Clear empties the list, keeping its storage.
func (l *IDList) Clear() {
	l.jobs, l.rows, l.live, l.hint = l.jobs[:0], l.rows[:0], 0, 0
}

// FindCatJob returns the position of id in jobs (ascending ID) or the
// position it would be inserted at, and whether it is there. A release is
// the highest ID yet, so the end is tried first; otherwise the search
// gallops forward from hint — calls within a round come in ascending ID, so
// successive lookups land next to each other — and falls back to a binary
// search of the part below it.
func FindCatJob(jobs []CatJob, hint, id int) (int, bool) {
	lo, hi := 0, len(jobs)
	if hi == 0 || jobs[hi-1].ID < id {
		return hi, false
	}
	if hint < hi {
		if jobs[hint].ID > id {
			hi = hint
		} else {
			lo = hint
			for step := 1; lo+step < hi; step <<= 1 {
				if jobs[lo+step].ID > id {
					hi = lo + step
					break
				}
				lo += step
			}
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if jobs[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(jobs) && jobs[lo].ID == id
}
