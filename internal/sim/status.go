package sim

// statusPageSize is the number of records in one StatusTable page. A page
// is the unit appends allocate and Drop frees; records never move between
// pages, so a status's work vector stays where JobRef pointed it. Small
// enough that the server's 16 index stripes of a shard with a few thousand
// jobs do not each reserve a page mostly empty.
const statusPageSize = 128

// Record byte layout: bits 0–2 hold the phase, bits 3–5 the family, bit 7
// says the record is present.
const (
	statusPhaseBits  = 0x07
	statusFamilyBits = 0x38
	statusFamShift   = 3
	statusPresent    = 0x80
)

// StatusTable is the compact storage of job statuses by dense index: for
// each, the release r, one end step (the completion step of a done job, the
// cancel or withdrawal step of a cancelled or stolen one, 0 otherwise), the
// span T∞(J), one byte packing phase, family and a present bit, and the K
// work counts T1(J,α) — 25+8K bytes, 41 at K=2. The engine keeps every
// admitted job's status here, indexed by ID; the server's ID index keeps one
// table per lock stripe. A family outside 0..7 is stored as FamilyUnknown.
//
// Records live in fixed pages allocated on first write, so an index range
// nothing was written to costs a nil pointer, and a full page whose records
// have all been dropped is freed. StatusTable is not goroutine-safe.
type StatusTable struct {
	k     int
	n     int // one past the highest index written, or grown to
	pages []*statusPage
}

type statusPage struct {
	live    int // records with the present bit set
	release [statusPageSize]int64
	end     [statusPageSize]int64
	span    [statusPageSize]int
	bits    [statusPageSize]uint8
	work    []int // record i's work vector at [i*k : (i+1)*k]
}

// NewStatusTable returns an empty table for K categories.
func NewStatusTable(k int) StatusTable { return StatusTable{k: k} }

// Len is one past the highest index written, or the length grow set.
func (t *StatusTable) Len() int { return t.n }

// grow raises Len to n (a restored engine's next ID), adding no record.
func (t *StatusTable) grow(n int) {
	if n <= t.n {
		return
	}
	t.n = n
	for len(t.pages)*statusPageSize < n {
		t.pages = append(t.pages, nil)
	}
}

// slot returns the page and offset for writing index i, allocating the
// page and growing Len as needed. Growth never moves a written record.
func (t *StatusTable) slot(i int) (*statusPage, int) {
	t.grow(i + 1)
	p := t.pages[i/statusPageSize]
	if p == nil {
		p = &statusPage{work: make([]int, statusPageSize*t.k)}
		t.pages[i/statusPageSize] = p
	}
	return p, i % statusPageSize
}

// present reports whether index i holds a record, with its page and offset.
func (t *StatusTable) present(i int) (*statusPage, int, bool) {
	if i < 0 || i >= t.n {
		return nil, 0, false
	}
	p, o := t.pages[i/statusPageSize], i%statusPageSize
	return p, o, p != nil && p.bits[o]&statusPresent != 0
}

// write stores every field but the work vector and returns the work row.
func (t *StatusTable) write(i int, release int64, phase JobPhase, family RuntimeFamily, end int64, span int) []int {
	p, o := t.slot(i)
	if p.bits[o]&statusPresent == 0 {
		p.live++
	}
	if family < 0 || family > statusFamilyBits>>statusFamShift {
		family = FamilyUnknown
	}
	p.release[o], p.end[o], p.span[o] = release, end, span
	p.bits[o] = statusPresent | uint8(family)<<statusFamShift | uint8(phase)&statusPhaseBits
	return p.work[o*t.k : (o+1)*t.k : (o+1)*t.k]
}

// Put stores st at index i (st.ID is not stored), copying its work vector.
func (t *StatusTable) Put(i int, st JobStatus) {
	end := st.CancelledAt
	if st.Phase == JobDone {
		end = st.Completion
	}
	row := t.write(i, st.Release, st.Phase, st.Family, end, st.Span)
	clear(row[copy(row, st.Work):])
}

// admit stores a newly admitted, pending job's status at a fresh index
// (its work row is still zero), the work vector written in place by the
// source when it can (WorkAppender).
func (t *StatusTable) admit(i int, release int64, src JobSource, family RuntimeFamily) {
	row := t.write(i, release, JobPending, family, 0, src.Span())
	if wa, ok := src.(WorkAppender); ok {
		copy(row, wa.AppendWork(row[:0]))
	} else {
		copy(row, src.WorkVector())
	}
}

// Get returns the status at index i, with ID i. Its Work aliases the
// table: it stays valid until the record is dropped, and callers copy it to
// keep it past that.
func (t *StatusTable) Get(i int) (JobStatus, bool) {
	p, o, ok := t.present(i)
	if !ok {
		return JobStatus{}, false
	}
	b := p.bits[o]
	st := JobStatus{
		ID:      i,
		Release: p.release[o],
		Phase:   JobPhase(b & statusPhaseBits),
		Family:  RuntimeFamily(b & statusFamilyBits >> statusFamShift),
		Work:    p.work[o*t.k : (o+1)*t.k : (o+1)*t.k],
		Span:    p.span[o],
	}
	switch st.Phase {
	case JobDone:
		st.Completion = p.end[o]
	case JobCancelled, JobStolen:
		st.CancelledAt = p.end[o]
	}
	return st, true
}

// Release returns the release time at index i.
func (t *StatusTable) Release(i int) (int64, bool) {
	p, o, ok := t.present(i)
	if !ok {
		return 0, false
	}
	return p.release[o], true
}

// Phase returns the phase at index i and its end step: the completion step
// of a done job, the cancel or withdrawal step of a cancelled or stolen
// one, 0 otherwise.
func (t *StatusTable) Phase(i int) (JobPhase, int64, bool) {
	p, o, ok := t.present(i)
	if !ok {
		return 0, 0, false
	}
	return JobPhase(p.bits[o] & statusPhaseBits), p.end[o], true
}

// SetPhase moves the record at index i to phase with the given end step
// and returns its release and family. An absent index is left absent, and
// ok is false.
func (t *StatusTable) SetPhase(i int, phase JobPhase, end int64) (release int64, family RuntimeFamily, ok bool) {
	p, o, ok := t.present(i)
	if !ok {
		return 0, FamilyUnknown, false
	}
	p.bits[o] = p.bits[o]&^statusPhaseBits | uint8(phase)&statusPhaseBits
	p.end[o] = end
	return p.release[o], RuntimeFamily(p.bits[o] & statusFamilyBits >> statusFamShift), true
}

// Drop removes the record at index i. Once every index of a full page has
// been dropped, the page is freed.
func (t *StatusTable) Drop(i int) {
	p, o, ok := t.present(i)
	if !ok {
		return
	}
	p.bits[o] = 0
	p.live--
	if pi := i / statusPageSize; p.live == 0 && (pi+1)*statusPageSize <= t.n {
		t.pages[pi] = nil
	}
}

// Reset drops every record and sets Len to 0.
func (t *StatusTable) Reset() {
	clear(t.pages)
	t.pages = t.pages[:0]
	t.n = 0
}
