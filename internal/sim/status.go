package sim

import (
	"sync"
	"sync/atomic"
)

// statusPageSize is the number of records in one status page. A page is
// the unit appends allocate, Drop frees and readers lock; records never
// move between pages, so a status's work vector stays where JobRef pointed
// it. Small enough that a reader holding a page's read lock delays the
// writer only on the 128 jobs that share it, and that a sparse restore
// reserves little.
const statusPageSize = 128

// Record byte layout: bits 0–2 hold the phase, bits 3–5 the family, bit 7
// says the record is present.
const (
	statusPhaseBits  = 0x07
	statusFamilyBits = 0x38
	statusFamShift   = 3
	statusPresent    = 0x80
)

// statusTable is the compact storage of job statuses by dense index: for
// each, the release r, one end field (the completion step of a done job,
// the cancel or withdrawal step of a cancelled or stolen one, the engine's
// slot for an active one, 0 for a pending one), the span T∞(J), one byte
// packing phase, family and a present bit, and the K work counts T1(J,α) —
// 25+8K bytes, 41 at K=2. The engine keeps every admitted job's status
// here, indexed by ID, and it is the only copy: a server reads it through
// Engine.ReadJob. A family outside 0..7 is stored as FamilyUnknown.
//
// Records live in fixed pages allocated on first write, so an index range
// nothing was written to costs a nil pointer, and a full page whose records
// have all been dropped is freed. One goroutine writes; any number read
// beside it through load. The page directory is published through an
// atomic pointer and grows by copying, and the writer holds a page's lock
// only while it changes a record, so a reader under the read lock sees
// whole records. The writer's own reads take no lock: nobody else writes.
type statusTable struct {
	k   int
	n   int                       // one past the highest index written, or grown to
	dir atomic.Pointer[statusDir] // nil until the first grow
}

// statusDir is the page directory readers see. Its slots past Len are nil,
// and a grown directory is a new one: a reader that loaded the old one
// keeps a consistent, older view.
type statusDir struct {
	pages []atomic.Pointer[statusPage]
}

type statusPage struct {
	mu      sync.RWMutex // the writer's changes against readers
	live    int          // records with the present bit set
	release [statusPageSize]int64
	end     [statusPageSize]int64
	span    [statusPageSize]int
	bits    [statusPageSize]uint8
	work    []int // record i's work vector at [i*k : (i+1)*k]
}

// Len is one past the highest index written, or the length grow set.
func (t *statusTable) Len() int { return t.n }

// grow raises Len to n (a restored engine's next ID), adding no record. A
// directory too short for n is replaced by one at least twice as long.
func (t *statusTable) grow(n int) {
	if n <= t.n {
		return
	}
	t.n = n
	var old []atomic.Pointer[statusPage]
	if d := t.dir.Load(); d != nil {
		old = d.pages
	}
	need := (n + statusPageSize - 1) / statusPageSize
	if need <= len(old) {
		return
	}
	d := &statusDir{pages: make([]atomic.Pointer[statusPage], max(need, 2*len(old)))}
	for i := range old {
		d.pages[i].Store(old[i].Load())
	}
	t.dir.Store(d)
}

// page returns the page holding index i, or nil.
func (t *statusTable) page(i int) *statusPage {
	d := t.dir.Load()
	if i < 0 || d == nil || i/statusPageSize >= len(d.pages) {
		return nil
	}
	return d.pages[i/statusPageSize].Load()
}

// slot returns the page and offset for writing index i, allocating the
// page and growing Len as needed. Growth never moves a written record.
func (t *statusTable) slot(i int) (*statusPage, int) {
	t.grow(i + 1)
	ref := &t.dir.Load().pages[i/statusPageSize]
	p := ref.Load()
	if p == nil {
		p = &statusPage{work: make([]int, statusPageSize*t.k)}
		ref.Store(p)
	}
	return p, i % statusPageSize
}

// present reports whether index i holds a record, with its page and offset.
func (t *statusTable) present(i int) (*statusPage, int, bool) {
	p, o := t.page(i), i%statusPageSize
	return p, o, p != nil && p.bits[o]&statusPresent != 0
}

// write stores every field but the work vector and returns the work row.
// The caller holds p.mu.
func (p *statusPage) write(o, k int, release int64, phase JobPhase, family RuntimeFamily, end int64, span int) []int {
	if p.bits[o]&statusPresent == 0 {
		p.live++
	}
	if family < 0 || family > statusFamilyBits>>statusFamShift {
		family = FamilyUnknown
	}
	p.release[o], p.end[o], p.span[o] = release, end, span
	p.bits[o] = statusPresent | uint8(family)<<statusFamShift | uint8(phase)&statusPhaseBits
	return p.work[o*k : (o+1)*k : (o+1)*k]
}

// get reads the record at offset o as index i's status; its Work aliases
// the page.
func (p *statusPage) get(i, o, k int) (JobStatus, bool) {
	b := p.bits[o]
	if b&statusPresent == 0 {
		return JobStatus{}, false
	}
	st := JobStatus{
		ID:      i,
		Release: p.release[o],
		Phase:   JobPhase(b & statusPhaseBits),
		Family:  RuntimeFamily(b & statusFamilyBits >> statusFamShift),
		Work:    p.work[o*k : (o+1)*k : (o+1)*k],
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

// Put stores st at index i (st.ID is not stored), copying its work vector.
func (t *statusTable) Put(i int, st JobStatus) {
	end := st.CancelledAt
	if st.Phase == JobDone {
		end = st.Completion
	}
	p, o := t.slot(i)
	p.mu.Lock()
	row := p.write(o, t.k, st.Release, st.Phase, st.Family, end, st.Span)
	clear(row[copy(row, st.Work):])
	p.mu.Unlock()
}

// admit stores a newly admitted, pending job's status at a fresh index
// (its work row is still zero), the work vector written in place by the
// source when it can (WorkAppender).
func (t *statusTable) admit(i int, release int64, src JobSource, family RuntimeFamily) {
	span := src.Span()
	p, o := t.slot(i)
	p.mu.Lock()
	row := p.write(o, t.k, release, JobPending, family, 0, span)
	if wa, ok := src.(WorkAppender); ok {
		copy(row, wa.AppendWork(row[:0]))
	} else {
		copy(row, src.WorkVector())
	}
	p.mu.Unlock()
}

// Get returns the status at index i, with ID i. Its Work aliases the
// table: it stays valid until the record is dropped, and callers copy it to
// keep it past that. Only the writer may call it.
func (t *statusTable) Get(i int) (JobStatus, bool) {
	p := t.page(i)
	if p == nil {
		return JobStatus{}, false
	}
	return p.get(i, i%statusPageSize, t.k)
}

// load is Get for a reader beside the writer: the record is read under its
// page's read lock, and its work vector is copied into work[:0] (a nil
// work allocates).
func (t *statusTable) load(i int, work []int) (JobStatus, bool) {
	p := t.page(i)
	if p == nil {
		return JobStatus{}, false
	}
	p.mu.RLock()
	st, ok := p.get(i, i%statusPageSize, t.k)
	if ok {
		st.Work = append(work[:0], st.Work...)
	}
	p.mu.RUnlock()
	return st, ok
}

// Release returns the release time at index i.
func (t *statusTable) Release(i int) (int64, bool) {
	p, o, ok := t.present(i)
	if !ok {
		return 0, false
	}
	return p.release[o], true
}

// Phase returns the phase at index i and its end field: the completion
// step of a done job, the cancel or withdrawal step of a cancelled or
// stolen one, the slot of an active one (activeSlot), 0 for a pending one.
func (t *statusTable) Phase(i int) (JobPhase, int64, bool) {
	p, o, ok := t.present(i)
	if !ok {
		return 0, 0, false
	}
	return JobPhase(p.bits[o] & statusPhaseBits), p.end[o], true
}

// SetPhase moves the record at index i to phase with the given end field
// (the slot, for JobActive) and returns its release and family. An absent
// index is left absent, and ok is false.
func (t *statusTable) SetPhase(i int, phase JobPhase, end int64) (release int64, family RuntimeFamily, ok bool) {
	p, o, ok := t.present(i)
	if !ok {
		return 0, FamilyUnknown, false
	}
	p.mu.Lock()
	p.bits[o] = p.bits[o]&^statusPhaseBits | uint8(phase)&statusPhaseBits
	p.end[o] = end
	p.mu.Unlock()
	return p.release[o], RuntimeFamily(p.bits[o] & statusFamilyBits >> statusFamShift), true
}

// activeSlot returns the engine's slot for index i when it holds an active
// job. While a job is active its end field holds the slot: the field means
// nothing else until the job ends, and get never reads it for an active
// job, so no reader sees it.
func (t *statusTable) activeSlot(i int) (int, bool) {
	p, o, ok := t.present(i)
	if !ok || JobPhase(p.bits[o]&statusPhaseBits) != JobActive {
		return 0, false
	}
	return int(p.end[o]), true
}

// setSlot records that the active job at index i moved to slot s.
func (t *statusTable) setSlot(i, s int) {
	p := t.page(i)
	p.mu.Lock()
	p.end[i%statusPageSize] = int64(s)
	p.mu.Unlock()
}

// Drop removes the record at index i. Once every index of a full page has
// been dropped, the page is freed.
func (t *statusTable) Drop(i int) {
	p, o, ok := t.present(i)
	if !ok {
		return
	}
	p.mu.Lock()
	p.bits[o] = 0
	p.live--
	p.mu.Unlock()
	if pi := i / statusPageSize; p.live == 0 && (pi+1)*statusPageSize <= t.n {
		t.dir.Load().pages[pi].Store(nil)
	}
}
