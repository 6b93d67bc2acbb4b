package server

import (
	"sync"

	"krad/internal/sim"
)

// idStripes is the number of lock stripes in a shard's job-status index.
// Status reads hash across the stripes by ID, so GET/DELETE lookups under
// a submission storm contend on 1/idStripes of the index instead of on
// the shard lock the step loop holds. Power of two so the stripe pick
// compiles to a mask.
const idStripes = 16

// idEntry is one job's lifecycle status inside the index. The work vector
// lives in the stripe's shared arena (slot*k..slot*k+k), not in the
// entry: every job on a shard has the same K categories, so one growing
// []int amortizes what would otherwise be a per-job allocation.
type idEntry struct {
	release     int64
	completion  int64
	cancelledAt int64
	span        int
	phase       sim.JobPhase
	family      sim.RuntimeFamily
	present     bool
}

// idStripe owns every ID congruent to its index mod idStripes, densely
// packed at slot id/idStripes. Slots are append-grown; restoring from a
// sparse (post-retirement) checkpoint leaves zero-value holes, which the
// present flag distinguishes from real jobs.
type idStripe struct {
	mu   sync.RWMutex
	ents []idEntry
	work []int // slot i's work vector at [i*k : (i+1)*k]
	// redir maps shard-local IDs of jobs stolen from this shard to the
	// namespaced IDs they moved to. Lazily allocated: a shard that never
	// loses a job pays nothing. A redirected ID's entry is absent (the job
	// lives elsewhere now); the service follows the redirect chain.
	redir map[int]int
}

// idTable is a shard's lock-striped job-status index: the read side of
// the shard, split off the engine so status lookups never touch the shard
// lock. Writers — admission, the step loop's release/completion
// accounting, cancellation, replay rebuild — all run under the shard lock
// (one writer at a time) and additionally take the stripe write lock so
// concurrent readers always observe a consistent entry. The table is
// purely derived state: it is never journaled, and a restart rebuilds it
// from the replayed engine. With Config.RetireDone it outlives the
// engine's own job table, serving terminal-status queries for jobs the
// engine has already recycled.
type idTable struct {
	k       int
	stripes [idStripes]idStripe
}

func newIDTable(k int) *idTable { return &idTable{k: k} }

func (t *idTable) stripe(id int) (*idStripe, int) {
	return &t.stripes[id&(idStripes-1)], id / idStripes
}

// put records a job's full status (admission and replay rebuild). The
// Work slice is copied into the stripe arena, so callers may pass
// engine-owned memory (sim.Engine.JobRef).
func (t *idTable) put(id int, st sim.JobStatus) {
	if id < 0 {
		return
	}
	s, slot := t.stripe(id)
	s.mu.Lock()
	for len(s.ents) <= slot {
		s.ents = append(s.ents, idEntry{})
		s.work = append(s.work, make([]int, t.k)...)
	}
	s.ents[slot] = idEntry{
		release:     st.Release,
		completion:  st.Completion,
		cancelledAt: st.CancelledAt,
		span:        st.Span,
		phase:       st.Phase,
		family:      st.Family,
		present:     true,
	}
	copy(s.work[slot*t.k:(slot+1)*t.k], st.Work)
	s.mu.Unlock()
}

// get returns a job's status by engine-local ID, its work vector copied
// into work[:0] — the caller's memory, since the status outlives the
// stripe lock. A nil work allocates a fresh copy.
func (t *idTable) get(id int, work []int) (sim.JobStatus, bool) {
	if id < 0 {
		return sim.JobStatus{}, false
	}
	s, slot := t.stripe(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if slot >= len(s.ents) || !s.ents[slot].present {
		return sim.JobStatus{}, false
	}
	e := s.ents[slot]
	return sim.JobStatus{
		ID:          id,
		Release:     e.release,
		Phase:       e.phase,
		Family:      e.family,
		Completion:  e.completion,
		CancelledAt: e.cancelledAt,
		Work:        append(work[:0], s.work[slot*t.k:(slot+1)*t.k]...),
		Span:        e.span,
	}, true
}

// release returns a job's release time without copying its work vector —
// the step loop's per-completion response accounting reads it on the hot
// path.
func (t *idTable) release(id int) (int64, bool) {
	if id < 0 {
		return 0, false
	}
	s, slot := t.stripe(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if slot >= len(s.ents) || !s.ents[slot].present {
		return 0, false
	}
	return s.ents[slot].release, true
}

// phaseOf returns a job's phase and completion step — the cancellation
// precheck, which must answer for jobs the engine has retired.
func (t *idTable) phaseOf(id int) (sim.JobPhase, int64, bool) {
	if id < 0 {
		return 0, 0, false
	}
	s, slot := t.stripe(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if slot >= len(s.ents) || !s.ents[slot].present {
		return 0, 0, false
	}
	return s.ents[slot].phase, s.ents[slot].completion, true
}

// setActive marks a released job active (step loop, under the shard
// lock).
func (t *idTable) setActive(id int) {
	s, slot := t.stripe(id)
	s.mu.Lock()
	if slot < len(s.ents) && s.ents[slot].present {
		s.ents[slot].phase = sim.JobActive
	}
	s.mu.Unlock()
}

// setDone marks a job completed at the given step.
func (t *idTable) setDone(id int, completion int64) {
	s, slot := t.stripe(id)
	s.mu.Lock()
	if slot < len(s.ents) && s.ents[slot].present {
		s.ents[slot].phase = sim.JobDone
		s.ents[slot].completion = completion
	}
	s.mu.Unlock()
}

// setCancelled marks a job cancelled at the given step.
func (t *idTable) setCancelled(id int, at int64) {
	s, slot := t.stripe(id)
	s.mu.Lock()
	if slot < len(s.ents) && s.ents[slot].present {
		s.ents[slot].phase = sim.JobCancelled
		s.ents[slot].cancelledAt = at
	}
	s.mu.Unlock()
}

// setRedirect records that the job at shard-local id was stolen and now
// lives under the namespaced target ID. The local entry is blanked (the
// status truth moved with the job) and the redirect answers lookups by the
// original ID from then on. Overwriting an existing redirect is legal —
// startup reconciliation re-homes orphaned steals.
func (t *idTable) setRedirect(id, target int) {
	if id < 0 {
		return
	}
	s, slot := t.stripe(id)
	s.mu.Lock()
	if slot < len(s.ents) {
		s.ents[slot] = idEntry{}
	}
	if s.redir == nil {
		s.redir = make(map[int]int)
	}
	s.redir[id] = target
	s.mu.Unlock()
}

// redirect returns where the job at shard-local id moved to, if it was
// stolen from this shard.
func (t *idTable) redirect(id int) (int, bool) {
	if id < 0 {
		return 0, false
	}
	s, _ := t.stripe(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	target, ok := s.redir[id]
	return target, ok
}

// redirects snapshots every redirect entry (nil when there are none) —
// the steal state a journal snapshot must carry so compaction does not
// forget where stolen jobs went.
func (t *idTable) redirects() map[int]int {
	var out map[int]int
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		for id, target := range s.redir {
			if out == nil {
				out = make(map[int]int)
			}
			out[id] = target
		}
		s.mu.RUnlock()
	}
	return out
}

// reset drops every entry (a replicated-snapshot reset rebuilds the table
// wholesale from the restored engine). Backing arrays are kept; redirects
// drop with the entries.
func (t *idTable) reset() {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		s.ents = s.ents[:0]
		s.work = s.work[:0]
		s.redir = nil
		s.mu.Unlock()
	}
}
