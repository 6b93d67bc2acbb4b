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

// idStripe owns every ID congruent to its index mod idStripes, at dense
// index id/idStripes of its status table (sim.StatusTable: 41 bytes per
// job at K=2, in pages that appends never move). Restoring from a sparse
// (post-retirement) checkpoint leaves holes, which read as absent.
type idStripe struct {
	mu  sync.RWMutex
	tab sim.StatusTable
	// redir maps shard-local IDs of jobs stolen from this shard to the
	// namespaced IDs they moved to. Lazily allocated: a shard that never
	// loses a job pays nothing. A redirected ID's record is absent (the job
	// lives elsewhere now); the service follows the redirect chain.
	redir map[int]int
}

// idTable is a shard's lock-striped job-status index: the read side of
// the shard, split off the engine so status lookups never touch the shard
// lock. Writers — admission, the step loop's release/completion
// accounting, cancellation, replay rebuild — all run under the shard lock
// (one writer at a time) and additionally take the stripe write lock so
// concurrent readers always observe a consistent record. The table is
// purely derived state: it is never journaled, and a restart rebuilds it
// from the replayed engine. With Config.RetireDone it outlives the
// engine's own status table, serving terminal-status queries for jobs the
// engine has already retired.
type idTable struct {
	stripes [idStripes]idStripe
}

func newIDTable(k int) *idTable {
	t := new(idTable)
	for i := range t.stripes {
		t.stripes[i].tab = sim.NewStatusTable(k)
	}
	return t
}

func (t *idTable) stripe(id int) (*idStripe, int) {
	return &t.stripes[id&(idStripes-1)], id / idStripes
}

// put records a job's full status (admission and replay rebuild). The
// Work slice is copied, so callers may pass engine-owned memory
// (sim.Engine.JobRef).
func (t *idTable) put(id int, st sim.JobStatus) {
	if id < 0 {
		return
	}
	s, slot := t.stripe(id)
	s.mu.Lock()
	s.tab.Put(slot, st)
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
	st, ok := s.tab.Get(slot)
	if !ok {
		return sim.JobStatus{}, false
	}
	st.ID = id
	st.Work = append(work[:0], st.Work...)
	return st, true
}

// phaseOf returns a job's phase and end step (its completion step when
// done) — the cancellation precheck, which must answer for jobs the engine
// has retired.
func (t *idTable) phaseOf(id int) (sim.JobPhase, int64, bool) {
	if id < 0 {
		return 0, 0, false
	}
	s, slot := t.stripe(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tab.Phase(slot)
}

// setPhase moves a job to phase with its end step (the step loop and
// cancellation, under the shard lock) and returns its release time, which
// the step loop's per-completion response accounting needs. Absent IDs
// are left absent.
func (t *idTable) setPhase(id int, phase sim.JobPhase, end int64) int64 {
	s, slot := t.stripe(id)
	s.mu.Lock()
	release, _, _ := s.tab.SetPhase(slot, phase, end)
	s.mu.Unlock()
	return release
}

// setRedirect records that the job at shard-local id was stolen and now
// lives under the namespaced target ID. The local record is dropped (the
// status truth moved with the job) and the redirect answers lookups by the
// original ID from then on. Overwriting an existing redirect is legal —
// startup reconciliation re-homes orphaned steals.
func (t *idTable) setRedirect(id, target int) {
	if id < 0 {
		return
	}
	s, slot := t.stripe(id)
	s.mu.Lock()
	s.tab.Drop(slot)
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

// reset drops every record (a replicated-snapshot reset rebuilds the
// table wholesale from the restored engine); redirects drop with them.
func (t *idTable) reset() {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		s.tab.Reset()
		s.redir = nil
		s.mu.Unlock()
	}
}
