package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/sim"
)

// ErrOverQuota means the submitting tenant's fair share of the fleet
// admission bound is exhausted: the service sheds that tenant's work
// (HTTP 429) while under-quota tenants keep admitting. Unlike
// ErrQueueFull the fleet is not necessarily full — the capacity is
// reserved for other tenants.
var ErrOverQuota = errors.New("server: tenant over fair-share quota")

// fairController owns the queue tree, the one tenant table: every
// shard's ledger, the gate's inputs and Stats.Tenants are indexed by
// Leaf.Index(). The usage ledgers themselves live per shard (each under
// its shard's lock and virtual clock) and are aggregated here at rebalance
// time; mu serializes the gate's scratch and the per-leaf tallies. The
// tree has its own lock, innermost: the apply hooks take it under a shard
// lock to resolve a record's tenant, so the gate takes it only to resolve
// and to divide, never while it collects the shard ledgers.
type fairController struct {
	mu      sync.Mutex
	tree    *fairshare.Tree
	tallies []tally           // by leaf index
	states  []fairshare.State // the gate's per-leaf inputs, refilled on every call
}

// tally counts one leaf's jobs admitted and shed over quota by this
// process.
type tally struct{ admitted, shed int64 }

// tally returns l's counters, growing the table to it. Callers hold mu.
func (fc *fairController) tally(l *fairshare.Leaf) *tally {
	for len(fc.tallies) <= l.Index() {
		fc.tallies = append(fc.tallies, tally{})
	}
	return &fc.tallies[l.Index()]
}

// fairSubmit is submit behind the fair-share gate: the n jobs are shed
// with ErrOverQuota when they would take the tenant leaf's in-flight work
// past its share of the fleet bound, divided with that leaf as the
// requester (so a first submission is never shed for lack of a share)
// down its ancestor path alone (Tree.Request). Tallies count only leaves
// that exist.
//
// The gate creates no leaf: the Admitted hook does, when the first record
// naming it commits, as on a restart or a follower. The gate stays shut
// over such a first admission, so no other submission resolves against a
// tree without that leaf, and the records name the leaves of one tree in
// whatever order the shards replay them. A tenant with a leaf is admitted
// outside it: concurrent submissions may both pass the gate before either
// lands on a shard — the overshoot is bounded by the caller count, and the
// per-shard admission bound still caps the fleet total.
func (s *Service) fairSubmit(key, tenant string, specs []sim.JobSpec) (*shard, []int, error) {
	fc := s.fair
	fc.mu.Lock()
	defer fc.mu.Unlock()
	states := s.fairInputs(0)
	leaf, path, share := fc.tree.Request(tenant, states, s.cfg.MaxInFlight)
	var st fairshare.State
	if leaf != nil && leaf.Index() < len(states) {
		st = states[leaf.Index()]
	}
	if st.InFlight+len(specs) > share {
		if leaf != nil {
			fc.tally(leaf).shed += int64(len(specs))
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrOverQuota, path)
	}
	if leaf != nil {
		fc.mu.Unlock()
	}
	sh, ids, err := s.admit(key, path, specs)
	if leaf != nil {
		fc.mu.Lock()
	}
	if err != nil {
		return nil, nil, err
	}
	if leaf == nil {
		leaf, _ = fc.tree.Lookup(path) // the Admitted hook has created it
	}
	fc.tally(leaf).admitted += int64(len(ids))
	return sh, ids, nil
}

// fairInputs gathers the leaves' fleet-wide live state from the shards'
// ledgers, indexed by leaf index and covering at least the first n leaves:
// in-flight counts sum, usage sums in shard order with each shard's
// accumulator decayed to that shard's own virtual clock. A leaf past the
// result reads as idle. Callers hold fc.mu (lock order: controller, then
// each shard briefly); the result is the controller's scratch, valid until
// the next call.
func (s *Service) fairInputs(n int) []fairshare.State {
	fc := s.fair
	fc.states = slices.Grow(fc.states[:0], n)[:n]
	clear(fc.states)
	for _, sh := range s.shards {
		fc.states = sh.fairCollect(fc.states)
	}
	return fc.states
}

// TenantStats is one fair-share leaf's slice of Stats.Tenants.
type TenantStats struct {
	// Path is the leaf's queue-tree path (e.g. "acme/ml").
	Path string `json:"path"`
	// InFlight is the leaf's admitted-but-unfinished jobs across shards.
	InFlight int `json:"in_flight"`
	// Share is the leaf's current slot bound from the latest rebalance.
	Share int `json:"share"`
	// Usage is the leaf's decayed usage summed across shards.
	Usage float64 `json:"usage"`
	// Admitted and Shed count the leaf's admitted jobs and over-quota
	// rejections since startup.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// tenantStats snapshots per-tenant fair-share state in the tree's listing
// order (the leaves fairshare.New builds, then the rest by path, so the
// list does not depend on the order tenants first appeared in), or nil
// when fairness is off — keeping the fairness-off Stats encoding
// bit-identical to pre-fairness builds.
func (s *Service) tenantStats() []TenantStats {
	fc := s.fair
	if fc == nil {
		return nil
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	leaves := fc.tree.Listing()
	states := s.fairInputs(len(leaves))
	shares := fc.tree.Shares(states, s.cfg.MaxInFlight)
	out := make([]TenantStats, 0, len(leaves))
	for _, l := range leaves {
		st, tl := states[l.Index()], fc.tally(l)
		out = append(out, TenantStats{
			Path:     l.Path,
			InFlight: st.InFlight,
			Share:    shares[l.Index()],
			Usage:    st.Usage,
			Admitted: tl.admitted,
			Shed:     tl.shed,
		})
	}
	return out
}

// shardFair is the shard's slice of fair-share accounting, indexed by leaf
// index: the usage this shard charged each tenant, decayed on its own
// virtual clock, and the tenant's jobs in flight here, plus each in-flight
// job's leaf. A stolen job is in flight on its thief, while the usage its
// admission charged stays on the victim. Only the apply hooks write it —
// Admitted, the completions, cancellations and steals that forget a job,
// and a fair or snap record restoring it — all under the shard lock; the
// gate reads it under the same lock. A record's tenant resolves through
// the tree (Tree.Ensure), which is where every dynamic leaf is created, so
// the primary, replay and a follower create the same ones.
type shardFair struct {
	tree     *fairshare.Tree
	halfLife int64
	ledger   []fairLeaf
	jobs     map[int]*fairshare.Leaf // in-flight job → its leaf
}

// fairLeaf is one tenant's part of a shard ledger.
type fairLeaf struct {
	usage    fairshare.Usage
	charged  bool // usage has an entry in this shard's journaled ledger
	inFlight int
}

// leaf returns l's entry, growing the ledger to it.
func (f *shardFair) leaf(l *fairshare.Leaf) *fairLeaf {
	for len(f.ledger) <= l.Index() {
		f.ledger = append(f.ledger, fairLeaf{})
	}
	return &f.ledger[l.Index()]
}

// armFair enables the shard's fair ledger. Called from New before any
// step loop or journal replay exists, so no locking is needed.
func (sh *shard) armFair(tree *fairshare.Tree) {
	sh.fair = &shardFair{tree: tree, halfLife: tree.HalfLife(), jobs: make(map[int]*fairshare.Leaf)}
}

// fairCollect adds the shard's ledger into states, indexed by leaf index,
// with usage decayed to this shard's current virtual step, and returns
// states grown to cover the ledger. A leaf the shard never charged adds
// nothing.
func (sh *shard) fairCollect(states []fairshare.State) []fairshare.State {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now, ledger := sh.eng.Now(), sh.fair.ledger
	for len(states) < len(ledger) {
		states = append(states, fairshare.State{})
	}
	for i := range ledger {
		l := &ledger[i]
		if l.usage.V != 0 {
			states[i].Usage += l.usage.At(now, sh.fair.halfLife)
		}
		states[i].InFlight += l.inFlight
	}
	return states
}

// fairAdmittedLocked accounts a committed admission in the ledger: every
// job is tracked in flight under its tenant's leaf, and a client admission
// also charges its cost to that leaf's usage at the shard's current step.
// The thief half of a steal charges nothing — the victim already did — and
// takes each job's leaf from the record's Tenants. A job with no tenant (a
// record from before fairness, a caller that bypassed the gate, a stolen
// job its victim never tracked) is the default leaf's. Called with the
// shard lock held by the Admitted apply hook on a fairness-enabled shard.
func (sh *shard) fairAdmittedLocked(rec journal.Record, specs []sim.JobSpec, ids []int) {
	f := sh.fair
	leaf := f.tree.Ensure(rec.Tenant)
	if len(rec.From) == 0 {
		l := f.leaf(leaf)
		l.usage.Add(sh.eng.Now(), f.halfLife, specsCost(specs))
		l.charged = true
	}
	for k, id := range ids {
		if len(rec.Tenants) != 0 {
			leaf = f.tree.Ensure(rec.Tenants[k])
		}
		f.jobs[id] = leaf
		f.leaf(leaf).inFlight++
	}
}

// fairForgetLocked drops a finished, cancelled or stolen job from the
// in-flight ledger (accrued usage stays — it decays) and returns the leaf
// it was tracked under, or nil for a job the ledger never tracked. Called
// with the shard lock held.
func (sh *shard) fairForgetLocked(id int) *fairshare.Leaf {
	if sh.fair == nil {
		return nil
	}
	leaf, ok := sh.fair.jobs[id]
	if !ok {
		return nil
	}
	delete(sh.fair.jobs, id)
	sh.fair.ledger[leaf.Index()].inFlight--
	return leaf
}

// fairStateLocked snapshots the shard's ledger for a journal record
// (fresh maps, so the journal never aliases live state).
func (sh *shard) fairStateLocked() journal.FairState {
	f := sh.fair
	st := journal.FairState{V: 1, HalfLife: f.halfLife}
	leaves := f.tree.Leaves()
	for i, l := range f.ledger {
		if l.charged {
			if st.Usage == nil {
				st.Usage = make(map[string]fairshare.Usage)
			}
			st.Usage[leaves[i].Path] = l.usage
		}
	}
	if len(f.jobs) > 0 {
		st.Jobs = make(map[int]string, len(f.jobs))
		for id, leaf := range f.jobs {
			st.Jobs[id] = leaf.Path
		}
	}
	return st
}

// setFairLocked replaces the shard's ledger with the one st declares.
func (sh *shard) setFairLocked(st journal.FairState) {
	f := sh.fair
	clear(f.ledger)
	for path, u := range st.Usage {
		l := f.leaf(f.tree.Ensure(path))
		l.usage, l.charged = u, true
	}
	f.jobs = make(map[int]*fairshare.Leaf, len(st.Jobs))
	for id, tenant := range st.Jobs {
		leaf := f.tree.Ensure(tenant)
		f.jobs[id] = leaf
		f.leaf(leaf).inFlight++
	}
}

// specsCost is a batch's admission cost in the usage ledger: each job's
// total work in task-steps, whatever its family, so a tenant submitting heavy
// jobs accrues usage proportionally faster than one submitting small ones.
// Replay decodes the same specs the live admission charged, so the replayed
// accrual is bit-identical.
func specsCost(specs []sim.JobSpec) float64 {
	c := 0
	for _, sp := range specs {
		if sp.Graph != nil {
			c += sp.Graph.NumTasks()
		} else {
			c += sp.Source.TotalTasks()
		}
	}
	return float64(c)
}
