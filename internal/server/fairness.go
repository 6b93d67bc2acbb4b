package server

import (
	"errors"
	"fmt"
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

// fairController owns the queue tree and the per-tenant admission
// counters. The tree is not goroutine-safe, so every resolution and
// rebalance runs under mu; the usage ledgers themselves live per shard
// (each under its shard's lock and virtual clock) and are aggregated
// here at rebalance time.
type fairController struct {
	mu       sync.Mutex
	tree     *fairshare.Tree
	admitted map[string]int64 // leaf path → jobs admitted
	shed     map[string]int64 // leaf path → jobs shed over quota

	// slots numbers the tenant paths the shards' ledgers are indexed by;
	// leafSlot is each tree leaf's slot, by leaf index, and states the
	// gate's per-leaf inputs, refilled on every call.
	slots    *tenantSlots
	leafSlot []int
	states   []fairshare.State
}

func newFairController(cfg fairshare.Config) (*fairController, error) {
	tree, err := fairshare.New(cfg)
	if err != nil {
		return nil, err
	}
	return &fairController{
		tree:     tree,
		admitted: make(map[string]int64),
		shed:     make(map[string]int64),
		slots:    &tenantSlots{index: make(map[string]int)},
	}, nil
}

// ensureLeaves gives every tenant the shard ledgers have numbered a tree
// leaf, in slot order. Dynamic leaves live only in the tree, which no
// journal records, so a restart or a promoted follower grows them back from
// the replayed records rather than leaving tenants with jobs in flight out
// of the division until they submit again.
func (fc *fairController) ensureLeaves() {
	fc.slots.mu.Lock()
	paths := append([]string(nil), fc.slots.paths...)
	fc.slots.mu.Unlock()
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for _, p := range paths {
		fc.tree.Ensure(p)
	}
}

// recordAdmit counts a committed admission against the leaf.
func (fc *fairController) recordAdmit(path string, n int) {
	fc.mu.Lock()
	fc.admitted[path] += int64(n)
	fc.mu.Unlock()
}

// fairAdmit is the fair-share admission gate: it resolves the tenant
// header to a leaf, divides the fleet bound over the active leaves (with
// the requester forced active, so a first submission is never shed for
// lack of a share), and rejects the n jobs with ErrOverQuota when they
// would take the leaf's in-flight work past its share. Only the share of
// the requesting leaf is computed: Tree.Share divides down its ancestor
// path alone, which gives what the full division (Tree.Shares) gives that
// leaf. Returns the resolved leaf path for downstream accounting. Only
// called when fairness is enabled.
//
// Concurrent submissions may both pass the gate before either lands on a
// shard — the transient overshoot is bounded by the caller count and the
// per-shard admission bound still caps the fleet total.
func (s *Service) fairAdmit(tenant string, n int) (string, error) {
	fc := s.fair
	fc.mu.Lock()
	defer fc.mu.Unlock()
	leaf := fc.tree.Ensure(tenant)
	states := s.fairInputs()
	states[leaf.Index()].Requesting = true
	if states[leaf.Index()].InFlight+n > fc.tree.Share(leaf, states, s.cfg.MaxInFlight) {
		fc.shed[leaf.Path] += int64(n)
		return "", fmt.Errorf("%w: %s", ErrOverQuota, leaf.Path)
	}
	return leaf.Path, nil
}

// fairInputs gathers every tree leaf's fleet-wide live state from the
// shards' ledgers, indexed like the tree's leaves: in-flight counts sum,
// usage sums in shard order with each shard's accumulator decayed to that
// shard's own virtual clock. Callers hold fc.mu (lock order: controller,
// then each shard briefly); the result is the controller's scratch, valid
// until the next call.
func (s *Service) fairInputs() []fairshare.State {
	fc := s.fair
	leaves := fc.tree.Leaves()
	for i := len(fc.leafSlot); i < len(leaves); i++ {
		fc.leafSlot = append(fc.leafSlot, fc.slots.of(leaves[i].Path))
	}
	if cap(fc.states) < len(leaves) {
		fc.states = make([]fairshare.State, len(leaves))
	}
	fc.states = fc.states[:len(leaves)]
	clear(fc.states)
	for _, sh := range s.shards {
		sh.fairCollect(fc.leafSlot, fc.states)
	}
	return fc.states
}

// tenantSlots numbers tenant paths fleet-wide in first-seen order. Every
// shard's ledger is a slice indexed by slot, so the gate reads one tenant
// across shards at one index. Paths are never forgotten: they are queue-tree
// leaves, bounded by the tree's dynamic-leaf cap. Its lock is taken by the
// apply hooks under a shard lock and by the gate under the controller lock,
// and nothing is locked under it.
type tenantSlots struct {
	mu    sync.Mutex
	index map[string]int
	paths []string
}

// of returns path's slot, numbering it if it is new.
func (ts *tenantSlots) of(path string) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	slot, ok := ts.index[path]
	if !ok {
		slot = len(ts.paths)
		ts.index[path] = slot
		ts.paths = append(ts.paths, path)
	}
	return slot
}

// path returns the path numbered slot.
func (ts *tenantSlots) path(slot int) string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.paths[slot]
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

// tenantStats snapshots per-tenant fair-share state in deterministic leaf
// order, or nil when fairness is off — keeping the fairness-off Stats
// encoding bit-identical to pre-fairness builds.
func (s *Service) tenantStats() []TenantStats {
	fc := s.fair
	if fc == nil {
		return nil
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	flat := s.fairInputs()
	leaves := fc.tree.Leaves()
	states := make(map[string]fairshare.State, len(leaves))
	for i, l := range leaves {
		states[l.Path] = flat[i]
	}
	shares := fc.tree.Shares(states, s.cfg.MaxInFlight)
	out := make([]TenantStats, 0, len(leaves))
	for i, l := range leaves {
		st := flat[i]
		out = append(out, TenantStats{
			Path:     l.Path,
			InFlight: st.InFlight,
			Share:    shares[l.Path],
			Usage:    st.Usage,
			Admitted: fc.admitted[l.Path],
			Shed:     fc.shed[l.Path],
		})
	}
	return out
}

// shardFair is the shard's slice of fair-share accounting, indexed by
// tenant slot: the usage this shard charged each tenant, decayed on its
// own virtual clock, and the tenant's jobs in flight here, plus each
// in-flight job's slot. A stolen job is in flight on its thief, while the
// usage its admission charged stays on the victim. Only the apply hooks
// write it — Admitted, the completions, cancellations and steals that
// forget a job, and a fair or snap record restoring it — all under the
// shard lock; the gate reads it under the same lock.
type shardFair struct {
	halfLife    int64
	defaultPath string
	slots       *tenantSlots
	ledger      []fairLeaf
	jobs        map[int]int // in-flight job → slot
}

// fairLeaf is one tenant's part of a shard ledger.
type fairLeaf struct {
	usage    fairshare.Usage
	charged  bool // usage has an entry in this shard's journaled ledger
	inFlight int
}

// leaf returns slot's entry, growing the ledger to it.
func (f *shardFair) leaf(slot int) *fairLeaf {
	for len(f.ledger) <= slot {
		f.ledger = append(f.ledger, fairLeaf{})
	}
	return &f.ledger[slot]
}

// slot returns tenant's slot; "" is the default leaf.
func (f *shardFair) slot(tenant string) int {
	if tenant == "" {
		tenant = f.defaultPath
	}
	return f.slots.of(tenant)
}

// armFair enables the shard's fair ledger. Called from New before any
// step loop or journal replay exists, so no locking is needed.
func (sh *shard) armFair(halfLife int64, defaultPath string, slots *tenantSlots) {
	sh.fair = &shardFair{halfLife: halfLife, defaultPath: defaultPath, slots: slots, jobs: make(map[int]int)}
}

// fairCollect adds the shard's ledger into states, the tree leaf i reading
// slot leafSlot[i], with usage decayed to this shard's current virtual
// step. A leaf the shard never charged adds nothing.
func (sh *shard) fairCollect(leafSlot []int, states []fairshare.State) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now, ledger := sh.eng.Now(), sh.fair.ledger
	for i, slot := range leafSlot {
		if slot >= len(ledger) {
			continue
		}
		l := &ledger[slot]
		if l.usage.V != 0 {
			states[i].Usage += l.usage.At(now, sh.fair.halfLife)
		}
		states[i].InFlight += l.inFlight
	}
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
	slot := f.slot(rec.Tenant)
	if len(rec.From) == 0 {
		l := f.leaf(slot)
		l.usage.Add(sh.eng.Now(), f.halfLife, specsCost(specs))
		l.charged = true
	}
	for k, id := range ids {
		if len(rec.Tenants) != 0 {
			slot = f.slot(rec.Tenants[k])
		}
		f.jobs[id] = slot
		f.leaf(slot).inFlight++
	}
}

// fairForgetLocked drops a finished, cancelled or stolen job from the
// in-flight ledger (accrued usage stays — it decays) and returns the slot
// it was tracked under, or -1 for a job the ledger never tracked. Called
// with the shard lock held.
func (sh *shard) fairForgetLocked(id int) int {
	if sh.fair == nil {
		return -1
	}
	slot, ok := sh.fair.jobs[id]
	if !ok {
		return -1
	}
	delete(sh.fair.jobs, id)
	sh.fair.ledger[slot].inFlight--
	return slot
}

// fairStateLocked snapshots the shard's ledger for a journal record
// (fresh maps, so the journal never aliases live state).
func (sh *shard) fairStateLocked() journal.FairState {
	f := sh.fair
	st := journal.FairState{V: 1, HalfLife: f.halfLife}
	for slot, l := range f.ledger {
		if l.charged {
			if st.Usage == nil {
				st.Usage = make(map[string]fairshare.Usage)
			}
			st.Usage[f.slots.path(slot)] = l.usage
		}
	}
	if len(f.jobs) > 0 {
		st.Jobs = make(map[int]string, len(f.jobs))
		for id, slot := range f.jobs {
			st.Jobs[id] = f.slots.path(slot)
		}
	}
	return st
}

// setFairLocked replaces the shard's ledger with the one st declares.
func (sh *shard) setFairLocked(st journal.FairState) {
	f := sh.fair
	clear(f.ledger)
	for path, u := range st.Usage {
		l := f.leaf(f.slots.of(path))
		l.usage, l.charged = u, true
	}
	f.jobs = make(map[int]int, len(st.Jobs))
	for id, tenant := range st.Jobs {
		slot := f.slots.of(tenant)
		f.jobs[id] = slot
		f.leaf(slot).inFlight++
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
