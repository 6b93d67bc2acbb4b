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
	shed     map[string]int64 // leaf path → submissions shed over-quota
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
	}, nil
}

// recordAdmit counts a committed admission against the leaf.
func (fc *fairController) recordAdmit(path string, n int) {
	fc.mu.Lock()
	fc.admitted[path] += int64(n)
	fc.mu.Unlock()
}

// fairAdmit is the fair-share admission gate: it resolves the tenant
// header to a leaf, rebalances the fleet bound over the active leaves
// (with the requester forced active, so a first submission is never shed
// for lack of a share), and rejects with ErrOverQuota when the leaf's
// in-flight work would exceed its share. Returns the resolved leaf path
// for downstream accounting. Only called when fairness is enabled.
//
// Concurrent submissions may both pass the gate before either lands on a
// shard — the transient overshoot is bounded by the caller count and the
// per-shard admission bound still caps the fleet total.
func (s *Service) fairAdmit(tenant string, n int) (string, error) {
	fc := s.fair
	fc.mu.Lock()
	defer fc.mu.Unlock()
	leaf := fc.tree.Ensure(tenant)
	states := s.fairStates(leaf.Path)
	shares := fc.tree.Shares(states, s.cfg.MaxInFlight)
	if states[leaf.Path].InFlight+n > shares[leaf.Path] {
		fc.shed[leaf.Path] += int64(n)
		return "", fmt.Errorf("%w: %s", ErrOverQuota, leaf.Path)
	}
	return leaf.Path, nil
}

// fairStates aggregates every leaf's fleet-wide live state from the
// shards' ledgers: in-flight counts sum, usage sums with each shard's
// accumulator decayed to that shard's own virtual clock. requesting, when
// non-empty, marks the leaf whose admission triggered the rebalance.
// Callers hold fc.mu (lock order: controller, then each shard briefly).
func (s *Service) fairStates(requesting string) map[string]fairshare.State {
	states := make(map[string]fairshare.State)
	for _, sh := range s.shards {
		sh.fairCollect(states)
	}
	if requesting != "" {
		st := states[requesting]
		st.Requesting = true
		states[requesting] = st
	}
	return states
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
	states := s.fairStates("")
	shares := fc.tree.Shares(states, s.cfg.MaxInFlight)
	leaves := fc.tree.Leaves()
	out := make([]TenantStats, 0, len(leaves))
	for _, l := range leaves {
		st := states[l.Path]
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

// shardFair is the per-shard slice of the fairness configuration: enough
// to run the usage ledger without reaching back into the controller.
type shardFair struct {
	halfLife    int64
	defaultPath string
}

// armFair enables the shard's fair ledger. Called from New before any
// step loop or journal replay exists, so no locking is needed.
func (sh *shard) armFair(halfLife int64, defaultPath string) {
	sh.fair = &shardFair{halfLife: halfLife, defaultPath: defaultPath}
	sh.fairUsage = make(map[string]*fairshare.Usage)
	sh.fairInFlight = make(map[string]int)
	sh.fairJobs = make(map[int]string)
}

// fairCollect folds the shard's ledger into a fleet-wide state map,
// decaying usage to this shard's current virtual step.
func (sh *shard) fairCollect(states map[string]fairshare.State) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.fair == nil {
		return
	}
	now := sh.eng.Now()
	for path, u := range sh.fairUsage {
		st := states[path]
		st.Usage += u.At(now, sh.fair.halfLife)
		states[path] = st
	}
	for path, n := range sh.fairInFlight {
		st := states[path]
		st.InFlight += n
		states[path] = st
	}
}

// fairAccrueLocked charges a committed admission to the tenant's ledger:
// usage grows by cost at the shard's current step, the jobs are tracked
// for in-flight accounting. Called with the shard lock held by the
// Admitted apply hook (apply.go) on a fairness-enabled shard.
func (sh *shard) fairAccrueLocked(tenant string, ids []int, cost float64) {
	u := sh.fairUsage[tenant]
	if u == nil {
		u = &fairshare.Usage{}
		sh.fairUsage[tenant] = u
	}
	u.Add(sh.eng.Now(), sh.fair.halfLife, cost)
	sh.fairInFlight[tenant] += len(ids)
	for _, id := range ids {
		sh.fairJobs[id] = tenant
	}
}

// fairForgetLocked drops a finished or cancelled job from the in-flight
// ledger (accrued usage stays — it decays). Called with the shard lock
// held; a no-op for jobs the ledger never tracked.
func (sh *shard) fairForgetLocked(id int) {
	if sh.fairJobs == nil {
		return
	}
	tenant, ok := sh.fairJobs[id]
	if !ok {
		return
	}
	delete(sh.fairJobs, id)
	if n := sh.fairInFlight[tenant]; n > 1 {
		sh.fairInFlight[tenant] = n - 1
	} else {
		delete(sh.fairInFlight, tenant)
	}
}

// fairStateLocked snapshots the shard's ledger for a journal record
// (fresh maps, so the journal never aliases live state).
func (sh *shard) fairStateLocked() journal.FairState {
	st := journal.FairState{V: 1, HalfLife: sh.fair.halfLife}
	if len(sh.fairUsage) > 0 {
		st.Usage = make(map[string]fairshare.Usage, len(sh.fairUsage))
		for k, u := range sh.fairUsage {
			st.Usage[k] = *u
		}
	}
	if len(sh.fairJobs) > 0 {
		st.Jobs = make(map[int]string, len(sh.fairJobs))
		for k, v := range sh.fairJobs {
			st.Jobs[k] = v
		}
	}
	return st
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
