// Package server wraps the incremental simulation engine (internal/sim's
// Engine) in a goroutine-safe, long-running scheduler service. The
// architecture is layered: a shard (shard.go) is one engine plus the step
// loop driving its virtual clock — bounded job admission with
// backpressure, per-job lifecycle tracking with response-time accounting,
// graceful drain. The Service is the admission front-end over N such
// shards: it routes submissions through a pluggable Placement policy
// (placement.go), namespaces job IDs so queries and cancellations reach
// the owning shard without broadcast, fans every shard's step events into
// one subscriber stream (fanout.go), and aggregates per-shard counters
// into fleet-wide Stats and Prometheus metrics (metrics.go). K-RAD's
// per-category analysis holds per machine, so a fleet of independent
// engines preserves the paper's bounds shard by shard while step loops
// scale across cores. The HTTP/JSON surface exposed by cmd/kradd lives in
// http.go.
package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"krad/internal/fairshare"
	"krad/internal/metrics"
	"krad/internal/sched"
	"krad/internal/sim"
)

// Service errors returned by Submit and Cancel.
var (
	// ErrQueueFull means the admission bound (Config.MaxInFlight) was hit:
	// the service sheds load until running jobs drain.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrClosed means the service is shutting down and no longer admits.
	ErrClosed = errors.New("server: service closed")
)

// Config parameterizes a Service.
type Config struct {
	// Sim is the engine configuration: machine shape, scheduler, policies.
	// Trace should normally stay sim.TraceNone for long-running services —
	// traces grow without bound. Every shard gets an identical machine;
	// shard i's engine seed is offset so PickRandom streams do not repeat
	// across shards (shard 0 keeps the configured seed exactly). An
	// Observer, if set, is invoked concurrently from every shard's step
	// loop and must be goroutine-safe when Shards > 1.
	Sim sim.Config
	// Shards is the number of independent engines behind the admission
	// front-end. 0 or 1 means a single engine, which is observationally
	// identical to the pre-sharding service.
	Shards int
	// NewScheduler constructs one scheduler per shard. Required when
	// Shards > 1: schedulers are stateful (K-RAD's round-robin queue,
	// clairvoyant oracles), so independent step loops must not share one
	// instance. When set it overrides Sim.Scheduler; with a single shard
	// it may stay nil and Sim.Scheduler is used as-is.
	NewScheduler func() sched.Scheduler
	// Placement names the shard-routing policy: "round-robin" (default),
	// "hash" (client-keyed affinity), or "least-loaded" (fewest in-flight).
	Placement string
	// MaxInFlight bounds admitted-but-unfinished jobs (pending + active)
	// across the whole fleet; each shard gets an equal share, with the
	// remainder slots going one each to the lowest-numbered shards, so the
	// per-shard shares sum to exactly MaxInFlight. Submissions beyond a
	// shard's share fail with ErrQueueFull. 0 means 256.
	MaxInFlight int
	// StepEvery is the real-time duration of one virtual step. 0 steps as
	// fast as the hardware allows whenever work is queued (useful for
	// tests and batch-like drains).
	StepEvery time.Duration
	// SubscriberBuffer is each event subscriber's channel capacity; events
	// beyond it are dropped for that subscriber (counted, never blocking
	// any step loop). 0 means 64.
	SubscriberBuffer int
	// Journal, when set, write-ahead-journals every committed mutation (one
	// file per shard under Journal.Dir) and replays existing journals
	// during New, making the service crash-safe. Nil disables durability
	// entirely and the service behaves bit-identically to a journal-free
	// build. See JournalConfig (journal.go).
	Journal *JournalConfig
	// Follower, when true, starts the service as a warm replication
	// standby: submissions and cancellations are refused with ErrFollower,
	// the shard step loops stay down (the engines mutate only through
	// ApplyReplicated / ApplyReplicatedSnap, tracking the primary's
	// committed record stream bit-identically), and Ready reports
	// "following" so load balancers keep traffic away. Promote — normally
	// reached through replicate.Receiver's OnPromote — lifts the gate and
	// starts the loops. See internal/replicate for the wire protocol.
	Follower bool
	// RetireDone, when true, retires each job from its shard's engine once
	// its terminal state (completed or cancelled) has been recorded in the
	// shard's lock-striped status index: the engine recycles the job's
	// state for a future admission, bounding engine memory under sustained
	// million-job arrival streams, while status queries keep answering from
	// the index. Retirement is a local memory optimization — IDs stay
	// monotonic, journal replay is unaffected — but idle-point checkpoints
	// become sparse, so a restart (or a replication follower restoring such
	// a snapshot) no longer serves statuses for jobs retired before the
	// checkpoint. Off by default: every behavior, checkpoint shape and
	// per-job query then matches pre-retirement builds exactly.
	RetireDone bool
	// Steal enables cross-shard work stealing: an idle shard's step loop
	// pulls whole pending jobs off the peer with the deepest estimated
	// backlog, journaled on both sides, with the original namespaced IDs
	// kept resolvable through redirects. It also upgrades "least-loaded"
	// placement from in-flight counts to the estimated-remaining-work
	// gauge, and adds Stats.Steal. Replay does not depend on it: every
	// Service — restart, follower, steal-off — rebuilds journaled steals
	// and repairs split pairs through the same apply hooks, and only a
	// steal-enabled one starts steals of its own. Mutually exclusive with
	// Fairness (stolen jobs would escape their tenant's ledger). See
	// steal.go.
	Steal bool
	// Fairness, when set, enables hierarchical multi-tenant fair-share
	// admission: submissions resolve their X-Krad-Tenant header through
	// the queue tree, the fleet MaxInFlight is divided by weighted fair
	// share over the active leaves at each admission, and over-quota
	// tenants are shed with ErrOverQuota (HTTP 429) while under-quota
	// tenants keep admitting. Tenant identity and decayed usage flow
	// through the journal so replay rebuilds bit-identical fair-share
	// state. Nil disables fairness entirely and the service is
	// observationally identical to pre-fairness builds. See
	// internal/fairshare for the tree and division semantics.
	Fairness *fairshare.Config
}

// Event is one step's happenings on one shard, fanned out to subscribers.
type Event struct {
	// Shard identifies the engine that stepped (omitted for shard 0, so a
	// single-shard stream matches the pre-sharding wire format).
	Shard int `json:"shard,omitempty"`
	// Step is the shard's virtual clock after the step (or batch of
	// steps) executed.
	Step int64 `json:"step"`
	// Steps is the number of virtual steps this event aggregates: the
	// shard's step loop batches catch-up work under one lock (up to
	// stepBatch steps), emitting one event per batch. Omitted when 1,
	// so unbatched streams keep the pre-batching wire format.
	Steps int64 `json:"steps,omitempty"`
	// Executed[α−1] counts α-tasks executed over the event's steps.
	Executed []int `json:"executed"`
	// Released and Completed list namespaced job IDs changing state
	// during the event's steps.
	Released  []int `json:"released,omitempty"`
	Completed []int `json:"completed,omitempty"`
	// Active and Pending count the shard's jobs after the step.
	Active  int `json:"active"`
	Pending int `json:"pending"`
}

// Stats is a point-in-time service summary, aggregated across shards:
// counters are sums, Now is the furthest shard clock, Utilization is
// weighted by per-shard elapsed time, and Response merges every shard's
// completed-job response times.
type Stats struct {
	Now   int64 `json:"now"`
	Steps int64 `json:"steps"`
	K     int   `json:"k"`
	// Caps is the per-shard machine shape (every shard is identical).
	Caps        []int  `json:"caps"`
	Scheduler   string `json:"scheduler"`
	Shards      int    `json:"shards"`
	Placement   string `json:"placement"`
	Submitted   int64  `json:"submitted"`
	Completed   int64  `json:"completed"`
	Cancelled   int64  `json:"cancelled"`
	Rejected    int64  `json:"rejected"`
	Active      int    `json:"active"`
	Pending     int    `json:"pending"`
	InFlight    int    `json:"in_flight"`
	MaxInFlight int    `json:"max_in_flight"`
	Draining    bool   `json:"draining"`
	// Utilization[α−1] is the cumulative busy fraction of category α.
	Utilization []float64 `json:"utilization"`
	// Response summarizes completed jobs' response times (virtual steps).
	Response metrics.Summary `json:"response"`
	// EventsDropped counts events discarded on slow subscribers.
	EventsDropped int64 `json:"events_dropped"`
	// Journal aggregates write-ahead journal state; nil (omitted on the
	// wire) when journaling is disabled, keeping the journal-free Stats
	// encoding bit-identical to builds before durability existed.
	Journal *JournalStats `json:"journal,omitempty"`
	// Tenants is per-leaf fair-share state in deterministic leaf order;
	// nil (omitted on the wire) when fairness is disabled, keeping the
	// fairness-free Stats encoding bit-identical to earlier builds.
	Tenants []TenantStats `json:"tenants,omitempty"`
	// Replication reports the daemon's replication role and stream state;
	// nil (omitted on the wire) when replication is not configured,
	// keeping the standalone Stats encoding bit-identical to
	// pre-replication builds.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Steal reports work-stealing totals; nil (omitted on the wire) when
	// stealing is disabled, keeping the steal-free Stats encoding
	// bit-identical to earlier builds.
	Steal *StealStats `json:"steal,omitempty"`
}

// Service is the long-running scheduler front-end: N shards (each one
// engine plus one step-loop goroutine), one placement policy, any number
// of submitting/querying/subscribing goroutines.
type Service struct {
	cfg       Config
	shards    []*shard
	place     Placement
	fan       *fanout
	fair      *fairController // nil when fairness is off
	ledger    *stealLedger    // steal reconciliation, shared with every shard
	schedName string
	retryVals [4]string     // Retry-After values base..base+3s; base from StepEvery
	retrySeq  atomic.Uint32 // round-robin cursor into retryVals

	mu        sync.Mutex
	started   bool
	closed    bool
	follower  bool                     // standby: refuse writes, step loops down
	promoteFn func() int64             // POST /v1/promote target (receiver.Promote)
	repStats  func() *ReplicationStats // replication slice of Stats and /metrics
}

// New builds a Service around Shards fresh engines. Call Start to begin
// stepping.
func New(cfg Config) (*Service, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = 64
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 1 && cfg.NewScheduler == nil {
		return nil, errors.New("server: Shards > 1 requires Config.NewScheduler — shards must not share one stateful scheduler instance")
	}
	if cfg.Steal && cfg.Fairness != nil {
		return nil, errors.New("server: Steal and Fairness are mutually exclusive — a stolen job would escape its tenant's fair-share ledger")
	}
	place, err := NewPlacement(cfg.Placement)
	if err != nil {
		return nil, err
	}
	fan := newFanout(cfg.SubscriberBuffer)
	// Exact apportionment of the fleet bound: base slots for everyone, one
	// extra for the first MaxInFlight mod Shards shards, so the per-shard
	// shares sum to MaxInFlight instead of ceiling past it.
	base := cfg.MaxInFlight / cfg.Shards
	extra := cfg.MaxInFlight % cfg.Shards
	shards := make([]*shard, cfg.Shards)
	ledger := newStealLedger()
	schedName := ""
	for i := range shards {
		simCfg := cfg.Sim
		simCfg.Seed += int64(i) << shardIDBits
		share := base
		if i < extra {
			share++
		}
		// Scheduler construction happens exactly once per shard, inside
		// newShard's engine factory — NewScheduler side-effects (tests count
		// invocations to plant per-shard behaviour) must see one call each.
		sh, err := newShard(i, simCfg, cfg.NewScheduler, share, cfg.StepEvery, fan)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			schedName = sh.eng.SchedulerName()
		}
		sh.standby = cfg.Follower
		sh.retireDone = cfg.RetireDone
		sh.ledger = ledger
		shards[i] = sh
	}
	s := &Service{
		cfg:       cfg,
		shards:    shards,
		place:     place,
		fan:       fan,
		ledger:    ledger,
		schedName: schedName,
		follower:  cfg.Follower,
	}
	if cfg.Steal && len(shards) > 1 {
		// One steal attempt per idle probe, driven from each shard's own
		// step loop; a single-shard fleet has no victims.
		for _, sh := range shards {
			sh := sh
			sh.stealFn = func() bool { return s.stealFor(sh) }
		}
	}
	for i := range s.retryVals {
		s.retryVals[i] = strconv.FormatInt(retryAfterSeconds(cfg.StepEvery)+int64(i), 10)
	}
	if cfg.Fairness != nil {
		fc, err := newFairController(*cfg.Fairness)
		if err != nil {
			return nil, err
		}
		s.fair = fc
		// Arm each shard's ledger before journal replay, so replay can
		// rebuild fair-share state alongside engine state.
		for _, sh := range shards {
			sh.armFair(fc.tree.HalfLife(), fc.tree.Default().Path, fc.slots)
		}
	}
	if cfg.Journal != nil {
		// Replays each shard's journal through its fresh engine before any
		// step loop exists; a corrupt or mismatched journal fails New.
		if err := s.openJournals(cfg.Journal); err != nil {
			return nil, err
		}
	}
	if !cfg.Follower {
		// Repair steals split by a crash, now that every shard's journal has
		// replayed and before any step loop exists. A follower defers this
		// to Promote: its ledger fills from the replicated stream and its
		// engines must not mutate outside it until then.
		if err := s.reconcileSteals(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Start launches every shard's step loop. Extra calls are no-ops, as is
// starting a closed service. A service that is never started still serves
// submissions, queries and cancellations — the clocks just never move
// (useful in tests). A follower Service records the start but keeps the
// loops down until Promote: a standby's engines must mutate only through
// the replicated record stream, or they diverge from the primary.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	follower := s.follower
	s.mu.Unlock()
	if follower {
		return
	}
	for _, sh := range s.shards {
		sh.start()
	}
}

// Shards returns the number of engines behind the front-end.
func (s *Service) Shards() int { return len(s.shards) }

// Submit admits a job via the placement policy (with no affinity key) and
// returns its namespaced ID. A zero Release means "now" (the owning
// shard's current virtual step); a positive Release is an absolute
// virtual time and must not lie in the past. Note that engines
// fast-forward idle virtual-time gaps, so a future release delays a job
// relative to other work on its shard, not relative to wall-clock time.
// Admission is bounded per shard: once a shard's share of MaxInFlight is
// pending or active, submissions placed there fail fast with ErrQueueFull
// so callers can shed or retry.
func (s *Service) Submit(spec sim.JobSpec) (int, error) {
	return s.SubmitTenant("", "", spec)
}

// SubmitKeyed is Submit with a placement affinity key: under the "hash"
// policy, equal keys land on the same shard.
func (s *Service) SubmitKeyed(key string, spec sim.JobSpec) (int, error) {
	return s.SubmitTenant(key, "", spec)
}

// SubmitTenant is SubmitKeyed with a tenant identity (the X-Krad-Tenant
// header value; "" means the default leaf). With fairness enabled the
// submission first passes the fair-share gate — the tenant resolves to a
// queue-tree leaf, the fleet bound is rebalanced over the active leaves,
// and an over-quota tenant is shed with ErrOverQuota. With fairness off
// the tenant is ignored and the call is identical to SubmitKeyed.
func (s *Service) SubmitTenant(key, tenant string, spec sim.JobSpec) (int, error) {
	leafPath := ""
	if s.fair != nil {
		var err error
		leafPath, err = s.fairAdmit(tenant, 1)
		if err != nil {
			return -1, err
		}
	}
	sh, err := s.pick(key)
	if err != nil {
		return -1, err
	}
	local, err := sh.submit(leafPath, spec)
	if err != nil {
		return -1, err
	}
	if s.fair != nil {
		s.fair.recordAdmit(leafPath, 1)
	}
	return composeID(sh.idx, local), nil
}

// SubmitBatch admits every spec — or none — on a single shard chosen by
// the placement policy, under one engine lock acquisition
// (sim.Engine.AdmitBatch). It returns the namespaced IDs in spec order.
// The whole batch must fit the shard's admission bound or it is rejected
// with ErrQueueFull.
func (s *Service) SubmitBatch(key string, specs []sim.JobSpec) ([]int, error) {
	return s.SubmitBatchTenant(key, "", specs)
}

// SubmitBatchTenant is SubmitBatch with a tenant identity; the whole
// batch is gated, admitted and charged as one unit (see SubmitTenant).
func (s *Service) SubmitBatchTenant(key, tenant string, specs []sim.JobSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	leafPath := ""
	if s.fair != nil {
		var err error
		leafPath, err = s.fairAdmit(tenant, len(specs))
		if err != nil {
			return nil, err
		}
	}
	sh, err := s.pick(key)
	if err != nil {
		return nil, err
	}
	// Copy: the shard normalizes zero releases in place.
	own := append([]sim.JobSpec(nil), specs...)
	ids, err := sh.submitBatch(leafPath, own)
	if err != nil {
		return nil, err
	}
	if s.fair != nil {
		s.fair.recordAdmit(leafPath, len(ids))
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = composeID(sh.idx, id)
	}
	return out, nil
}

// StepAll executes up to max virtual steps on every shard by direct
// calls, returning the total executed across shards. It exists for
// deterministic closed-loop drivers — the benchmark's workloads and the
// fair-share closed-loop golden test — that never Start the service and
// instead interleave submissions with hand-driven stepping; on a started
// service it would race the step loops.
func (s *Service) StepAll(max int64) (int64, error) {
	var total int64
	for _, sh := range s.shards {
		n, err := sh.stepN(max)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// pick routes one submission: closed- and follower-check, then placement.
func (s *Service) pick(key string) (*shard, error) {
	s.mu.Lock()
	closed, follower := s.closed, s.follower
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if follower {
		return nil, ErrFollower
	}
	if len(s.shards) == 1 {
		return s.shards[0], nil
	}
	// Loads come from the shards' lock-free gauges, so placement never
	// contends with the step loops. With stealing on, "least-loaded" reads
	// estimated remaining work (task-steps) instead of in-flight counts —
	// the same signal victim selection uses — so placement and stealing
	// pull toward the same equilibrium.
	loads := make([]int, len(s.shards))
	for i, sh := range s.shards {
		if s.cfg.Steal {
			loads[i] = int(sh.loadEstWork.Load())
		} else {
			loads[i] = int(sh.loadRemaining.Load())
		}
	}
	return s.shards[s.place.Pick(key, loads)], nil
}

// shardFor resolves a namespaced job ID to its owning shard.
func (s *Service) shardFor(id int) (*shard, bool) {
	idx := ShardOf(id)
	if idx < 0 || idx >= len(s.shards) {
		return nil, false
	}
	return s.shards[idx], true
}

// resolve follows steal redirects from a namespaced job ID to the shard
// currently holding the job, returning the resolved ID alongside. A job
// that was never stolen resolves to itself in one hop; a chain of steals
// walks one redirect per hop. The hop cap only guards against a corrupted
// cycle — every steal moves a job to a fresh ID, so real chains are
// finite.
func (s *Service) resolve(id int) (int, *shard, bool) {
	for hops := 0; hops < 1<<16; hops++ {
		sh, ok := s.shardFor(id)
		if !ok {
			return 0, nil, false
		}
		if target, ok := sh.tab.redirect(LocalID(id)); ok {
			id = target
			continue
		}
		return id, sh, true
	}
	return 0, nil, false
}

// Cancel withdraws a pending or active job; its processors are free from
// the owning shard's next step. IDs of stolen jobs resolve through their
// redirect chain to wherever the job lives now. It is DELETE without the
// answer: an ID naming no job is refused as such whatever the daemon's
// role.
func (s *Service) Cancel(id int) error {
	_, found, err := s.cancelJob(id, nil)
	if !found {
		return fmt.Errorf("server: no job %d", id)
	}
	return err
}

// cancelJob is Cancel and DELETE: one resolution serves the existence
// check, the cancel and the answer, which is the job's status after the
// cancel with its work vector appended to work. found is false for an ID
// naming no job, which is checked before anything can refuse.
func (s *Service) cancelJob(id int, work []int) (st sim.JobStatus, found bool, err error) {
	st, rid, sh, found := s.lookup(id, work)
	if !found {
		return st, false, nil
	}
	if s.Following() {
		return st, true, ErrFollower
	}
	err = sh.cancel(LocalID(rid))
	if err != nil && s.cfg.Steal {
		// The job may have been stolen between the lookup and the cancel;
		// re-resolve once and retry at its new home.
		if rid2, sh2, ok := s.resolve(rid); ok && rid2 != rid {
			rid, sh, err = rid2, sh2, sh2.cancel(LocalID(rid2))
		}
	}
	if err != nil {
		return st, true, err
	}
	st, _ = sh.job(LocalID(rid), st.Work[:0])
	st.ID = id
	return st, true, nil
}

// Job returns a job's lifecycle status; the returned ID is the namespaced
// one the job was submitted under, even after the job moved shards
// through work stealing.
func (s *Service) Job(id int) (sim.JobStatus, bool) {
	st, _, _, ok := s.lookup(id, nil)
	return st, ok
}

// lookup is Job with the status's work vector appended to work (the HTTP
// handlers pass pooled scratch), answering also the ID and the shard the
// job resolved to.
func (s *Service) lookup(id int, work []int) (sim.JobStatus, int, *shard, bool) {
	rid, sh, ok := s.resolve(id)
	if !ok {
		return sim.JobStatus{}, 0, nil, false
	}
	st, ok := sh.job(LocalID(rid), work)
	if !ok && s.cfg.Steal {
		if rid2, sh2, ok2 := s.resolve(rid); ok2 && rid2 != rid {
			rid, sh = rid2, sh2
			st, ok = sh.job(LocalID(rid), work)
		}
	}
	if ok {
		st.ID = id
	}
	return st, rid, sh, ok
}

// Err returns the step loops' fatal errors, if any occurred (e.g. a
// broken scheduler tripping allotment validation). A shard stops stepping
// after a fatal error but the service keeps serving status queries.
func (s *Service) Err() error {
	errs := make([]error, len(s.shards))
	for i, sh := range s.shards {
		errs[i] = sh.err()
	}
	return errors.Join(errs...)
}

// Stats summarizes the service across every shard.
func (s *Service) Stats() Stats {
	st, _, _ := s.collect()
	return st
}

// collect takes every shard's view once and sums the fleet counters,
// utilization and steal totals: what Stats returns and WriteMetrics renders
// its fleet families from. The views (per-shard families) and the merged
// response histogram (its buckets) ride along for the exposition.
func (s *Service) collect() (Stats, []shardView, *metrics.Hist) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()

	st := Stats{
		K:           s.cfg.Sim.K,
		Scheduler:   s.schedName,
		Shards:      len(s.shards),
		Placement:   s.place.Name(),
		Draining:    draining,
		Utilization: make([]float64, s.cfg.Sim.K),
	}
	execTotal := make([]int64, s.cfg.Sim.K)
	var elapsed int64
	var resp metrics.Hist
	var steal StealStats
	views := make([]shardView, len(s.shards))
	for i, sh := range s.shards {
		v := sh.view(&resp)
		views[i] = v
		if st.Caps == nil {
			st.Caps = v.snap.Caps
		}
		if v.snap.Now > st.Now {
			st.Now = v.snap.Now
		}
		st.Steps += v.steps
		st.Submitted += v.submitted
		st.Completed += v.completed
		st.Cancelled += v.cancelled
		st.Rejected += v.rejected
		st.Active += v.snap.Active
		st.Pending += v.snap.Pending
		st.MaxInFlight += sh.maxInFlight
		elapsed += v.snap.Now
		for a, w := range v.snap.ExecutedTotal {
			execTotal[a] += w
		}
		steal.Stolen += int64(v.snap.Stolen)
		steal.StolenIn += v.stolenIn
		steal.EstWork += v.estWork
	}
	st.InFlight = st.Active + st.Pending
	if elapsed > 0 {
		for a, w := range execTotal {
			st.Utilization[a] = float64(w) / (float64(st.Caps[a]) * float64(elapsed))
		}
	}
	st.Response = resp.Summary()
	_, st.EventsDropped = s.fan.stats()
	st.Journal = s.journalStats()
	st.Tenants = s.tenantStats()
	st.Replication = s.replicationStats()
	if s.cfg.Steal {
		st.Steal = &steal
	}
	return st, views, &resp
}

// replicationStats invokes the registered replication probe, or nil when
// replication is not configured.
func (s *Service) replicationStats() *ReplicationStats {
	s.mu.Lock()
	f := s.repStats
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}

// Subscribe registers an event listener over the merged stream of every
// shard's step events. The returned cancel function unsubscribes and
// closes the channel; the channel also closes when the service shuts
// down. Slow subscribers lose events rather than slowing any step loop.
func (s *Service) Subscribe() (<-chan Event, func()) {
	return s.fan.subscribe()
}

// Close stops admission, drains in-flight jobs on every shard in
// parallel (stepping until each engine is idle), then stops the loops and
// closes subscriber channels. If ctx expires first, the remaining loops
// are stopped immediately, abandoning unfinished jobs.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = sh.close(ctx)
		}(i, sh)
	}
	wg.Wait()
	s.fan.close()
	return errors.Join(errs...)
}
