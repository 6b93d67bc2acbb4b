package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"krad/internal/journal"
	"krad/internal/sim"
)

// Cross-shard work stealing (Config.Steal): an idle shard's step loop
// pulls whole pending jobs off the deepest peer's queue so a skewed
// arrival stream — one hot placement key hashing to one shard — drains at
// fleet speed instead of single-shard speed.
//
// The move is withdraw-on-victim + admit-on-thief under two shard locks
// taken in shard-index order (stealFor), each half a journaled record that
// goes down the one mutation pipeline (apply.go) — so a live steal, restart
// replay and a warm-standby follower build bit-identical state: the victim
// commits a steal record (which jobs left, where they went), the thief an
// admit record tagged with the jobs' original namespaced IDs
// (journal.StealAdmitRecord). The victim's half is durable before the
// thief's is built. The victim's ID table gains a redirect per stolen job,
// so status and cancel by the original namespaced ID keep working
// (Service.resolve follows the chain).
//
// A crash can still land between the two records; reconcileSteals repairs
// that at startup and at follower promotion, before any step loop runs.

// stealProbeEvery bounds how long an idle steal-enabled shard parks
// before re-probing for victims: work arriving at a peer never kicks this
// shard's wake channel.
const stealProbeEvery = 2 * time.Millisecond

// stealMax caps how many jobs one steal moves; the work target is always
// half the victim's pending work.
const stealMax = 64

// stealIn is the thief half of a steal (from its From-tagged admit
// record): where the job landed.
type stealIn struct {
	to      int // thief shard index
	toLocal int // thief-local job ID
}

// stealOut is the victim half of a steal (from its steal record): where
// the job went and the original spec the thief was supposed to re-admit —
// what an orphan repair needs.
type stealOut struct {
	to      int
	toLocal int
	spec    sim.JobSpec
}

// stealLedger is the service-wide reconciliation ledger, keyed by the
// stolen job's original namespaced ID. The apply hooks feed it one half at
// a time — live, at startup replay, on a follower — and a half that finds
// its partner cancels against it, so the ledger only ever holds steals one
// of whose records is missing: a live steal nets to nothing, a crash
// between the pair leaves exactly the half reconcileSteals must repair.
// Lock order is shard.mu → ledger.mu; reconcileSteals therefore snapshots
// the ledger before touching any shard lock.
type stealLedger struct {
	mu  sync.Mutex
	out map[int]stealOut // victim half only: the jobs exist nowhere (orphans)
	in  map[int]stealIn  // thief half only: the jobs exist twice (duplicates)
}

func newStealLedger() *stealLedger {
	return &stealLedger{out: make(map[int]stealOut), in: make(map[int]stealIn)}
}

// stolen folds a victim-side steal record into the ledger.
func (l *stealLedger) stolen(victimIdx int, rec journal.Record, specs []sim.JobSpec) {
	l.mu.Lock()
	for k, id := range rec.IDs {
		src := composeID(victimIdx, id)
		if _, ok := l.in[src]; ok {
			delete(l.in, src)
			continue
		}
		l.out[src] = stealOut{to: rec.To, toLocal: rec.NBase + k, spec: specs[k]}
	}
	l.mu.Unlock()
}

// admitted folds a thief-side steal admission into the ledger.
func (l *stealLedger) admitted(thiefIdx int, from, ids []int) {
	l.mu.Lock()
	for k, src := range from {
		if _, ok := l.out[src]; ok {
			delete(l.out, src)
			continue
		}
		l.in[src] = stealIn{to: thiefIdx, toLocal: ids[k]}
	}
	l.mu.Unlock()
}

// stealFor attempts one steal on thief's behalf: pick the peer with the
// deepest stealable (pending) backlog off the lock-free gauges, move up
// to half its pending work — at most stealMax jobs, and never past
// the thief's admission bound — and commit both halves. Returns whether
// any work moved. Called from the thief's own step loop, so at most one
// stealFor runs per thief at a time; the no-victim probe path is
// allocation-free (AllocsPerRun-pinned).
func (s *Service) stealFor(thief *shard) bool {
	var victim *shard
	var best int64
	for _, sh := range s.shards {
		if sh == thief {
			continue
		}
		// Deepest pending backlog wins; ties keep the lowest shard index.
		if w := sh.loadPendWork.Load(); w > best {
			best, victim = w, sh
		}
	}
	if victim == nil {
		return false
	}
	// Two-lock protocol, ordered by shard index so concurrent thieves can
	// never deadlock.
	lo, hi := thief, victim
	if hi.idx < lo.idx {
		lo, hi = hi, lo
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	hi.mu.Lock()
	defer hi.mu.Unlock()

	// Validate under the locks: the gauges were a hint. A fenced or
	// lease-expired primary, or a degraded disk on either side, moves
	// nothing.
	if thief.closed || victim.closed || thief.stepErr != nil || victim.stepErr != nil {
		return false
	}
	if thief.writableLocked() != nil || !victim.journalHealthyLocked() {
		return false
	}
	target := victim.eng.PendingWork() / 2
	if target <= 0 {
		return false
	}
	maxJobs := stealMax
	if free := thief.maxInFlight - thief.eng.Remaining(); free < maxJobs {
		maxJobs = free
	}
	if maxJobs <= 0 {
		return false
	}
	ids := victim.eng.StealCandidates(thief.stealIDs[:0], maxJobs, target)
	thief.stealIDs = ids[:0]
	if len(ids) == 0 {
		return false
	}

	// Victim half. The candidates are pending under this lock, so once the
	// record is down its withdraws cannot fail; an append failure means the
	// victim just degraded and nothing moved.
	vrec := journal.StealRecord(ids, thief.idx, thief.eng.NextID())
	if victim.commitLocked(&vrec, nil) != nil {
		return false
	}
	// Thief half: exactly the specs the victim gave up. Shard virtual clocks
	// are independent and a release in the thief's past would be refused,
	// so past releases move up to its clock; future ones (not-yet-due jobs)
	// are preserved.
	specs := victim.out.withdrawn
	from := thief.stealFrom[:0]
	now := thief.eng.Now()
	for k := range specs {
		if specs[k].Release < now {
			specs[k].Release = now
		}
		from = append(from, composeID(victim.idx, ids[k]))
	}
	thief.stealFrom = from
	arec, err := thief.admitRecordLocked(specs, "", from)
	if err != nil {
		// Unreachable: the victim journaled these very specs. Latch loudly —
		// the victim's journal says the jobs moved here.
		thief.stepErr = fmt.Errorf("server: shard %d: steal re-admit from shard %d: %v", thief.idx, victim.idx, err)
		return false
	}
	// Like a steps record, the thief's half applies even when its append
	// fails: the failure latches the thief's journal, so nothing later can
	// interleave with the missing record, the jobs keep running from memory
	// like all in-flight work on a degraded disk, and after a crash startup
	// reconciliation finds the victim's record unmatched and re-homes the
	// jobs there (orphan path).
	_ = thief.journalLocked(arec)
	return thief.applyLocked(arec, specs) == nil
}

// reconcileSteals repairs steals whose two journal records were split by
// a crash. Runs after every shard's journal has replayed (startup) and at
// follower promotion — always before any step loop can race it. Two
// one-sided states exist:
//
//   - Orphan: the victim's steal record is durable, the thief's admit
//     record is not (the thief crashed before its append/sync). The jobs
//     exist nowhere. Repair re-admits them on the victim under a fresh
//     journaled steal admission, overwriting the stale redirect — chosen
//     over re-admitting on the thief because the victim's durable record
//     already names a thief-local ID the thief may never assign.
//
//   - Duplicate: the thief's admit record is durable, the victim's steal
//     record is not (possible only under non-forced sync policies). The
//     job is pending on both. Repair withdraws the victim's copy now,
//     journaling the steal record the crash ate.
//
// Anything else — the thief consumed the promised ID with a different
// admission, the victim's copy already ran — means the journals diverged;
// that is a hard error, never a silent repair. Each repair is an ordinary
// committed record, so its apply hooks settle the ledger entry it fixes.
func (s *Service) reconcileSteals() error {
	if s.ledger == nil {
		return nil
	}
	// Snapshot under the ledger lock alone (lock order is shard.mu →
	// ledger.mu), in deterministic ID order so repairs journal identically
	// across identical crashes.
	type orphan struct {
		src int
		out stealOut
	}
	type dup struct {
		src int
		in  stealIn
	}
	s.ledger.mu.Lock()
	orphans := make([]orphan, 0, len(s.ledger.out))
	for src, o := range s.ledger.out {
		orphans = append(orphans, orphan{src, o})
	}
	dups := make([]dup, 0, len(s.ledger.in))
	for src, in := range s.ledger.in {
		dups = append(dups, dup{src, in})
	}
	s.ledger.mu.Unlock()
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].src < orphans[j].src })
	sort.Slice(dups, func(i, j int) bool { return dups[i].src < dups[j].src })
	for _, o := range orphans {
		if err := s.fixOrphanSteal(o.src, o.out); err != nil {
			return err
		}
	}
	for _, d := range dups {
		if err := s.fixDuplicateSteal(d.src, d.in); err != nil {
			return err
		}
	}
	return nil
}

// fixOrphanSteal re-admits a job whose steal lost its thief half: the
// victim journaled the withdraw, the thief never durably admitted. The
// job is re-admitted on the victim itself, journaled as a steal admission
// tagged with the original ID, so the next replay rebuilds the same
// repair and the original ID redirects to the job's new home.
func (s *Service) fixOrphanSteal(src int, out stealOut) error {
	victim := s.shards[ShardOf(src)]
	thief := s.shards[out.to]
	thief.mu.Lock()
	next := thief.eng.NextID()
	thief.mu.Unlock()
	if next > out.toLocal {
		return fmt.Errorf("server: steal of job %d to shard %d diverged: the thief consumed local ID %d without the matching steal admission; refusing to serve diverged journals", src, out.to, out.toLocal)
	}
	victim.mu.Lock()
	defer victim.mu.Unlock()
	if !victim.journalHealthyLocked() {
		return fmt.Errorf("server: shard %d: cannot repair orphaned steal of job %d: %w", victim.idx, src, ErrDegraded)
	}
	specs := []sim.JobSpec{out.spec}
	if specs[0].Release < victim.eng.Now() {
		specs[0].Release = victim.eng.Now()
	}
	if _, err := victim.admitLocked(specs, "", []int{src}); err != nil {
		return fmt.Errorf("server: shard %d: re-admit orphaned steal of job %d: %w", victim.idx, src, err)
	}
	return nil
}

// fixDuplicateSteal withdraws the victim-side copy of a job whose steal
// lost its victim half: the thief durably admitted it, but the victim's
// steal record never reached disk, leaving the job pending on both
// shards. The repair performs the withdraw the crash ate, journaled as
// the same steal record.
func (s *Service) fixDuplicateSteal(src int, in stealIn) error {
	victim := s.shards[ShardOf(src)]
	victim.mu.Lock()
	defer victim.mu.Unlock()
	local := LocalID(src)
	if local >= victim.eng.NextID() {
		// The victim's journal lost the admission itself: new admissions
		// would reuse this local ID while the thief's copy runs under the
		// original name. No safe mapping exists.
		return fmt.Errorf("server: shard %d journal lost admitted job %d that shard %d stole; refusing to serve diverged journals", victim.idx, src, in.to)
	}
	st, ok := victim.eng.JobRef(local)
	if !ok || st.Phase != sim.JobPending {
		phase := "retired"
		if ok {
			phase = st.Phase.String()
		}
		return fmt.Errorf("server: job %d is %s on shard %d but also admitted on shard %d by a steal; refusing to serve diverged journals", src, phase, victim.idx, in.to)
	}
	if !victim.journalHealthyLocked() {
		return fmt.Errorf("server: shard %d: cannot repair duplicated steal of job %d: %w", victim.idx, src, ErrDegraded)
	}
	rec := journal.StealRecord([]int{local}, in.to, in.toLocal)
	if err := victim.commitLocked(&rec, nil); err != nil {
		return fmt.Errorf("server: shard %d: withdraw duplicated steal of job %d: %w", victim.idx, src, err)
	}
	return nil
}

// StealStats is the work-stealing slice of Stats; nil (omitted on the
// wire) when stealing is disabled, keeping the steal-free encoding
// bit-identical to earlier builds.
type StealStats struct {
	// Stolen counts jobs moved off their admission shard (fleet-wide
	// victim-side total, durable across restarts).
	Stolen int64 `json:"stolen"`
	// StolenIn counts jobs re-admitted by thieves (fleet-wide; equals
	// Stolen when no steal is mid-repair).
	StolenIn int64 `json:"stolen_in"`
	// EstWork is the fleet's estimated remaining work (task-steps), the
	// gauge placement and victim selection read.
	EstWork int64 `json:"est_work"`
}
