package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/sched"
	"krad/internal/sim"
)

// stealConfig is a multi-shard config with work stealing enabled.
func stealConfig(shards int, k int, caps ...int) Config {
	cfg := testConfig(k, caps...)
	cfg.Shards = shards
	cfg.NewScheduler = func() sched.Scheduler { return core.NewKRAD(k) }
	cfg.Steal = true
	return cfg
}

// journaledStealConfig adds a journal dir; restartStealConfig rebuilds a
// config over the same dir with nothing mutable shared (like
// journaledConfigFrom, plus Steal, which it does not carry).
func journaledStealConfig(t *testing.T, shards int, k int, caps ...int) Config {
	t.Helper()
	cfg := stealConfig(shards, k, caps...)
	cfg.Journal = &JournalConfig{Dir: t.TempDir()}
	return cfg
}

func restartStealConfig(cfg Config) Config {
	out := journaledConfigFrom(cfg)
	out.Steal = cfg.Steal
	return out
}

// submitBurst admits n chain jobs of the given span straight onto one
// shard (bypassing placement, so the backlog is maximally skewed) and
// returns their namespaced IDs. Only not-yet-released jobs are stealable,
// so tests that step the victim before stealing pass a future release.
func submitBurst(t *testing.T, svc *Service, shard, n, span int, release int64) []int {
	t.Helper()
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		local, err := svc.shards[shard].submitBatch("", []sim.JobSpec{{Graph: dag.UniformChain(1, span, 1), Release: release}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, composeID(shard, local[0]))
	}
	return ids
}

// faultyShardDisk routes cfg's journal opens through journal.FaultFile with
// an unbounded budget and returns a func yielding the one over shard's WAL,
// as last opened, for the test to arm.
func faultyShardDisk(cfg Config, shard int) func() *journal.FaultFile {
	wal := shardJournalPath(cfg.Journal.Dir, shard)
	var disk *journal.FaultFile
	cfg.Journal.OpenAppend = func(path string) (journal.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		ff := &journal.FaultFile{F: f, N: 1 << 30}
		if path == wal {
			disk = ff
		}
		return ff, nil
	}
	return func() *journal.FaultFile { return disk }
}

// drainManually steps every shard (and lets every thief steal) until the
// fleet makes no more progress, keeping the whole run on the test's
// deterministic clock — no step loops.
func drainManually(t *testing.T, svc *Service) {
	t.Helper()
	for {
		progress := false
		// All steals before any step: a step releases every due pending job
		// (an idle engine fast-forwards), which closes the steal window.
		for i := range svc.shards {
			if svc.cfg.Steal && svc.shards[i].stealFn != nil && svc.shards[i].stealFn() {
				progress = true
			}
		}
		for i := range svc.shards {
			if stepShard(t, svc, i) {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// TestStealMovesPendingWork pins the live steal protocol end to end on a
// hand-driven clock: a burst lands on shard 0, shard 1 steals, and the
// original namespaced IDs keep answering status and cancel through the
// redirect chain.
func TestStealMovesPendingWork(t *testing.T) {
	cfg := stealConfig(2, 1, 1)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBurst(t, svc, 0, 8, 3, 0)

	if !svc.stealFor(svc.shards[1]) {
		t.Fatal("stealFor moved nothing off a shard with 8 pending jobs")
	}
	st := svc.Stats()
	if st.Steal == nil {
		t.Fatal("Stats.Steal nil with stealing enabled")
	}
	if st.Steal.Stolen == 0 || st.Steal.Stolen != st.Steal.StolenIn {
		t.Fatalf("steal counters %+v, want stolen == stolen_in > 0", st.Steal)
	}
	if st.Submitted != 8 {
		t.Fatalf("submitted %d after steal, want 8 (a steal is not an external admission)", st.Submitted)
	}
	// Thief holds real work now: the same gauge placement reads.
	if w := svc.shards[1].loadEstWork.Load(); w <= 0 {
		t.Fatalf("thief est-work gauge %d after steal, want > 0", w)
	}

	// Every original ID still resolves, stolen or not, and reports itself
	// under the ID the client was given.
	stolen := -1
	for _, id := range ids {
		js, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %d lost after steal", id)
		}
		if js.ID != id {
			t.Fatalf("job %d reports ID %d", id, js.ID)
		}
		if _, moved := svc.shards[0].redirect(LocalID(id)); moved {
			if stolen < 0 {
				stolen = id
			}
			requireStolenOnVictim(t, svc, id)
		}
	}
	if stolen < 0 {
		t.Fatal("no redirect installed on the victim")
	}
	// Cancel by original ID crosses the redirect to the thief.
	if err := svc.Cancel(stolen); err != nil {
		t.Fatalf("cancel stolen job %d: %v", stolen, err)
	}

	drainManually(t, svc)
	final := svc.Stats()
	if final.Completed+final.Cancelled != 8 || final.Cancelled != 1 {
		t.Fatalf("terminal stats %+v, want 7 completed + 1 cancelled", final)
	}
	for _, id := range ids {
		js, ok := svc.Job(id)
		if !ok || (js.Phase != sim.JobDone && js.Phase != sim.JobCancelled) {
			t.Fatalf("job %d not terminal: %+v ok=%v", id, js, ok)
		}
	}
}

// TestStealPicksDeepestPendingBacklog pins what victim selection reads:
// pending work, not the estimated-remaining-work gauge that least-loaded
// placement reads. Shard 0 owes the most work but all of it is active;
// shard 1 owes less, all of it pending. A thief that chose by estimated
// work would pick shard 0, find nothing stealable and move nothing.
func TestStealPicksDeepestPendingBacklog(t *testing.T) {
	svc, err := New(stealConfig(3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	submitBurst(t, svc, 0, 4, 50, 0)
	stepShard(t, svc, 0) // releases shard 0's jobs: active, none pending
	pending := submitBurst(t, svc, 1, 3, 5, 1000)

	sh0, sh1, thief := svc.shards[0], svc.shards[1], svc.shards[2]
	if p := sh0.loadPendWork.Load(); p != 0 {
		t.Fatalf("shard 0 pending work %d, want 0", p)
	}
	if e0, e1, p1 := sh0.loadEstWork.Load(), sh1.loadEstWork.Load(), sh1.loadPendWork.Load(); e0 <= e1 || p1 != e1 {
		t.Fatalf("est work %d (shard 0) vs %d (shard 1), shard 1 pending %d: want shard 0 deeper by estimated work and shard 1 all pending", e0, e1, p1)
	}
	before := sh1.loadPendWork.Load()

	if !svc.stealFor(thief) {
		t.Fatal("stealFor moved nothing")
	}
	if after := sh1.loadPendWork.Load(); after >= before {
		t.Fatalf("shard 1 pending work %d after the steal, was %d", after, before)
	}
	if w := thief.loadPendWork.Load(); w <= 0 {
		t.Fatalf("thief pending work %d after the steal, want > 0", w)
	}
	if n := len(sh0.redirects()); n != 0 {
		t.Fatalf("shard 0 gave up %d jobs, want none", n)
	}
	moved := 0
	for _, id := range pending {
		if _, ok := sh1.redirect(LocalID(id)); ok {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no job of shard 1 carries a redirect")
	}
}

// requireStolenOnVictim asserts that the shard a job was stolen from keeps
// only its stolen record, which status reads pass over for the redirect —
// the answer a live steal, a restart and a follower must all give.
func requireStolenOnVictim(t *testing.T, svc *Service, id int) {
	t.Helper()
	sh := svc.shards[ShardOf(id)]
	if st, ok := sh.job(LocalID(id), nil); ok {
		t.Fatalf("stolen job %d still answers on its victim: %+v", id, st)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.eng.JobRef(LocalID(id)); !ok || st.Phase != sim.JobStolen {
		t.Fatalf("stolen job %d on its victim's engine: %+v ok=%v, want its stolen record", id, st, ok)
	}
}

// requireSameRedirects asserts two services' shards send every stolen
// job's original ID to the same place.
func requireSameRedirects(t *testing.T, a, b *Service) {
	t.Helper()
	for i := range a.shards {
		ar, br := a.shards[i].redirects(), b.shards[i].redirects()
		if !reflect.DeepEqual(ar, br) {
			t.Fatalf("shard %d: redirects differ\n%v\n%v", i, ar, br)
		}
	}
}

// TestStealConservation is the steal-on/steal-off quickcheck: the same
// seeded job set must reach the same terminal statuses either way — no
// job lost, none duplicated, same completion count.
func TestStealConservation(t *testing.T) {
	specs := func() []sim.JobSpec {
		rng := rand.New(rand.NewSource(11))
		out := make([]sim.JobSpec, 60)
		for i := range out {
			out[i] = sim.JobSpec{Graph: dag.UniformChain(1, 1+rng.Intn(5), 1)}
		}
		return out
	}

	run := func(steal bool) (Stats, map[int]sim.JobPhase) {
		cfg := stealConfig(4, 1, 1)
		cfg.Steal = steal
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, spec := range specs() {
			local, err := svc.shards[0].submitBatch("", []sim.JobSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, composeID(0, local[0]))
		}
		drainManually(t, svc)
		phases := map[int]sim.JobPhase{}
		for _, id := range ids {
			js, ok := svc.Job(id)
			if !ok {
				t.Fatalf("steal=%v: job %d lost", steal, id)
			}
			phases[id] = js.Phase
		}
		return svc.Stats(), phases
	}

	offStats, offPhases := run(false)
	onStats, onPhases := run(true)
	if onStats.Completed != offStats.Completed || onStats.Submitted != offStats.Submitted {
		t.Fatalf("steal-on stats %+v, steal-off %+v", onStats, offStats)
	}
	if len(onPhases) != len(offPhases) {
		t.Fatalf("steal-on tracked %d jobs, steal-off %d", len(onPhases), len(offPhases))
	}
	for id, want := range offPhases {
		if got := onPhases[id]; got != want {
			t.Fatalf("job %d: steal-on phase %v, steal-off %v", id, got, want)
		}
	}
	if onStats.Steal == nil || onStats.Steal.Stolen == 0 {
		t.Fatalf("steal-on run stole nothing (steal=%+v): the quickcheck exercised no steals", onStats.Steal)
	}
}

// TestStealDrainsSkewedBacklog is the in-process form of the CI smoke: a
// skewed burst on one shard of a running 4-shard fleet drains with help —
// the steal counters move and nothing is lost.
func TestStealDrainsSkewedBacklog(t *testing.T) {
	cfg := stealConfig(4, 1, 1)
	cfg.MaxInFlight = 4096
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	ids := submitBurst(t, svc, 0, n, 5, 0)
	// The hot shard's first step releases the whole burst, and released jobs
	// cannot be stolen: hold its loop back until a thief has taken its share,
	// so the outcome does not depend on who wins the race at Start.
	for _, sh := range svc.shards[1:] {
		sh.start()
	}
	waitFor(t, "first steal", func() bool { st := svc.Stats(); return st.Steal != nil && st.Steal.Stolen > 0 })
	svc.Start()
	waitFor(t, "skewed drain", func() bool { return svc.Stats().Completed == n })
	st := svc.Stats()
	if st.Steal == nil || st.Steal.Stolen == 0 {
		t.Fatalf("no steals on a %d-job single-shard backlog: %+v", n, st.Steal)
	}
	for _, id := range ids {
		if js, ok := svc.Job(id); !ok || js.Phase != sim.JobDone {
			t.Fatalf("job %d not done: %+v ok=%v", id, js, ok)
		}
	}
	drainAndClose(t, svc)
}

// TestStealRestartReplaysExactly crashes a fleet mid-steal-history and
// replays: counters, per-job terminal state and the original-ID redirect
// chain must all survive.
func TestStealRestartReplaysExactly(t *testing.T) {
	cfg := journaledStealConfig(t, 2, 1, 1)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A long immediate job keeps the victim's clock grinding below the
	// burst's release, so the burst stays pending (and stealable) across
	// steps — an idle engine would fast-forward straight to the release.
	long, err := svc.shards[0].submitBatch("", []sim.JobSpec{{Graph: dag.UniformChain(1, 40, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBurst(t, svc, 0, 6, 3, 100)
	ids = append(ids, composeID(0, long[0]))
	stepShard(t, svc, 0) // some progress before the steal
	stepShard(t, svc, 0)
	if !svc.stealFor(svc.shards[1]) {
		t.Fatal("steal moved nothing")
	}
	stepShard(t, svc, 0)
	stepShard(t, svc, 1)
	before := svc.Stats()
	beforeJobs := map[int]sim.JobStatus{}
	for _, id := range ids {
		js, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %d vanished pre-crash", id)
		}
		beforeJobs[id] = js
	}
	drainlessClose(t, svc)

	svc2, err := New(restartStealConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	after := svc2.Stats()
	if after.Submitted != before.Submitted || after.Completed != before.Completed ||
		after.Pending != before.Pending || after.Active != before.Active {
		t.Fatalf("restarted stats %+v, want %+v", after, before)
	}
	if *after.Steal != *before.Steal {
		t.Fatalf("restarted steal state %+v, want %+v", after.Steal, before.Steal)
	}
	for id, want := range beforeJobs {
		got, ok := svc2.Job(id)
		if !ok {
			t.Fatalf("job %d lost across restart", id)
		}
		if got.Phase != want.Phase || got.Release != want.Release || got.Completion != want.Completion {
			t.Fatalf("job %d: restarted %+v, want %+v", id, got, want)
		}
	}
	drainManually(t, svc2)
	if st := svc2.Stats(); st.Completed != 7 {
		t.Fatalf("post-restart drain completed %d of 7", st.Completed)
	}
	drainAndClose(t, svc2)
}

// TestStealCrashBetweenRecords drives the crash matrix's interesting
// point in-process: the fleet dies with exactly one half of a steal's
// record pair durable. Restoring a pre-steal copy of one shard's WAL
// simulates losing that shard's half.
func TestStealCrashBetweenRecords(t *testing.T) {
	t.Run("orphan", func(t *testing.T) {
		// Thief's admit record lost: the victim's record says the jobs left,
		// nobody says they arrived. Reconciliation re-homes them on the
		// victim.
		cfg := journaledStealConfig(t, 2, 1, 1)
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := submitBurst(t, svc, 0, 4, 2, 0)
		thiefWAL := shardJournalPath(cfg.Journal.Dir, 1)
		preSteal, err := os.ReadFile(thiefWAL)
		if err != nil {
			t.Fatal(err)
		}
		if !svc.stealFor(svc.shards[1]) {
			t.Fatal("steal moved nothing")
		}
		drainlessClose(t, svc)
		if err := os.WriteFile(thiefWAL, preSteal, 0o644); err != nil {
			t.Fatal(err)
		}

		svc2, err := New(restartStealConfig(cfg))
		if err != nil {
			t.Fatalf("restart after orphaned steal: %v", err)
		}
		st := svc2.Stats()
		if st.Submitted != 4 || st.Pending != 4 {
			t.Fatalf("post-repair stats %+v, want all 4 jobs pending again", st)
		}
		if st.Steal.Stolen == 0 || st.Steal.Stolen != st.Steal.StolenIn {
			t.Fatalf("post-repair steal counters %+v, want matched and non-zero", st.Steal)
		}
		drainManually(t, svc2)
		for _, id := range ids {
			if js, ok := svc2.Job(id); !ok || js.Phase != sim.JobDone {
				t.Fatalf("job %d not done after orphan repair: %+v ok=%v", id, js, ok)
			}
		}
		if st := svc2.Stats(); st.Completed != 4 {
			t.Fatalf("completed %d of 4 after orphan repair", st.Completed)
		}
		drainlessClose(t, svc2)

		// The repair itself was journaled: a second restart replays it
		// without needing another repair, to the identical state.
		svc3, err := New(restartStealConfig(cfg))
		if err != nil {
			t.Fatalf("second restart: %v", err)
		}
		if st := svc3.Stats(); st.Completed != 4 {
			t.Fatalf("second restart completed %d of 4", st.Completed)
		}
		drainAndClose(t, svc3)
	})

	t.Run("duplicate", func(t *testing.T) {
		// Victim's steal record lost: its journal still claims the jobs,
		// and so does the thief's admit record. Reconciliation withdraws
		// the victim-side copies.
		cfg := journaledStealConfig(t, 2, 1, 1)
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := submitBurst(t, svc, 0, 4, 2, 0)
		victimWAL := shardJournalPath(cfg.Journal.Dir, 0)
		preSteal, err := os.ReadFile(victimWAL)
		if err != nil {
			t.Fatal(err)
		}
		if !svc.stealFor(svc.shards[1]) {
			t.Fatal("steal moved nothing")
		}
		drainlessClose(t, svc)
		if err := os.WriteFile(victimWAL, preSteal, 0o644); err != nil {
			t.Fatal(err)
		}

		svc2, err := New(restartStealConfig(cfg))
		if err != nil {
			t.Fatalf("restart after duplicated steal: %v", err)
		}
		st := svc2.Stats()
		if st.Submitted != 4 || st.Pending != 4 {
			t.Fatalf("post-repair stats %+v, want each job pending exactly once", st)
		}
		drainManually(t, svc2)
		final := svc2.Stats()
		if final.Completed != 4 {
			t.Fatalf("completed %d of 4 after duplicate repair (a double-run would overshoot)", final.Completed)
		}
		for _, id := range ids {
			if js, ok := svc2.Job(id); !ok || js.Phase != sim.JobDone {
				t.Fatalf("job %d not done after duplicate repair: %+v ok=%v", id, js, ok)
			}
		}
		drainAndClose(t, svc2)
	})
}

// TestStealThiefJournalFailureRehomesJobs: the thief's disk refuses its
// half of a steal. When the write fails, no part of the record can replay,
// so the victim re-admits the jobs at once on its own healthy disk; when
// the whole record is written and only its sync fails, the record may
// replay, so it stands and the thief keeps the jobs. Either way the victim
// then compacts, folding its steal record away, and after a restart, in
// either shard order and under fair share too, every original ID resolves
// and completes exactly once.
func TestStealThiefJournalFailureRehomesJobs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		victim, thief int
		syncFails     bool   // the whole record is written, its sync fails
		tenant        string // the jobs' fair-share leaf; "" runs without fair share
	}{
		{"write fails", 0, 1, false, ""},
		{"write fails, thief first", 1, 0, false, ""},
		{"write fails under fair share", 0, 1, false, "a"},
		{"sync fails", 0, 1, true, ""},
		{"sync fails, thief first", 1, 0, true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := journaledStealConfig(t, 2, 1, 1)
			cfg.Journal.SnapshotEvery = 1
			cfg.Journal.Sync = journal.SyncAlways
			if tc.tenant != "" {
				cfg.Fairness = &fairshare.Config{Nodes: []fairshare.NodeConfig{{Name: tc.tenant, Weight: 1}}}
			}
			thiefDisk := faultyShardDisk(cfg, tc.thief)
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ids []int
			for i := 0; i < 4; i++ {
				local, err := svc.shards[tc.victim].submitBatch(tc.tenant, []sim.JobSpec{{Graph: dag.UniformChain(1, 2, 1)}})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, composeID(tc.victim, local[0]))
			}
			inFlight := func(svc *Service, want int) {
				t.Helper()
				for _, ts := range svc.Stats().Tenants {
					if n := map[string]int{tc.tenant: want}[ts.Path]; ts.InFlight != n {
						t.Fatalf("tenant %s has %d in flight, want %d", ts.Path, ts.InFlight, n)
					}
				}
			}
			if tc.syncFails {
				thiefDisk().SyncBudget = 1 // the header's sync was the first
			} else {
				thiefDisk().N = 0 // the thief's next write fails
			}
			if moved := svc.stealFor(svc.shards[tc.thief]); moved != tc.syncFails {
				t.Fatalf("steal reported moved=%v, want %v", moved, tc.syncFails)
			}
			st := svc.Stats()
			if st.Pending != 4 || st.Submitted != 4 || st.Steal.Stolen == 0 || st.Steal.Stolen != st.Steal.StolenIn {
				t.Fatalf("after the failed thief half: %+v steal %+v, want the 4 jobs pending once", st, st.Steal)
			}
			var kept int64 // the jobs the thief runs from memory
			if tc.syncFails {
				kept = st.Steal.Stolen
			}
			if n := svc.shards[tc.thief].loadRemaining.Load(); n != kept {
				t.Fatalf("thief holds %d jobs after its failed half, want %d", n, kept)
			}
			inFlight(svc, 4)
			for stepShard(t, svc, tc.victim) {
			}
			svc.shards[tc.victim].maybeCompact()
			if svc.Stats().Journal.Compactions != 1 {
				t.Fatal("the victim did not compact")
			}
			drainlessClose(t, svc)

			c := restartStealConfig(cfg)
			c.Fairness = cfg.Fairness
			svc2, err := New(c)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer drainlessClose(t, svc2)
			drainManually(t, svc2)
			if st := svc2.Stats(); st.Completed != 4 {
				t.Fatalf("restarted fleet completed %d of 4", st.Completed)
			}
			for _, id := range ids {
				if js, ok := svc2.Job(id); !ok || js.Phase != sim.JobDone {
					t.Fatalf("job %d after restart: %+v ok=%v, want done", id, js, ok)
				}
			}
			inFlight(svc2, 0)
		})
	}
}

// TestStealSyncsEachHalfOnce: under SyncAlways each half of a steal is
// fsynced by its own append, so one steal costs the fleet two fsyncs, not
// a second one per half from the steal's durability barrier.
func TestStealSyncsEachHalfOnce(t *testing.T) {
	cfg := journaledStealConfig(t, 2, 1, 1)
	cfg.Journal.Sync = journal.SyncAlways
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainlessClose(t, svc)
	submitBurst(t, svc, 0, 4, 3, 100)
	before := svc.Stats().Journal.Syncs
	if !svc.stealFor(svc.shards[1]) {
		t.Fatal("steal moved nothing")
	}
	if got := svc.Stats().Journal.Syncs - before; got != 2 {
		t.Fatalf("one steal took %d fsyncs, want 2", got)
	}
}

// TestStealDoubleAdmissionRefusesRestart: journals that hold both a thief's
// admission of stolen jobs and the victim's own re-admission of them would
// run each job twice. The thief-failure path never writes both; should a
// disk produce them anyway, the start refuses in either shard order.
func TestStealDoubleAdmissionRefusesRestart(t *testing.T) {
	for _, victim := range []int{0, 1} {
		thief := 1 - victim
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
			cfg := journaledStealConfig(t, 2, 1, 1)
			thiefDisk := faultyShardDisk(cfg, thief)
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := submitBurst(t, svc, victim, 4, 2, 0)
			thiefDisk().N = 0
			if svc.stealFor(svc.shards[thief]) {
				t.Fatal("a steal whose thief half failed reports moved work")
			}
			drainlessClose(t, svc)
			// The thief's admission, as if its failed write had landed after all.
			specs := make([]sim.JobSpec, len(ids))
			for k := range specs {
				specs[k] = sim.JobSpec{Graph: dag.UniformChain(1, 2, 1)}
			}
			var rec journal.Record
			if err := journal.AdmitRecordInto(&rec, 0, specs, ids, nil); err != nil {
				t.Fatal(err)
			}
			j, _, err := journal.Open(shardJournalPath(cfg.Journal.Dir, thief), journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			svc2, err := New(restartStealConfig(cfg))
			if err == nil {
				drainlessClose(t, svc2)
				t.Fatal("restart over a doubly admitted steal succeeded")
			}
			if !strings.Contains(err.Error(), "diverged") {
				t.Fatalf("refusal %q, want the steal-divergence error", err)
			}
		})
	}
}

// TestStealOrphanRepairKeepsTenant: a crash lost the thief's half of a
// steal under fair share. The restart's orphan repair brings the jobs back
// on the victim in flight under the tenant they were admitted under, and
// they drain to none.
func TestStealOrphanRepairKeepsTenant(t *testing.T) {
	cfg := journaledStealConfig(t, 2, 1, 1)
	cfg.Fairness = &fairshare.Config{Nodes: []fairshare.NodeConfig{{Name: "a", Weight: 1}}}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.shards[0].submitBatch("a", []sim.JobSpec{{Graph: dag.UniformChain(1, 2, 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	thiefWAL := shardJournalPath(cfg.Journal.Dir, 1)
	preSteal, err := os.ReadFile(thiefWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.stealFor(svc.shards[1]) {
		t.Fatal("steal moved nothing")
	}
	drainlessClose(t, svc)
	if err := os.WriteFile(thiefWAL, preSteal, 0o644); err != nil {
		t.Fatal(err)
	}
	c := restartStealConfig(cfg)
	c.Fairness = cfg.Fairness
	if svc, err = New(c); err != nil {
		t.Fatalf("restart after a lost thief half: %v", err)
	}
	defer drainlessClose(t, svc)
	inFlight := func(want int) {
		t.Helper()
		st := svc.Stats()
		if st.Steal.Stolen == 0 || st.Steal.Stolen != st.Steal.StolenIn {
			t.Fatalf("steal counters %+v, want a repaired steal", st.Steal)
		}
		for _, ts := range st.Tenants {
			if n := map[string]int{"a": want}[ts.Path]; ts.InFlight != n {
				t.Fatalf("tenant %s has %d in flight, want %d", ts.Path, ts.InFlight, n)
			}
		}
	}
	if n := svc.shards[0].loadRemaining.Load(); n != 4 {
		t.Fatalf("victim holds %d jobs after the repair, want all 4", n)
	}
	inFlight(4)
	drainManually(t, svc)
	inFlight(0)
}

// TestStealHalfCompactedRestarts: idle-point compaction folds one shard's
// half of a completed steal into its snapshot while the peer's journal
// still holds the other half as a record. The snapshot names the pairs it
// settled — the victim's redirects, the thief's origins — so the next start
// takes the lone half as settled: 4 completed jobs, every original ID done.
// A thief snapshot written before origins existed names no pair; over it
// the start still refuses, and the refusal changes nothing on disk.
func TestStealHalfCompactedRestarts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compact int  // the shard whose half goes into a snapshot
		origins bool // whether the thief's snapshot keeps its origins
	}{{"thief compacted", 1, true}, {"victim compacted", 0, true}, {"thief compacted without origins", 1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := journaledStealConfig(t, 2, 1, 1)
			cfg.Journal.SnapshotEvery = 1
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := submitBurst(t, svc, 0, 4, 2, 0)
			if !svc.stealFor(svc.shards[1]) {
				t.Fatal("steal moved nothing")
			}
			// Step only: drainManually would let shard 0 steal back, and the
			// journals would hold a second pair in the other direction.
			for stepShard(t, svc, 0) || stepShard(t, svc, 1) {
			}
			if st := svc.Stats(); st.Completed != 4 || st.Steal.Stolen != st.Steal.StolenIn {
				t.Fatalf("before compaction: %+v steal %+v, want 4 completed and one settled steal", st, st.Steal)
			}
			svc.shards[tc.compact].maybeCompact()
			if svc.Stats().Journal.Compactions != 1 {
				t.Fatal("idle shard did not compact")
			}
			drainlessClose(t, svc)
			wals := []string{shardJournalPath(cfg.Journal.Dir, 0), shardJournalPath(cfg.Journal.Dir, 1)}
			if !tc.origins {
				stripOrigins(t, wals[1])
			}
			var before [2][]byte
			for i, p := range wals {
				if before[i], err = os.ReadFile(p); err != nil {
					t.Fatal(err)
				}
			}

			svc2, err := New(restartStealConfig(cfg))
			if tc.origins {
				if err != nil {
					t.Fatalf("restart over a half-compacted steal: %v", err)
				}
				defer drainlessClose(t, svc2)
				if st := svc2.Stats(); st.Completed != 4 {
					t.Fatalf("restarted with %d completed jobs, want 4", st.Completed)
				}
				for _, id := range ids {
					if js, ok := svc2.Job(id); !ok || js.Phase != sim.JobDone {
						t.Fatalf("job %d after restart: %+v ok=%v, want done", id, js, ok)
					}
				}
				return
			}
			if err == nil {
				drainlessClose(t, svc2)
				t.Fatal("restart over a thief snapshot without origins succeeded")
			}
			if !strings.Contains(err.Error(), "diverged") {
				t.Fatalf("refusal %q, want the steal-divergence error", err)
			}
			for i, p := range wals {
				after, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after, before[i]) {
					t.Errorf("refused start rewrote %s: %d bytes, was %d", p, len(after), len(before[i]))
				}
			}
		})
	}
}

// stripOrigins rewrites a journal that is one snapshot as the same
// snapshot without the steal origins, as a build that predates them wrote.
func stripOrigins(t *testing.T, path string) {
	t.Helper()
	recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Steal == nil || len(recs[0].Steal.Origins) == 0 {
		t.Fatalf("%s holds %d records, want one snapshot naming its steal origins", path, len(recs))
	}
	recs[0].Steal.Origins = nil
	jn, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Compact(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStealOffRestartReplaysStealJournal restarts journals holding a steal
// pair, mid-run, on services that do not steal, one plain and one
// fair-share, and holds each to what a stealing restart over the same
// files builds: every job's status, the redirects and the Stats at
// restart, and the engines once all three have stepped to idle. Only
// Stats.Steal, which a steal-off service omits, differs. The fair-share
// restart charges the victim's admissions to the default leaf, the steal
// record takes the stolen ones off it and the thief's untagged admission
// puts them back under it, so after the drain nothing is left in flight.
func TestStealOffRestartReplaysStealJournal(t *testing.T) {
	cfg := journaledStealConfig(t, 2, 1, 1)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The long job holds the victim's clock below the burst's release, so
	// the burst is still pending when the thief comes.
	long, err := svc.shards[0].submitBatch("", []sim.JobSpec{{Graph: dag.UniformChain(1, 40, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	ids := append(submitBurst(t, svc, 0, 6, 3, 100), composeID(0, long[0]))
	stepShard(t, svc, 0)
	if !svc.stealFor(svc.shards[1]) {
		t.Fatal("steal moved nothing")
	}
	stepShard(t, svc, 0)
	stepShard(t, svc, 1)
	drainlessClose(t, svc)

	// Each restart runs over its own copy of the journals, so all three can
	// step to idle side by side.
	restart := func(steal, fair bool) *Service {
		c := restartStealConfig(cfg)
		c.Journal.Dir = t.TempDir()
		for i := range c.Shards {
			copyFile(t, shardJournalPath(cfg.Journal.Dir, i), shardJournalPath(c.Journal.Dir, i))
		}
		c.Steal = steal
		if fair {
			c.Fairness = &fairshare.Config{}
		}
		svc, err := New(c)
		if err != nil {
			t.Fatalf("steal=%v fairness=%v: restart over a steal journal: %v", steal, fair, err)
		}
		t.Cleanup(func() { drainlessClose(t, svc) })
		return svc
	}
	on := restart(true, false)
	offs := []*Service{restart(false, false), restart(false, true)}
	agree := func(stage string) {
		t.Helper()
		want := comparableStats(on)
		if want.Steal == nil || want.Steal.Stolen == 0 {
			t.Fatalf("%s: stealing restart reports steal state %+v, want the replayed steal", stage, want.Steal)
		}
		for k, off := range offs {
			got := comparableStats(off)
			if got.Steal != nil {
				t.Fatalf("%s: steal-off restart %d reports Stats.Steal %+v", stage, k, got.Steal)
			}
			got.Steal, got.Tenants = want.Steal, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: steal-off restart %d Stats\n got %+v\nwant %+v", stage, k, got, want)
			}
			for _, id := range ids {
				a, aok := on.Job(id)
				b, bok := off.Job(id)
				if !aok || !bok || !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: job %d: steal-off restart %d %+v (%v), stealing restart %+v (%v)", stage, id, k, b, bok, a, aok)
				}
			}
			requireSameRedirects(t, on, off)
		}
	}
	agree("at restart")
	// Step only: a stealing restart left to drainManually would steal again.
	for _, svc := range append([]*Service{on}, offs...) {
		for {
			n, err := svc.StepAll(stepBatch)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
	}
	agree("drained")
	if st := on.Stats(); st.Completed != int64(len(ids)) {
		t.Fatalf("drained %d of %d jobs", st.Completed, len(ids))
	}
	for _, off := range offs {
		requireIdentical(t, on, off)
		for _, ts := range off.Stats().Tenants {
			if ts.InFlight != 0 {
				t.Fatalf("tenant %s has %d in flight after the drain", ts.Path, ts.InFlight)
			}
		}
	}
}

// TestStealWithFairness runs stealing beside fair share: a hot placement
// key sends two tenants' jobs to one shard of three, the idle shards
// steal, and after every steal each tenant's in-flight count equals its
// jobs not yet terminal across the fleet; the drain leaves none in flight.
// A restart from the full journals mid-run, and one from compacted
// journals after the drain, rebuild the same tenant state and job
// statuses.
func TestStealWithFairness(t *testing.T) {
	mk := func(dir string) Config {
		cfg := stealConfig(3, 1, 1)
		cfg.Placement = "hash"
		cfg.MaxInFlight = 300
		cfg.Fairness = &fairshare.Config{HalfLife: 16, Nodes: []fairshare.NodeConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}}}
		cfg.Journal = &JournalConfig{Dir: dir, SnapshotEvery: 1}
		return cfg
	}
	dir := t.TempDir()
	svc, err := New(mk(dir))
	if err != nil {
		t.Fatal(err)
	}
	tenantOf := map[int]string{}
	for i := 0; i < 30; i++ {
		tenant := []string{"a", "b"}[i%2]
		// Spread releases keep jobs pending, and stealable, round after round.
		id, err := svc.SubmitTenant("hot", tenant, sim.JobSpec{Graph: dag.UniformChain(1, 1+i%3, 1), Release: int64(i / 3)})
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[id] = tenant
	}
	inFlight := func(stage string, svc *Service) {
		t.Helper()
		want := map[string]int{}
		for id, tenant := range tenantOf {
			js, ok := svc.Job(id)
			if !ok {
				t.Fatalf("%s: job %d lost", stage, id)
			}
			if js.Phase == sim.JobPending || js.Phase == sim.JobActive {
				want[tenant]++
			}
		}
		for _, ts := range svc.Stats().Tenants {
			if ts.InFlight != want[ts.Path] {
				t.Fatalf("%s: tenant %s has %d in flight, %d of its jobs are not terminal", stage, ts.Path, ts.InFlight, want[ts.Path])
			}
		}
	}
	same := func(stage string, a, b *Service) {
		t.Helper()
		if at, bt := comparableStats(a).Tenants, comparableStats(b).Tenants; !reflect.DeepEqual(at, bt) {
			t.Fatalf("%s: tenants\n%+v\nwant\n%+v", stage, bt, at)
		}
		for id := range tenantOf {
			ja, _ := a.Job(id)
			jb, ok := b.Job(id)
			if !ok || ja.Phase != jb.Phase || ja.Release != jb.Release || ja.Completion != jb.Completion {
				t.Fatalf("%s: job %d %+v (%v), want %+v", stage, id, jb, ok, ja)
			}
		}
	}
	restart := func(stage, from string) {
		t.Helper()
		to := t.TempDir()
		for i := range svc.shards {
			copyFile(t, shardJournalPath(from, i), shardJournalPath(to, i))
		}
		again, err := New(mk(to))
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		defer drainlessClose(t, again)
		same(stage, svc, again)
	}
	for round := 0; ; round++ {
		progress := false
		for _, sh := range svc.shards {
			if sh.stealFn() {
				progress = true
				inFlight("after a steal", svc)
			}
		}
		for i := range svc.shards {
			if stepShard(t, svc, i) {
				progress = true
			}
		}
		if round == 2 {
			restart("restart mid-run", dir)
		}
		if !progress {
			break
		}
	}
	if st := svc.Stats(); st.Completed != int64(len(tenantOf)) || st.Steal.Stolen == 0 {
		t.Fatalf("drained %d of %d jobs with %d stolen, want all and some stolen", st.Completed, len(tenantOf), st.Steal.Stolen)
	}
	inFlight("drained", svc)
	for _, sh := range svc.shards {
		sh.maybeCompact()
	}
	if n := svc.Stats().Journal.Compactions; n != int64(len(svc.shards)) {
		t.Fatalf("%d of %d shards compacted", n, len(svc.shards))
	}
	restart("restart from compacted journals", dir)
	drainlessClose(t, svc)
}

// TestStealReplicationAndPromotion streams a steal's record pair to a
// warm standby, stealing or not: the follower's engines must track the
// primary bit-identically, resolve original IDs through rebuilt redirects,
// and finish the stolen work after promotion.
func TestStealReplicationAndPromotion(t *testing.T) {
	for _, steal := range []bool{true, false} {
		t.Run(fmt.Sprintf("follower steal=%v", steal), func(t *testing.T) {
			stealReplicationAndPromotion(t, steal)
		})
	}
}

func stealReplicationAndPromotion(t *testing.T, followerSteals bool) {
	fcfg := journaledStealConfig(t, 2, 1, 1)
	fcfg.Steal = followerSteals
	follower, rcv, addr := startFollower(t, fcfg, 0)

	pcfg := journaledStealConfig(t, 2, 1, 1)
	primary, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drainlessClose(t, primary) })
	startSender(t, primary, addr, nil)

	ids := submitBurst(t, primary, 0, 6, 3, 0)
	if !primary.stealFor(primary.shards[1]) {
		t.Fatal("steal moved nothing")
	}
	// Drain on the hand-driven clock (checkpoints require idle engines):
	// every step streams to the follower behind the commit hook.
	drainManually(t, primary)
	waitCaughtUp(t, primary, follower)
	requireIdentical(t, primary, follower)

	requireSameRedirects(t, primary, follower)
	pst, fst := primary.Stats(), follower.Stats()
	if followerSteals && (fst.Steal == nil || *fst.Steal != *pst.Steal) {
		t.Fatalf("follower steal state %+v, primary %+v", fst.Steal, pst.Steal)
	}
	for _, id := range ids {
		want, ok := primary.Job(id)
		if !ok {
			t.Fatalf("job %d missing on primary", id)
		}
		got, ok := follower.Job(id)
		if !ok {
			t.Fatalf("job %d missing on follower (redirect not rebuilt?)", id)
		}
		if got.Phase != want.Phase || got.Release != want.Release {
			t.Fatalf("job %d: follower %+v, primary %+v", id, got, want)
		}
		if _, moved := primary.shards[0].redirect(LocalID(id)); moved {
			requireStolenOnVictim(t, primary, id)
			requireStolenOnVictim(t, follower, id)
		}
	}

	// Promote: reconciliation finds both halves present (no repair), the
	// loops start, and the stolen work finishes under its original IDs.
	if epoch, err := rcv.Promote(); err != nil || epoch != 2 {
		t.Fatalf("promotion epoch %d (%v), want 2", epoch, err)
	}
	waitFor(t, "promoted drain", func() bool { return follower.Stats().Completed == 6 })
	for _, id := range ids {
		if js, ok := follower.Job(id); !ok || js.Phase != sim.JobDone {
			t.Fatalf("job %d not done after promotion: %+v ok=%v", id, js, ok)
		}
	}
	if err := follower.Err(); err != nil {
		t.Fatalf("promoted follower unhealthy: %v", err)
	}
}

// TestStealHotPathAllocs pins the steady-state allocation contract: the
// idle-shard probe that finds no victim and the gauge refresh both run
// allocation-free, so a parked fleet polling every 2ms costs nothing.
func TestStealHotPathAllocs(t *testing.T) {
	svc, err := New(stealConfig(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	thief := svc.shards[1]
	if allocs := testing.AllocsPerRun(200, func() {
		if svc.stealFor(thief) {
			t.Fatal("probe stole from an empty fleet")
		}
	}); allocs != 0 {
		t.Fatalf("idle-shard steal probe allocates %.1f per run, want 0", allocs)
	}
	sh := svc.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if allocs := testing.AllocsPerRun(200, sh.syncGaugesLocked); allocs != 0 {
		t.Fatalf("work-gauge update allocates %.1f per run, want 0", allocs)
	}
}
