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
		id, err := svc.shards[shard].submit("", sim.JobSpec{Graph: dag.UniformChain(1, span, 1), Release: release})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, composeID(shard, id))
	}
	return ids
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
	cfg.RetireDone = true
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
		if _, moved := svc.shards[0].tab.redirect(LocalID(id)); moved {
			if stolen < 0 {
				stolen = id
			}
			requireRetiredOnVictim(t, svc, id)
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

// requireRetiredOnVictim asserts that, under RetireDone, the shard a job was
// stolen from no longer holds its engine state — the answer a live steal, a
// restart and a follower must all give.
func requireRetiredOnVictim(t *testing.T, svc *Service, id int) {
	t.Helper()
	sh := svc.shards[ShardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.eng.JobRef(LocalID(id)); ok {
		t.Fatalf("stolen job %d still held by its victim's engine: %+v", id, st)
	}
}

// requireSameRedirects asserts two services' ID tables send every stolen
// job's original ID to the same place.
func requireSameRedirects(t *testing.T, a, b *Service) {
	t.Helper()
	for i := range a.shards {
		ar, br := a.shards[i].tab.redirects(), b.shards[i].tab.redirects()
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
			id, err := svc.shards[0].submit("", spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, composeID(0, id))
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
	long, err := svc.shards[0].submit("", sim.JobSpec{Graph: dag.UniformChain(1, 40, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitBurst(t, svc, 0, 6, 3, 100)
	ids = append(ids, composeID(0, long))
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

// TestStealHalfCompactedRefusesRestart pins a known hole exactly as bad as
// it is today: idle-point compaction folds one shard's half of a completed
// steal into its snapshot while the peer's journal still holds the other
// half as a record. The snapshot's StealState carries redirects and a
// count, not which pairs it settled, so the next start sees an unmatched
// half, cannot repair it (the job already ran) and refuses. The refusal
// changes nothing on disk, so the journals stay recoverable by hand.
//
// ROADMAP item 3(iii), a snapshot that records which steal pairs it
// settled, is the change that must flip this test to a clean restart with
// 4 completed jobs.
func TestStealHalfCompactedRefusesRestart(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compact int // the shard whose half goes into a snapshot
	}{{"thief compacted", 1}, {"victim compacted", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := journaledStealConfig(t, 2, 1, 1)
			cfg.Journal.SnapshotEvery = 1
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			submitBurst(t, svc, 0, 4, 2, 0)
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
			var before [2][]byte
			for i, p := range wals {
				if before[i], err = os.ReadFile(p); err != nil {
					t.Fatal(err)
				}
			}
			svc2, err := New(restartStealConfig(cfg))
			if err == nil {
				drainlessClose(t, svc2)
				t.Fatal("restart over a half-compacted steal succeeded: the hole is closed — flip this test to assert the clean restart (ROADMAP item 3)")
			}
			if !strings.Contains(err.Error(), "diverged") {
				t.Fatalf("refusal %q, want the steal-divergence error", err)
			}
			t.Logf("refused: %v", err)
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

// TestStealOffRestartReplaysStealJournal restarts journals holding a steal
// pair, mid-run, on services that do not steal, one plain and one
// fair-share, and holds each to what a stealing restart over the same
// files builds: every job's status, the redirects and the Stats at
// restart, and the engines once all three have stepped to idle. Only
// Stats.Steal, which a steal-off service omits, differs. The fair-share
// restart charges the victim's admissions to the default leaf and the
// steal record takes the stolen ones off it again, so after the drain
// nothing is left in flight.
func TestStealOffRestartReplaysStealJournal(t *testing.T) {
	cfg := journaledStealConfig(t, 2, 1, 1)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The long job holds the victim's clock below the burst's release, so
	// the burst is still pending when the thief comes.
	long, err := svc.shards[0].submit("", sim.JobSpec{Graph: dag.UniformChain(1, 40, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ids := append(submitBurst(t, svc, 0, 6, 3, 100), composeID(0, long))
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

// TestStealFairnessMutuallyExclusive pins the config guard.
func TestStealFairnessMutuallyExclusive(t *testing.T) {
	cfg := stealConfig(2, 1, 1)
	cfg.Fairness = &fairshare.Config{}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Steal+Fairness accepted: %v", err)
	}
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
	fcfg.RetireDone = true
	fcfg.Steal = followerSteals
	follower, rcv, addr := startFollower(t, fcfg, 0)

	pcfg := journaledStealConfig(t, 2, 1, 1)
	pcfg.RetireDone = true
	primary, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drainlessClose(t, primary) })
	startSender(t, primary, pcfg.Journal.Dir, addr, nil)

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
		if _, moved := primary.shards[0].tab.redirect(LocalID(id)); moved {
			requireRetiredOnVictim(t, primary, id)
			requireRetiredOnVictim(t, follower, id)
		}
	}

	// Promote: reconciliation finds both halves present (no repair), the
	// loops start, and the stolen work finishes under its original IDs.
	if epoch := rcv.Promote(); epoch != 2 {
		t.Fatalf("promotion epoch %d, want 2", epoch)
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
