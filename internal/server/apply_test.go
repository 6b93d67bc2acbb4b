package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/sim"
	"krad/internal/wire"
)

// pullReplication brings a follower up to date with the journals under
// pdir the way a reconnecting sender does: a journal.Tail per shard from
// the follower's cursor hands out a snapshot when the primary's compaction
// overtook that cursor, then the numbered records. Synchronous and
// in-process, so scripts stay deterministic.
func pullReplication(t *testing.T, pdir string, follower *Service) {
	t.Helper()
	for shard, next := range follower.NextSeqs() {
		tail := journal.OpenTail(shardJournalPath(pdir, shard), next)
		for {
			e, ok, err := tail.Next(math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			var rec journal.Record
			if err := wire.Decode(e.Payload, rec.ReadJSON); err != nil {
				t.Fatalf("shard %d: seq %d: %v", shard, e.Seq, err)
			}
			if e.Snap {
				err = follower.ApplyReplicatedSnap(shard, rec)
			} else {
				err = follower.ApplyReplicated(shard, e.Seq, rec)
			}
			if err != nil {
				t.Fatalf("shard %d: seq %d (%s): %v", shard, e.Seq, rec.Type, err)
			}
		}
		tail.Close()
	}
}

// applyPathsConfig is a journaled two-shard fleet whose scheduler carries
// floors (moldable jobs) and snapshots its state (compaction).
func applyPathsConfig(dir string, mode string, retire bool) Config {
	cfg := testConfig(2, 3, 2)
	cfg.Shards = 2
	cfg.NewScheduler = func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(2)) }
	cfg.MaxInFlight = 512
	cfg.RetireDone = retire
	cfg.Journal = &JournalConfig{Dir: dir, SnapshotEvery: 1, Sync: journal.SyncNever} // equivalence, not durability: skip the fsyncs
	switch mode {
	case "fairness":
		cfg.Fairness = &fairshare.Config{HalfLife: 32, Nodes: []fairshare.NodeConfig{
			{Name: "heavy", Weight: 2}, {Name: "light", Weight: 1},
		}}
	case "steal":
		cfg.Steal = true
	}
	return cfg
}

// applyScript drives one seeded op script — rigid, DAG and moldable
// admits, batches, cancels, hand-driven steps, one compaction and (on a
// steal-enabled fleet) steals — against primary, pulling follower along.
// It returns every acknowledged ID and the subset already terminal when
// the journals were compacted.
func applyScript(t *testing.T, seed int64, primary, follower *Service) (ids []int, compacted map[int]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pdir := primary.cfg.Journal.Dir
	tenants := []string{"heavy", "light", ""}
	spec := func() sim.JobSpec {
		var s sim.JobSpec
		switch rng.Intn(3) {
		case 0:
			s.Source = profile.MustNewRigid(2, "r", dag.Category(1+rng.Intn(2)), 1+rng.Intn(2), 1+rng.Intn(4))
		case 1:
			s.Graph = dag.RoundRobinChain(2, 2+rng.Intn(5))
		default:
			s = moldable.Generate(moldable.GenOpts{K: 2, Jobs: 1, MinTasks: 2, MaxTasks: 4, MaxWork: 4, MaxProcs: 2, Seed: rng.Int63()})[0]
			s.Release = 0
		}
		if rng.Intn(3) == 0 {
			// Not yet due: stays pending (and stealable) while the clock is
			// held below it by other work.
			s.Release = primary.Stats().Now + 2 + int64(rng.Intn(6))
		}
		return s
	}
	drain := func() {
		for {
			n, err := primary.StepAll(8)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				return
			}
		}
	}
	const ops = 70
	// The follower stops pulling a few ops before the compaction, so the
	// snapshot overtakes its cursor and it resets through the snapshot
	// frame; everywhere else it tracks record by record.
	const compactAt, lagFrom = 40, 34
	for op := 0; op < ops; op++ {
		if op == lagFrom {
			// Every shard commits something the follower has not pulled, or a
			// caught-up shard would rightly ignore the snapshot and keep its
			// uncompacted WAL.
			for _, sh := range primary.shards {
				local, err := sh.submit("", spec())
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, composeID(sh.idx, local))
			}
		}
		if op == compactAt {
			// Before any steal: compaction drops one shard's half of a steal
			// pair while its peer's journal keeps the other.
			drain()
			compacted = map[int]bool{}
			for _, id := range ids {
				compacted[id] = true // idle fleet: everything so far is terminal
			}
			for _, sh := range primary.shards {
				sh.maybeCompact()
			}
			if primary.Stats().Journal.Compactions == 0 {
				t.Fatal("script compacted nothing")
			}
		}
		switch k := rng.Intn(10); {
		case k < 4:
			id, err := primary.SubmitTenant("", tenants[rng.Intn(3)], spec())
			if err != nil {
				t.Fatalf("op %d: submit: %v", op, err)
			}
			ids = append(ids, id)
		case k < 5:
			batch := make([]sim.JobSpec, 2+rng.Intn(3))
			for i := range batch {
				batch[i] = spec()
			}
			got, err := primary.SubmitBatchTenant("", tenants[rng.Intn(3)], batch)
			if err != nil {
				t.Fatalf("op %d: batch: %v", op, err)
			}
			ids = append(ids, got...)
		case k < 6 && len(ids) > 0:
			_ = primary.Cancel(ids[rng.Intn(len(ids))]) // terminal jobs refuse; that is part of the script
		case k < 7 && op > compactAt && primary.cfg.Steal:
			primary.stealFor(primary.shards[rng.Intn(2)])
		default:
			if _, err := primary.StepAll(int64(1 + rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
		if op < lagFrom || op >= compactAt {
			pullReplication(t, pdir, follower)
		}
	}
	drain()
	pullReplication(t, pdir, follower)
	return ids, compacted
}

// comparableStats strips what is process-local by design: step and
// rejection counts, journal I/O counters, per-tenant admission tallies.
func comparableStats(svc *Service) Stats {
	st := svc.Stats()
	st.Steps, st.Rejected, st.Journal = 0, 0, nil
	for i := range st.Tenants {
		st.Tenants[i].Admitted, st.Tenants[i].Shed = 0, 0
	}
	return st
}

// TestApplyPathsAgree is the three-path equivalence: one op script run on
// a primary, a follower fed by ApplyReplicated, and a fresh service over
// the primary's journal must agree on Stats, every job's status through
// redirects, tenant state and engine checkpoints, and the follower's WAL
// must be a byte prefix of the primary's. Seed count from
// KRAD_APPLY_SEEDS (default 10).
func TestApplyPathsAgree(t *testing.T) {
	seeds := 10
	if v := os.Getenv("KRAD_APPLY_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("KRAD_APPLY_SEEDS=%q", v)
		}
		seeds = n
	}
	for _, mode := range []string{"plain", "fairness", "steal"} {
		for _, retire := range []bool{false, true} {
			mode, retire := mode, retire
			t.Run(fmt.Sprintf("%s/retire=%v", mode, retire), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= int64(seeds); seed++ {
					applyPathsAgree(t, mode, retire, seed)
				}
			})
		}
	}
}

func applyPathsAgree(t *testing.T, mode string, retire bool, seed int64) {
	t.Helper()
	pdir, fdir := t.TempDir(), t.TempDir()
	primary, err := New(applyPathsConfig(pdir, mode, retire))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := applyPathsConfig(fdir, mode, retire)
	fcfg.Follower = true
	follower, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainlessClose(t, follower)
	ids, compacted := applyScript(t, seed, primary, follower)

	type view struct {
		name  string
		stats Stats
		jobs  map[int]sim.JobStatus
	}
	snapshot := func(name string, svc *Service) view {
		v := view{name: name, stats: comparableStats(svc), jobs: map[int]sim.JobStatus{}}
		for _, id := range ids {
			if st, ok := svc.Job(id); ok {
				v.jobs[id] = st
			}
		}
		return v
	}
	agree := func(a, b view, viaSnapshot bool) {
		t.Helper()
		as, bs := a.stats, b.stats
		if viaSnapshot && retire {
			// A sparse checkpoint carries retired jobs as counters only, so a
			// service restored from one has neither their statuses nor their
			// response samples; the live primary still does.
			as.Response, bs.Response = b.stats.Response, b.stats.Response
		}
		if !reflect.DeepEqual(as, bs) {
			t.Fatalf("seed %d: %s and %s disagree on Stats\n%s: %+v\n%s: %+v", seed, a.name, b.name, a.name, as, b.name, bs)
		}
		for _, id := range ids {
			aj, bj := a.jobs[id], b.jobs[id]
			if viaSnapshot && compacted[id] {
				if retire {
					continue
				}
				// Checkpoints do not carry the runtime family.
				aj.Family, bj.Family = 0, 0
			}
			if !reflect.DeepEqual(aj, bj) {
				t.Fatalf("seed %d: job %d: %s %+v, %s %+v", seed, id, a.name, a.jobs[id], b.name, b.jobs[id])
			}
		}
	}
	pv, fv := snapshot("primary", primary), snapshot("follower", follower)
	if len(pv.jobs) != len(ids) {
		t.Fatalf("seed %d: primary resolves %d of %d acknowledged IDs", seed, len(pv.jobs), len(ids))
	}
	agree(pv, fv, true)
	requireIdentical(t, primary, follower)
	for i := range primary.shards {
		pb, err := os.ReadFile(shardJournalPath(pdir, i))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(shardJournalPath(fdir, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(fb) == 0 || !bytes.HasPrefix(pb, fb) {
			t.Fatalf("seed %d: shard %d: follower WAL (%d bytes) is not a byte prefix of the primary's (%d bytes)", seed, i, len(fb), len(pb))
		}
	}
	drainlessClose(t, primary)

	restarted, err := New(applyPathsConfig(pdir, mode, retire))
	if err != nil {
		t.Fatalf("seed %d: restart over the primary's journal: %v", seed, err)
	}
	defer drainlessClose(t, restarted)
	rv := snapshot("restart", restarted)
	agree(pv, rv, true)
	agree(fv, rv, false)
	requireIdentical(t, restarted, follower)
	if mode != "steal" {
		return
	}

	// The same journals restarted without stealing replay the same steal
	// records through the same hooks: only the Stats.Steal a steal-off
	// service omits may differ.
	drainlessClose(t, restarted)
	offCfg := applyPathsConfig(pdir, mode, retire)
	offCfg.Steal = false
	off, err := New(offCfg)
	if err != nil {
		t.Fatalf("seed %d: steal-off restart over the primary's journal: %v", seed, err)
	}
	defer drainlessClose(t, off)
	ov := snapshot("steal-off restart", off)
	if ov.stats.Steal != nil {
		t.Fatalf("seed %d: steal-off restart reports Stats.Steal %+v", seed, ov.stats.Steal)
	}
	ov.stats.Steal = rv.stats.Steal
	agree(rv, ov, false)
	requireIdentical(t, restarted, off)
	requireSameRedirects(t, restarted, off)
}

// TestRefusedSnapshotChangesNothing feeds a follower a fair snapshot
// accumulated under a half-life it was not configured with: the refusal
// must come before the ledger, the journal file or the engine is touched,
// and the stream must carry on afterwards.
func TestRefusedSnapshotChangesNothing(t *testing.T) {
	mk := func(follower bool) (*Service, string) {
		cfg := fairConfig(1, 2)
		cfg.NewScheduler = func() sched.Scheduler { return core.NewKRAD(1) }
		cfg.Journal = &JournalConfig{Dir: t.TempDir()}
		cfg.Follower = follower
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { drainlessClose(t, svc) })
		return svc, cfg.Journal.Dir
	}
	primary, pdir := mk(false)
	follower, fdir := mk(true)
	for i := 0; i < 3; i++ {
		fairTrySubmit(t, primary, "heavy")
		fairTrySubmit(t, primary, "light")
	}
	for stepShard(t, primary, 0) {
	}
	pullReplication(t, pdir, follower)

	// A snapshot ahead of the follower's cursor that would change everything
	// it carries — engine, ledger, journal — if any of it were applied.
	cp := engineCheckpoint(t, primary, 0)
	cp.Now += 100
	rec := journal.Record{
		Type:  journal.TypeSnap,
		Snap:  &cp,
		Seq:   follower.NextSeqs()[0] + 2,
		Fair:  &journal.FairState{V: 1, HalfLife: 2 * fairshare.DefaultHalfLife, Usage: map[string]fairshare.Usage{"ghost": {V: 99}}},
		Steal: &journal.StealState{V: 1, In: 2},
	}
	wal := func() []byte {
		b, err := os.ReadFile(shardJournalPath(fdir, 0))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	walBefore, statsBefore, ledgerBefore := wal(), follower.Stats(), snapshotLedger(follower.shards[0])
	if err := follower.ApplyReplicatedSnap(0, rec); err == nil || !strings.Contains(err.Error(), "half-life") {
		t.Fatalf("snapshot under another half-life: %v, want a refusal naming the half-life", err)
	}
	if !bytes.Equal(wal(), walBefore) {
		t.Error("refused snapshot rewrote the follower's WAL")
	}
	if got := follower.Stats(); !reflect.DeepEqual(got, statsBefore) {
		t.Errorf("refused snapshot changed Stats\n got %+v\nwant %+v", got, statsBefore)
	}
	if !ledgersEqual(snapshotLedger(follower.shards[0]), ledgerBefore) {
		t.Error("refused snapshot changed the fair ledger")
	}

	fairTrySubmit(t, primary, "heavy")
	for stepShard(t, primary, 0) {
	}
	pullReplication(t, pdir, follower)
	requireIdentical(t, primary, follower)
}

// TestReplayStepBuildsNoEvent pins what startup replay pays per step
// record: the engine step and the Stepped bookkeeping, and nothing for
// subscribers — no Event, no namespaced ID copies — since nothing can be
// subscribed before New returns. Each step here completes a job, and
// replaying it must allocate exactly what the bare engine step does.
func TestReplayStepBuildsNoEvent(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.MaxInFlight = 1024
	cfg.RetireDone = true
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := svc.shards[0]
	for i := 0; i < 600; i++ {
		if _, err := sh.submit("", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	engineStep := func() {
		if _, err := sh.eng.StepN(1); err != nil {
			t.Fatal(err)
		}
	}
	replayStep := func() {
		rec := journal.StepRecord(sh.eng.Now() + 1)
		if err := sh.replayLocked(&rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		replayStep() // warm the engine's and the histogram's buffers
	}
	bare := testing.AllocsPerRun(200, engineStep)
	if replay := testing.AllocsPerRun(200, replayStep); replay != bare {
		t.Fatalf("replaying a step record allocates %.1f per record, the bare engine step %.1f", replay, bare)
	}
	if sh.completed < 250 {
		t.Fatalf("replayed steps completed %d jobs: the pin exercised no completions", sh.completed)
	}
}
