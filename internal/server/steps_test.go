package server

import (
	"testing"

	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/metrics"
	"krad/internal/sim"
)

// stepShardN drives one shard by up to n steps under one lock and one
// journal append, the batched form the step loop uses.
func stepShardN(t *testing.T, svc *Service, idx int, n int64) int64 {
	t.Helper()
	did, err := svc.shards[idx].stepN(n)
	if err != nil {
		t.Fatal(err)
	}
	return did
}

// TestRestartReplaysBatchedSteps is the batched analogue of
// TestRestartReplaysExactly: a journal whose step history is aggregated
// "steps" records (one per StepN batch) replays to the identical service
// state, and the journal really does carry aggregated records — one per
// batch, not one per step.
func TestRestartReplaysBatchedSteps(t *testing.T) {
	cfg := journaledConfig(t, 2, 3, 2)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id0, err := svc.Submit(sim.JobSpec{Graph: dag.RoundRobinChain(2, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if got := stepShardN(t, svc, 0, 4); got != 4 {
		t.Fatalf("first batch executed %d steps, want 4", got)
	}
	id1, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(2, 7, 2)})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Submit(sim.JobSpec{Graph: dag.UniformChain(2, 5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := stepShardN(t, svc, 0, 3); got != 3 {
		t.Fatalf("second batch executed %d steps, want 3", got)
	}
	if err := svc.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	stepShardN(t, svc, 0, 1) // single step: must journal as a plain step record

	before := svc.Stats()
	beforeJobs := map[int]sim.JobStatus{}
	for _, id := range []int{id0, id1, id2} {
		st, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		beforeJobs[id] = st
	}
	drainAndClose(t, svc)

	// The on-disk history must be aggregated: exactly two steps records
	// (N=4, N=3) and one plain step record.
	jn, recs, err := journal.Open(shardJournalPath(cfg.Journal.Dir, 0), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	var nsteps, nstep []int64
	for _, r := range recs {
		switch r.Type {
		case journal.TypeSteps:
			nsteps = append(nsteps, r.N)
		case journal.TypeStep:
			nstep = append(nstep, 1)
		}
	}
	if len(nsteps) != 2 || nsteps[0] != 4 || nsteps[1] != 3 {
		t.Fatalf("aggregated step records %v, want [4 3]", nsteps)
	}
	if len(nstep) != 1 {
		t.Fatalf("%d plain step records, want 1 (the unbatched single step)", len(nstep))
	}

	svc2, err := New(journaledConfigFrom(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	after := svc2.Stats()
	if after.Now != before.Now {
		t.Fatalf("restarted clock %d, want %d", after.Now, before.Now)
	}
	if after.Submitted != before.Submitted || after.Completed != before.Completed ||
		after.Cancelled != before.Cancelled || after.Active != before.Active ||
		after.Pending != before.Pending {
		t.Fatalf("restarted stats %+v, want %+v", after, before)
	}
	for id, want := range beforeJobs {
		got, ok := svc2.Job(id)
		if !ok {
			t.Fatalf("job %d missing after restart", id)
		}
		if !equalJobStatus(got, want) {
			t.Fatalf("job %d after restart: %+v, want %+v", id, got, want)
		}
	}
}

// TestRestartReplaysLeapedDAGSteps checks journal-replay determinism now
// that DAG-backed runtimes event-leap: batched steps over a dense-layered
// graph are covered by leaps, the journal still holds one aggregated
// record per batch, and a restart reproduces the exact service state —
// replay leaps or single-steps as it pleases, the law says it cannot
// matter.
func TestRestartReplaysLeapedDAGSteps(t *testing.T) {
	layered := func() *dag.Graph {
		return dag.Layered(2, []dag.LayerSpec{
			{Count: 96, Cat: 1}, {Count: 1, Cat: 2},
			{Count: 96, Cat: 2}, {Count: 1, Cat: 1},
		}, true)
	}
	cfg := journaledConfig(t, 2, 4, 4)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for j := 0; j < 2; j++ {
		id, err := svc.Submit(sim.JobSpec{Graph: layered()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Odd batch sizes land leap windows at arbitrary offsets.
	for _, n := range []int64{5, 9, 3, 17} {
		stepShardN(t, svc, 0, n)
	}
	if got := svc.shards[0].view(new(metrics.Hist)).snap.LeapSteps; got == 0 {
		t.Fatal("dense-layered DAG batches executed without any event-leaps")
	}

	before := svc.Stats()
	beforeJobs := map[int]sim.JobStatus{}
	for _, id := range ids {
		st, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		beforeJobs[id] = st
	}
	drainAndClose(t, svc)

	svc2, err := New(journaledConfigFrom(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	after := svc2.Stats()
	if after.Now != before.Now {
		t.Fatalf("restarted clock %d, want %d", after.Now, before.Now)
	}
	if after.Submitted != before.Submitted || after.Completed != before.Completed ||
		after.Active != before.Active || after.Pending != before.Pending {
		t.Fatalf("restarted stats %+v, want %+v", after, before)
	}
	for id, want := range beforeJobs {
		got, ok := svc2.Job(id)
		if !ok {
			t.Fatalf("job %d missing after restart", id)
		}
		if !equalJobStatus(got, want) {
			t.Fatalf("job %d after restart: %+v, want %+v", id, got, want)
		}
	}
}

// equalJobStatus compares statuses field by field (Work is a slice, so
// JobStatus is not directly comparable).
func equalJobStatus(a, b sim.JobStatus) bool {
	if a.ID != b.ID || a.Release != b.Release || a.Phase != b.Phase ||
		a.Completion != b.Completion || a.CancelledAt != b.CancelledAt || a.Span != b.Span {
		return false
	}
	if len(a.Work) != len(b.Work) {
		return false
	}
	for i := range a.Work {
		if a.Work[i] != b.Work[i] {
			return false
		}
	}
	return true
}
