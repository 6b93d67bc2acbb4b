package sim_test

import (
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sim"
)

func TestRetireLifecycle(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{
		K: 2, Caps: []int{4, 4}, Scheduler: core.NewKRAD(2), Pick: dag.PickFIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.JobSpec{Source: profile.MustNewRigid(2, "r", 1, 2, 2)}
	id, err := eng.Admit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Pending and active jobs cannot be retired.
	if err := eng.Retire(id); err == nil {
		t.Fatalf("retired a pending job")
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Retire(id); err == nil {
		t.Fatalf("retired an active job")
	}
	for !eng.Idle() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := eng.Job(id)
	if !ok || st.Phase != sim.JobDone {
		t.Fatalf("job not done: %+v ok=%v", st, ok)
	}
	if err := eng.Retire(id); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	// Retired jobs are forgotten: status gone, cancel/retire report no job,
	// but aggregate counters still include them.
	if _, ok := eng.Job(id); ok {
		t.Fatalf("retired job still visible")
	}
	if _, ok := eng.ReadJob(id, nil); ok {
		t.Fatalf("retired job still visible to readers")
	}
	if err := eng.Retire(id); err == nil {
		t.Fatalf("double retire accepted")
	}
	if err := eng.Cancel(id); err == nil {
		t.Fatalf("cancel of retired job accepted")
	}
	snap := eng.Snapshot()
	if snap.Admitted != 1 || snap.Completed != 1 {
		t.Fatalf("counters dropped the retired job: %+v", snap)
	}
	if jobs := eng.Result().Jobs; len(jobs) != 0 {
		t.Fatalf("Result includes retired jobs: %v", jobs)
	}
	// Retirement never reassigns IDs.
	id2, err := eng.Admit(sim.JobSpec{Source: profile.MustNewRigid(2, "r2", 2, 1, 1), Release: eng.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id+1 {
		t.Fatalf("ID after retire = %d, want %d", id2, id+1)
	}
}

func TestRetireCancelled(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{
		K: 1, Caps: []int{2}, Scheduler: core.NewKRAD(1), Pick: dag.PickFIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := eng.Admit(sim.JobSpec{Source: profile.MustNewRigid(1, "c", 1, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := eng.Retire(id); err != nil {
		t.Fatalf("Retire cancelled: %v", err)
	}
	if snap := eng.Snapshot(); snap.Cancelled != 1 {
		t.Fatalf("cancelled counter lost: %+v", snap)
	}
}

// TestRetireCheckpointRestore covers the sparse checkpoint: retired jobs
// are omitted from the table but the ID watermark and terminal counters
// carry over, so a restored engine assigns the same future IDs and reports
// the same aggregate stats.
func TestRetireCheckpointRestore(t *testing.T) {
	cfg := sim.Config{
		K: 2, Caps: []int{4, 4}, Scheduler: core.NewKRAD(2), Pick: dag.PickFIFO,
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 5; i++ {
		id, err := eng.Admit(sim.JobSpec{Source: profile.MustNewRigid(2, "r", 1, 2, 2), Release: eng.Now()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := eng.Cancel(ids[4]); err != nil {
		t.Fatal(err)
	}
	for !eng.Idle() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Retire jobs 0, 2 and 4; keep 1 and 3 in the table.
	for _, id := range []int{ids[0], ids[2], ids[4]} {
		if err := eng.Retire(id); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Jobs) != 2 || cp.NextID != 5 || cp.Completed != 4 || cp.Cancelled != 1 {
		t.Fatalf("checkpoint shape: jobs=%d next=%d done=%d cancelled=%d",
			len(cp.Jobs), cp.NextID, cp.Completed, cp.Cancelled)
	}
	restored, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(cp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Surviving jobs are queryable, retired ones are not.
	if st, ok := restored.Job(ids[1]); !ok || st.Phase != sim.JobDone {
		t.Fatalf("job 1 lost across restore: %+v ok=%v", st, ok)
	}
	if _, ok := restored.Job(ids[0]); ok {
		t.Fatalf("retired job 0 resurrected")
	}
	snap, orig := restored.Snapshot(), eng.Snapshot()
	if snap.Admitted != orig.Admitted || snap.Completed != orig.Completed || snap.Cancelled != orig.Cancelled {
		t.Fatalf("restored counters %+v != original %+v", snap, orig)
	}
	id, err := restored.Admit(sim.JobSpec{Source: profile.MustNewRigid(2, "next", 1, 1, 1), Release: restored.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Fatalf("post-restore ID = %d, want 5", id)
	}
}

func TestRestoreRejectsBadSparseCheckpoints(t *testing.T) {
	cfg := sim.Config{
		K: 1, Caps: []int{1}, Scheduler: core.NewKRAD(1), Pick: dag.PickFIFO,
	}
	job := sim.CheckpointJob{ID: 0, Phase: sim.JobDone, Completion: 1, Work: []int{1}, Span: 1}
	cases := []struct {
		name string
		cp   sim.EngineCheckpoint
	}{
		{"next below table", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{job, {ID: 1, Phase: sim.JobDone, Completion: 1, Work: []int{1}, Span: 1}}, NextID: 1, Completed: 2}},
		{"descending ids", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{{ID: 1, Phase: sim.JobDone, Completion: 1, Work: []int{1}, Span: 1}, job}, NextID: 2, Completed: 2}},
		{"counters below table", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{job}, NextID: 2, Cancelled: 2}},
		{"counters not covering", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{job}, NextID: 3, Completed: 1, Cancelled: 1}},
		// A status keeps one end step, chosen by its phase.
		{"done with a cancel step", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{{ID: 0, Phase: sim.JobDone, Completion: 1, CancelledAt: 1, Work: []int{1}, Span: 1}}, Completed: 1}},
		{"done without completion", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{{ID: 0, Phase: sim.JobDone, Work: []int{1}, Span: 1}}, Completed: 1}},
		{"done at a negative step", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{{ID: 0, Phase: sim.JobDone, Completion: -2, Work: []int{1}, Span: 1}}, Completed: 1}},
		{"cancelled with a completion", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{{ID: 0, Phase: sim.JobCancelled, Completion: 1, CancelledAt: 1, Work: []int{1}, Span: 1}}, Cancelled: 1}},
		{"stolen with a completion", sim.EngineCheckpoint{Jobs: []sim.CheckpointJob{{ID: 0, Phase: sim.JobStolen, Completion: 3, Work: []int{1}, Span: 1}}, Stolen: 1}},
	}
	for _, c := range cases {
		eng, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(c.cp); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestEngineAdmitRecycledAllocsZero pins the steady state of a long-running
// service under sustained arrival streams: a full admit → drain → retire
// cycle of a rigid job allocates nothing — the free list recycles the
// jobState, AppendWork writes the work vector into the status table,
// ReuseRuntime re-arms the runtime. The table allocates one page per 128
// admissions, which AllocsPerRun's per-run average rounds away.
func TestEngineAdmitRecycledAllocsZero(t *testing.T) {
	const k = 3
	eng, err := sim.NewEngine(sim.Config{
		K: k, Caps: []int{13, 7, 5}, Scheduler: core.NewKRAD(k),
		Pick: dag.PickFIFO, MaxSteps: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.JobSpec{Source: profile.MustNewRigid(k, "r", 2, 3, 4)}
	cycle := func() {
		spec.Release = eng.Now()
		id, err := eng.Admit(spec)
		if err != nil {
			t.Fatal(err)
		}
		for !eng.Idle() {
			if _, err := eng.StepN(16); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Retire(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state Admit/drain/Retire cycle allocates %.1f per run; want 0", avg)
	}
}
