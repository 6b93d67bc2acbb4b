package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sim"
)

func TestIDTableLifecycle(t *testing.T) {
	tab := newIDTable(2)
	if _, ok := tab.get(0, nil); ok {
		t.Fatal("empty table reported a job")
	}
	tab.put(3, sim.JobStatus{Release: 5, Phase: sim.JobPending, Family: sim.FamilyProfile, Work: []int{4, 2}, Span: 3})
	st, ok := tab.get(3, nil)
	if !ok || st.ID != 3 || st.Release != 5 || st.Phase != sim.JobPending || st.Work[0] != 4 || st.Work[1] != 2 || st.Span != 3 {
		t.Fatalf("get after put: %+v ok=%v", st, ok)
	}
	// Neighboring IDs on the same stripe (3, 19, 35) and holes in between
	// must stay independent.
	tab.put(35, sim.JobStatus{Release: 9, Phase: sim.JobPending, Work: []int{1, 1}, Span: 1})
	if _, ok := tab.get(19, nil); ok {
		t.Fatal("hole between sparse IDs reported a job")
	}
	tab.setActive(3)
	tab.setDone(3, 12)
	if st, _ := tab.get(3, nil); st.Phase != sim.JobDone || st.Completion != 12 {
		t.Fatalf("after setDone: %+v", st)
	}
	tab.setCancelled(35, 7)
	if st, _ := tab.get(35, nil); st.Phase != sim.JobCancelled || st.CancelledAt != 7 {
		t.Fatalf("after setCancelled: %+v", st)
	}
	if rel, ok := tab.release(3); !ok || rel != 5 {
		t.Fatalf("release(3) = %d, %v", rel, ok)
	}
	if ph, done, ok := tab.phaseOf(3); !ok || ph != sim.JobDone || done != 12 {
		t.Fatalf("phaseOf(3) = %v, %d, %v", ph, done, ok)
	}
	// Transition writes on absent IDs are ignored, not materialized.
	tab.setDone(100, 1)
	if _, ok := tab.get(100, nil); ok {
		t.Fatal("setDone materialized an absent job")
	}
	tab.reset()
	if _, ok := tab.get(3, nil); ok {
		t.Fatal("reset kept an entry")
	}
}

// TestStatusLookupsDuringStepping hammers GET-style lookups from many
// goroutines while the step loop churns, under -race: lookups go through
// the striped index, not the shard lock, and must stay consistent.
func TestStatusLookupsDuringStepping(t *testing.T) {
	cfg := testConfig(2, 4, 4)
	cfg.MaxInFlight = 4096
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	const n = 200
	ids := make([]int, n)
	for i := range ids {
		id, err := svc.Submit(sim.JobSpec{Source: profile.MustNewRigid(2, "r", dag.Category(1+i%2), 2, 3)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					st, ok := svc.Job(id)
					if !ok {
						t.Errorf("job %d vanished", id)
						return
					}
					if st.Phase == sim.JobDone && st.Completion < st.Release {
						t.Errorf("job %d completed before release: %+v", id, st)
						return
					}
				}
			}
		}(g)
	}
	waitFor(t, "drain", func() bool { return svc.Stats().Completed == n })
	close(stop)
	wg.Wait()
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRetireDoneServesStatusFromIndex: with RetireDone the engine forgets
// terminal jobs, but queries and cancel errors must be indistinguishable
// from the unretired service — the index answers for the engine.
func TestRetireDoneServesStatusFromIndex(t *testing.T) {
	cfg := testConfig(2, 4, 4)
	cfg.RetireDone = true
	cfg.MaxInFlight = 64
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	id, err := svc.Submit(sim.JobSpec{Source: profile.MustNewRigid(2, "r", 1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "completion", func() bool { return svc.Stats().Completed == 1 })
	st, ok := svc.Job(id)
	if !ok || st.Phase != sim.JobDone || st.Completion == 0 || st.Work[0] != 6 {
		t.Fatalf("retired job's status lost: %+v ok=%v", st, ok)
	}
	// Cancelling a completed-and-retired job must produce the engine's
	// canonical wording, with the real completion step.
	err = svc.Cancel(id)
	if err == nil || !strings.Contains(err.Error(), "already completed at step") {
		t.Fatalf("cancel of retired job: %v", err)
	}
	if err := svc.Cancel(id + 1); err == nil || !strings.Contains(err.Error(), "no job") {
		t.Fatalf("cancel of unknown job: %v", err)
	}
	// The engine slot really was recycled: the next admission reuses it
	// but the ID keeps climbing.
	id2, err := svc.Submit(sim.JobSpec{Source: profile.MustNewRigid(2, "r2", 2, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id+1 {
		t.Fatalf("post-retire ID = %d, want %d", id2, id+1)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRetireDoneCancelledJob covers the cancel path under retirement: the
// cancelled job's status (with CancelledAt) survives in the index and a
// second cancel reports "already cancelled".
func TestRetireDoneCancelledJob(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.RetireDone = true
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the job stays pending until cancelled.
	id, err := svc.Submit(sim.JobSpec{Source: profile.MustNewRigid(1, "c", 1, 1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, ok := svc.Job(id)
	if !ok || st.Phase != sim.JobCancelled {
		t.Fatalf("cancelled job's status lost: %+v ok=%v", st, ok)
	}
	if err := svc.Cancel(id); err == nil || !strings.Contains(err.Error(), "already cancelled") {
		t.Fatalf("double cancel: %v", err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRetireDoneJournalRestart: a journaled RetireDone service restarts
// into the same counters, and jobs replayed from the log are queryable
// again (replay rebuilds the index before retiring engine state).
func TestRetireDoneJournalRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Service, error) {
		cfg := testConfig(2, 4, 4)
		cfg.RetireDone = true
		cfg.Journal = &JournalConfig{Dir: dir}
		return New(cfg)
	}
	svc, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	id, err := svc.Submit(sim.JobSpec{Source: profile.MustNewRigid(2, "r", 1, 2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "completion", func() bool { return svc.Stats().Completed == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	svc2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	st, ok := svc2.Job(id)
	if !ok || st.Phase != sim.JobDone {
		t.Fatalf("replayed job lost: %+v ok=%v", st, ok)
	}
	if got := svc2.Stats(); got.Submitted != 1 || got.Completed != 1 {
		t.Fatalf("replayed stats: %+v", got)
	}
	// And the engine state behind it is already recycled: a fresh
	// admission continues the ID sequence.
	id2, err := svc2.Submit(sim.JobSpec{Graph: dag.Singleton(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id+1 {
		t.Fatalf("post-restart ID = %d, want %d", id2, id+1)
	}
	if err := svc2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
