package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
)

// TestStatusLookupsDuringStepping hammers GET-style lookups from many
// goroutines while the step loop churns, under -race: lookups read the
// engine's status table beside its writer, not under the shard lock, and
// must stay consistent. A second leg does the same on a follower while
// replicated snapshots replace its engine.
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
	lookupsDuringEngineSwaps(t, svc, ids)
}

// lookupsDuringEngineSwaps runs Job and Cancel lookups on a follower while
// ApplyReplicatedSnap replaces its engine with one restored from primary's
// idle checkpoint, again and again. The swap is one atomic publish, so
// every lookup finds every job with the primary's status, and every cancel
// is refused as a follower's, never as an unknown job's.
func lookupsDuringEngineSwaps(t *testing.T, primary *Service, ids []int) {
	t.Helper()
	cfg := testConfig(2, 4, 4)
	cfg.MaxInFlight = 4096
	cfg.Follower = true
	follower, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainlessClose(t, follower)
	cp := engineCheckpoint(t, primary, 0)
	snap := func(seq int64) {
		rec := journal.Record{Type: journal.TypeSnap, Snap: &cp, Seq: seq}
		if err := follower.ApplyReplicatedSnap(0, rec); err != nil {
			t.Fatal(err)
		}
	}
	snap(1)
	want := make(map[int][]byte, len(ids))
	for _, id := range ids {
		st, _ := primary.Job(id)
		want[id] = appendJobStatus(nil, st)
	}
	var wg sync.WaitGroup
	var passes atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var body []byte
			for ; ; passes.Add(1) {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					st, ok := follower.Job(id)
					if body = appendJobStatus(body[:0], st); !ok || !bytes.Equal(body, want[id]) {
						t.Errorf("job %d on the follower: %s (found %v), want %s", id, body, ok, want[id])
						return
					}
					if g%2 == 0 {
						if err := follower.Cancel(id); !errors.Is(err, ErrFollower) {
							t.Errorf("cancel of job %d on the follower: %v, want ErrFollower", id, err)
							return
						}
					}
				}
			}
		}(g)
	}
	// At least 200 swaps, and until the readers have made 40 passes
	// between them, so the two overlap however the goroutines are run.
	for seq := int64(2); (seq <= 200 || passes.Load() < 40) && !t.Failed(); seq++ {
		snap(seq)
	}
	close(stop)
	wg.Wait()
}

// TestRetireDoneServesStatusFromIndex: a service that sets the ignored
// RetireDone still answers a finished job's status and refuses its cancel
// in the engine's wording, and IDs keep climbing.
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
		t.Fatalf("finished job's status lost: %+v ok=%v", st, ok)
	}
	// Cancelling a completed job must produce the engine's canonical
	// wording, with the real completion step.
	err = svc.Cancel(id)
	if err == nil || !strings.Contains(err.Error(), "already completed at step") {
		t.Fatalf("cancel of completed job: %v", err)
	}
	if err := svc.Cancel(id + 1); err == nil || !strings.Contains(err.Error(), "no job") {
		t.Fatalf("cancel of unknown job: %v", err)
	}
	// The next admission reuses the finished job's engine state, but the
	// ID keeps climbing.
	id2, err := svc.Submit(sim.JobSpec{Source: profile.MustNewRigid(2, "r2", 2, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id+1 {
		t.Fatalf("next ID = %d, want %d", id2, id+1)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRetireDoneCancelledJob covers the cancel path with RetireDone set:
// the cancelled job's status (with CancelledAt) stays, and a second cancel
// reports "already cancelled".
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

// TestRetireDoneJournalRestart: a journaled service with RetireDone set
// restarts into the same counters, and jobs replayed from the log are
// queryable again.
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
	// A fresh admission continues the ID sequence.
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

// TestStatusAgreesFourWays reads every job's GET body four ways — live,
// after a restart, after a restart over a compacted journal, and on a
// follower that caught up through the compaction's snapshot — and requires
// them byte for byte equal, with Config.RetireDone off and on. The jobs
// span every phase: done and cancelled before the compaction, and done,
// cancelled, active and pending after it.
func TestStatusAgreesFourWays(t *testing.T) {
	for _, retire := range []bool{false, true} {
		t.Run(fmt.Sprintf("retire=%v", retire), func(t *testing.T) {
			statusAgreesFourWays(t, retire)
		})
	}
}

func statusAgreesFourWays(t *testing.T, retire bool) {
	config := func(dir string) Config {
		cfg := testConfig(2, 3, 2)
		cfg.Shards = 2
		cfg.MaxInFlight = 512
		cfg.RetireDone = retire
		cfg.Journal = &JournalConfig{Dir: dir, SnapshotEvery: 1, Sync: journal.SyncNever}
		return cfg
	}
	open := func(cfg Config) *Service {
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { drainlessClose(t, svc) })
		return svc
	}
	// ops runs n seeded submissions, cancels and steps, the same on every
	// service given the same rng state, and returns the IDs it admitted.
	ops := func(svc *Service, rng *rand.Rand, n int) []int {
		var ids []int
		for i := 0; i < n; i++ {
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
			if rng.Intn(4) == 0 {
				s.Release = svc.Stats().Now + 3 + int64(rng.Intn(20))
			}
			id, err := svc.Submit(s)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			switch rng.Intn(4) {
			case 0:
				_ = svc.Cancel(ids[rng.Intn(len(ids))]) // terminal jobs refuse
			case 1:
				if _, err := svc.StepAll(int64(1 + rng.Intn(2))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ids
	}
	drain := func(svc *Service) {
		for {
			n, err := svc.StepAll(64)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				return
			}
		}
	}
	// Two primaries run the same script; only the second compacts.
	plainDir, compactDir, followDir := t.TempDir(), t.TempDir(), t.TempDir()
	plain, compact := open(config(plainDir)), open(config(compactDir))
	var ids []int
	for _, svc := range []*Service{plain, compact} {
		rng := rand.New(rand.NewSource(5))
		ids = ops(svc, rng, 40)
		drain(svc)
		if svc == compact {
			for _, sh := range svc.shards {
				sh.maybeCompact()
			}
			if svc.Stats().Journal.Compactions != 2 {
				t.Fatalf("compacted %d of 2 shards", svc.Stats().Journal.Compactions)
			}
		}
		ids = append(ids, ops(svc, rng, 12)...)
	}
	bodies := func(svc *Service) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = "absent"
			if st, ok := svc.Job(id); ok {
				out[i] = string(appendJobStatus(nil, st))
			}
		}
		return out
	}
	live := bodies(plain)
	phases := map[string]bool{}
	for _, id := range ids {
		st, _ := plain.Job(id)
		phases[st.Phase.String()] = true
	}
	if len(phases) != 4 {
		t.Fatalf("the script reached phases %v, want done, cancelled, active and pending", phases)
	}
	fcfg := config(followDir)
	fcfg.Follower = true
	follower := open(fcfg)
	pullReplication(t, compactDir, follower)
	drainlessClose(t, plain)
	drainlessClose(t, compact)
	for _, leg := range []struct {
		name string
		svc  *Service
	}{
		{"compacting primary", compact},
		{"follower", follower},
		{"restart", open(config(plainDir))},
		{"compacted restart", open(config(compactDir))},
	} {
		for i, body := range bodies(leg.svc) {
			if body != live[i] {
				t.Errorf("job %d: %s answers %s, live %s", ids[i], leg.name, body, live[i])
			}
		}
	}
}
