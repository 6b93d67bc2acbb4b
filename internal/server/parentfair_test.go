package server

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/profile"
	"krad/internal/sim"
)

// fairFixtureConfig is the fleet testdata/parent-fair was written by: two
// stealing shards with fair share over two configured leaves.
func fairFixtureConfig(dir string) Config {
	cfg := testConfig(2, 3, 2)
	cfg.Shards = 2
	cfg.MaxInFlight = 512
	cfg.Steal = true
	cfg.Journal = &JournalConfig{Dir: dir, Sync: journal.SyncNever}
	cfg.Fairness = &fairshare.Config{HalfLife: 32, Nodes: []fairshare.NodeConfig{
		{Name: "heavy", Weight: 2}, {Name: "light", Weight: 1},
	}}
	return cfg
}

// driveFairFixture submits tenant-tagged batches, dynamic leaves among
// them first seen out of path order, with steps, a cancel and steals in
// between, and leaves work in flight. It returns every acknowledged ID.
func driveFairFixture(t *testing.T, svc *Service) (ids []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tenants := []string{"team-b", "heavy", "acme/ml", "", "team-a", "light", "acme/cv"}
	for op := range 42 {
		specs := make([]sim.JobSpec, 1+rng.Intn(3))
		for i := range specs {
			if rng.Intn(2) == 0 {
				specs[i].Source = profile.MustNewRigid(2, "r", dag.Category(1+rng.Intn(2)), 1+rng.Intn(2), 1+rng.Intn(4))
			} else {
				specs[i].Graph = dag.RoundRobinChain(2, 2+rng.Intn(4))
			}
			if rng.Intn(3) == 0 {
				specs[i].Release = svc.Stats().Now + 4 + int64(rng.Intn(8))
			}
		}
		got, err := svc.SubmitBatchTenant("", tenants[op%len(tenants)], specs)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		ids = append(ids, got...)
		switch {
		case op == 20:
			if err := svc.Cancel(ids[len(ids)-1]); err != nil {
				t.Fatal(err)
			}
		case op == 30:
			svc.stealFor(svc.shards[0])
			svc.stealFor(svc.shards[1])
		case op%4 == 3:
			if _, err := svc.StepAll(int64(1 + rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ids
}

// fairTranscript writes what a restart must rebuild: each tenant's
// in-flight count, share and usage (admission tallies are process-local),
// in Stats order, then every job's status.
func fairTranscript(svc *Service, ids []int) string {
	var b strings.Builder
	for _, ts := range svc.Stats().Tenants {
		fmt.Fprintf(&b, "tenant %s in_flight=%d share=%d usage=%v\n", ts.Path, ts.InFlight, ts.Share, ts.Usage)
	}
	for _, id := range ids {
		st, _ := svc.Job(id)
		fmt.Fprintf(&b, "job %d %+v\n", id, st)
	}
	return b.String()
}

// copyFixture copies testdata/parent-fair into a fresh directory.
func copyFixture(t *testing.T) string {
	t.Helper()
	src, dst := filepath.Join("testdata", "parent-fair"), t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestParentFairWALReplays replays testdata/parent-fair, the journals
// driveFairFixture left on the build before the fleet shape alone recorded
// the half-life: each shard's WAL opens with a fair head record. Its
// transcript, testdata/parent-fair.transcript, was taken on that build's
// primary, which listed dynamic leaves in the order they first submitted;
// this build lists them by path after the leaves New builds, so the
// transcript's dynamic tail is compared sorted. The restart, and the same
// drive on this build, must give those tenants and every job's status; the
// drive's fresh journals must hold no fair record. Without the fleet-shape
// file, the head record alone still refuses another half-life.
func TestParentFairWALReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-fair.transcript"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	built := 3 // heavy, light and default: the leaves fairshare.New builds
	tail := lines[built:slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "job ") })]
	slices.Sort(tail) // "tenant <path> …": sorts by path
	want := strings.Join(lines, "")
	var ids []int
	for _, l := range lines {
		var id int
		if _, err := fmt.Sscanf(l, "job %d", &id); err == nil {
			ids = append(ids, id)
		}
	}

	dir := copyFixture(t)
	restarted, err := New(fairFixtureConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := fairTranscript(restarted, ids); got != want {
		t.Errorf("the parent's journals replay to\n%s\nwant\n%s", got, want)
	}
	drainlessClose(t, restarted)

	fresh, err := New(fairFixtureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fairTranscript(fresh, driveFairFixture(t, fresh)); got != want {
		t.Errorf("the same drive on this build gives\n%s\nwant\n%s", got, want)
	}
	if fresh.Stats().Steal.Stolen == 0 {
		t.Error("the drive stole nothing")
	}
	drainlessClose(t, fresh)
	for i := range fresh.shards {
		recs, err := journal.ReadFile(shardJournalPath(fresh.cfg.Journal.Dir, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Type == journal.TypeFair {
				t.Fatalf("shard %d: a fresh journal holds a fair record", i)
			}
		}
	}

	dir = copyFixture(t)
	if err := os.Remove(journal.ShapePath(dir)); err != nil {
		t.Fatal(err)
	}
	cfg := fairFixtureConfig(dir)
	cfg.Fairness.HalfLife = 64
	if svc, err := New(cfg); err == nil || !strings.Contains(err.Error(), "half-life 32 does not match the configured 64") {
		if svc != nil {
			drainlessClose(t, svc)
		}
		t.Fatalf("another half-life over the parent's head records without fleet-shape: %v, want the head record's refusal", err)
	}
}
