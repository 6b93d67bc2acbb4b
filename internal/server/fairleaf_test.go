package server

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/profile"
	"krad/internal/sim"
)

// unitJobs returns n single-task jobs on category 1.
func unitJobs(n int) []sim.JobSpec {
	specs := make([]sim.JobSpec, n)
	for i := range specs {
		specs[i].Graph = dag.Singleton(2, 1)
	}
	return specs
}

// tenantPaths lists Stats.Tenants by path.
func tenantPaths(svc *Service) []string {
	var out []string
	for _, ts := range svc.Stats().Tenants {
		out = append(out, ts.Path)
	}
	return out
}

// requireNoLeaf fails when the queue tree holds a leaf for path or
// Stats.Tenants lists one.
func requireNoLeaf(t *testing.T, svc *Service, path, after string) {
	t.Helper()
	if _, ok := svc.fair.tree.Lookup(path); ok {
		t.Errorf("after %s the tree holds a leaf %q", after, path)
	}
	if paths := tenantPaths(svc); slices.Contains(paths, path) {
		t.Errorf("after %s Stats.Tenants lists %q: %q", after, path, paths)
	}
}

// TestShedTenantLeavesNoLeaf: a batch the gate sheds before its tenant has
// a leaf creates none, so the primary, a restart over its journal and a
// follower fed that journal list the same tenants.
func TestShedTenantLeavesNoLeaf(t *testing.T) {
	mk := func(dir string, follower bool) *Service {
		cfg := fairConfig(2, 3, 2)
		cfg.MaxInFlight = 2
		cfg.Journal = &JournalConfig{Dir: dir, Sync: journal.SyncNever}
		cfg.Follower = follower
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	pdir := t.TempDir()
	primary, follower := mk(pdir, false), mk(t.TempDir(), true)
	defer drainlessClose(t, follower)
	if _, err := primary.SubmitBatchTenant("", "", unitJobs(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.SubmitBatchTenant("", "ghost", unitJobs(4)); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("4 jobs for ghost under a bound of 2: %v, want ErrOverQuota", err)
	}
	requireNoLeaf(t, primary, "ghost", "the shed batch")
	pullReplication(t, pdir, follower)
	want := comparableStats(primary).Tenants
	drainlessClose(t, primary)
	restarted := mk(pdir, false)
	defer drainlessClose(t, restarted)
	for name, svc := range map[string]*Service{"restart": restarted, "follower": follower} {
		if got := comparableStats(svc).Tenants; !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists %+v, the primary %+v", name, got, want)
		}
	}
}

// TestRefusedSubmissionLeavesNoLeaf: a batch that passes the gate but is
// refused by its shard (full, or closed), and a submission to a follower,
// create no leaf for their tenant.
func TestRefusedSubmissionLeavesNoLeaf(t *testing.T) {
	cfg := fairConfig(2, 3, 2)
	cfg.Shards = 2
	cfg.MaxInFlight = 4 // 2 per shard: a 3-job batch passes the gate and not its shard
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := len(svc.fair.tree.Leaves())
	if _, err := svc.SubmitBatchTenant("", "ghost", unitJobs(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("3 jobs onto a shard bound of 2: %v, want ErrQueueFull", err)
	}
	requireNoLeaf(t, svc, "ghost", "a full shard's refusal")
	drainAndClose(t, svc)
	if _, err := svc.SubmitBatchTenant("", "ghost", unitJobs(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("a submission after Close: %v, want ErrClosed", err)
	}
	requireNoLeaf(t, svc, "ghost", "a closed service's refusal")
	if n := len(svc.fair.tree.Leaves()); n != before {
		t.Errorf("the refusals left %d leaves, want the %d New built", n, before)
	}

	cfg.Follower = true
	cfg.Journal = &JournalConfig{Dir: t.TempDir(), Sync: journal.SyncNever}
	follower, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainlessClose(t, follower)
	if _, err := follower.SubmitBatchTenant("", "ghost", unitJobs(1)); !errors.Is(err, ErrFollower) {
		t.Fatalf("a submission to a follower: %v, want ErrFollower", err)
	}
	requireNoLeaf(t, follower, "ghost", "a follower's refusal")
}

// TestShedTenantsTakeNoDynamicSlot: MaxDynamicLeaves tenants each shed
// before they have a leaf take none of the cap's slots, so the next new
// tenant's admitted job gets a leaf of its own, not the default leaf.
func TestShedTenantsTakeNoDynamicSlot(t *testing.T) {
	cfg := fairConfig(2, 3, 2)
	cfg.MaxInFlight = 2
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainlessClose(t, svc)
	for i := range fairshare.MaxDynamicLeaves {
		if _, err := svc.SubmitBatchTenant("", fmt.Sprintf("shed-%d", i), unitJobs(3)); !errors.Is(err, ErrOverQuota) {
			t.Fatalf("tenant %d: %v, want ErrOverQuota", i, err)
		}
	}
	if _, err := svc.SubmitBatchTenant("", "late", unitJobs(1)); err != nil {
		t.Fatal(err)
	}
	for _, ts := range svc.Stats().Tenants {
		if ts.Path == "late" && ts.InFlight == 1 && ts.Admitted == 1 {
			return
		}
	}
	t.Errorf("the admitted tenant after %d shed ones has no leaf of its own among %d tenants", fairshare.MaxDynamicLeaves, len(tenantPaths(svc)))
}

// TestFourShardTenantOrder: dynamic tenants first seen out of path order
// and hash-placed across four shards are listed by a restart and by a
// follower exactly as the primary lists them, in order.
func TestFourShardTenantOrder(t *testing.T) {
	mk := func(dir string, follower bool) *Service {
		cfg := poolConfig(4, PlaceHash, 2, 3, 2)
		cfg.MaxInFlight = 256
		cfg.Journal = &JournalConfig{Dir: dir, Sync: journal.SyncNever}
		cfg.Fairness = &fairshare.Config{HalfLife: 16, Nodes: []fairshare.NodeConfig{
			{Name: "heavy", Weight: 2}, {Name: "acme", Children: []fairshare.NodeConfig{{Name: "prod", Weight: 1}}},
		}}
		cfg.Follower = follower
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	pdir := t.TempDir()
	primary, follower := mk(pdir, false), mk(t.TempDir(), true)
	defer drainlessClose(t, follower)
	tenants := []string{"zz", "team-d", "acme/ml", "heavy", "team-a", "b", "acme", "team-c", "", "acme/cv", "team-b", "m/x/y"}
	shards := map[int]bool{}
	for op := range 60 {
		tenant := tenants[(op*7)%len(tenants)]
		specs := []sim.JobSpec{{Source: profile.MustNewRigid(2, "r", dag.Category(1+op%2), 1, 1+op%3)}}
		ids, err := primary.SubmitBatchTenant(tenant, tenant, specs)
		if err != nil {
			t.Fatalf("op %d (%q): %v", op, tenant, err)
		}
		if tenant != "" && tenant != "heavy" {
			shards[ShardOf(ids[0])] = true
		}
		if op%5 == 4 {
			if _, err := primary.StepAll(1); err != nil {
				t.Fatal(err)
			}
			pullReplication(t, pdir, follower)
		}
	}
	if len(shards) != 4 {
		t.Fatalf("the dynamic tenants landed on %d of 4 shards", len(shards))
	}
	pullReplication(t, pdir, follower)
	want := comparableStats(primary).Tenants
	drainlessClose(t, primary)
	restarted := mk(pdir, false)
	defer drainlessClose(t, restarted)
	for name, svc := range map[string]*Service{"restart": restarted, "follower": follower} {
		if got := comparableStats(svc).Tenants; !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists\n%+v\nthe primary\n%+v", name, got, want)
		}
	}
}
