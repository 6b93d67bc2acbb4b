package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/profile"
	"krad/internal/sim"
)

// fairConfig is testConfig plus a two-tenant 2:1 queue tree.
func fairConfig(k int, caps ...int) Config {
	cfg := testConfig(k, caps...)
	cfg.Fairness = &fairshare.Config{
		Nodes: []fairshare.NodeConfig{
			{Name: "heavy", Weight: 2},
			{Name: "light", Weight: 1},
		},
	}
	return cfg
}

// trySubmit submits one unit job for tenant, reporting false when the
// fair gate shed it. Any other error is fatal.
func fairTrySubmit(t *testing.T, svc *Service, tenant string) bool {
	t.Helper()
	_, err := svc.SubmitTenant("", tenant, sim.JobSpec{Graph: dag.Singleton(1, 1)})
	if errors.Is(err, ErrOverQuota) {
		return false
	}
	if err != nil {
		t.Fatalf("submit %s: %v", tenant, err)
	}
	return true
}

// TestFairShareTwoToOneRatio is the headline fairness property: two
// saturating tenants with over-quota weights 2:1 settle to a long-run
// admitted ratio within 5% of 2:1. The loop is closed and deterministic —
// the service is never started; submissions interleave with hand-driven
// draining via StepAll.
func TestFairShareTwoToOneRatio(t *testing.T) {
	cfg := fairConfig(1, 4)
	cfg.MaxInFlight = 12
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 100; round++ {
		// Both tenants stay greedy: submit alternately until both are shed.
		for {
			h := fairTrySubmit(t, svc, "heavy")
			l := fairTrySubmit(t, svc, "light")
			if !h && !l {
				break
			}
		}
		if _, err := svc.StepAll(16); err != nil {
			t.Fatal(err)
		}
	}
	var heavy, light, shed float64
	for _, ts := range svc.Stats().Tenants {
		switch ts.Path {
		case "heavy":
			heavy = float64(ts.Admitted)
		case "light":
			light = float64(ts.Admitted)
		}
		shed += float64(ts.Shed)
	}
	if light == 0 {
		t.Fatal("light tenant admitted nothing")
	}
	if ratio := heavy / light; math.Abs(ratio-2) > 0.1 {
		t.Errorf("admitted ratio heavy:light = %.3f (heavy %.0f, light %.0f), want 2.0 within 5%%", ratio, heavy, light)
	}
	if shed == 0 {
		t.Error("no submissions shed — the loop never saturated the gate")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

// TestFairUsageChargesWorkOfEveryFamily: the ledger charges a job its total
// work in task-steps whether it arrives as a graph or as a rigid rectangle.
// Two equal-weight tenants submit the same number of jobs at the same
// instant — singletons against 4 × 8 rigid jobs — and the usage ratio is the
// work ratio, 1:32 (graph-free jobs used to cost 1: 1:1).
func TestFairUsageChargesWorkOfEveryFamily(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.Fairness = &fairshare.Config{Nodes: []fairshare.NodeConfig{{Name: "small", Weight: 1}, {Name: "wide", Weight: 1}}}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := svc.SubmitTenant("", "small", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTenant("", "wide", sim.JobSpec{Source: profile.MustNewRigid(1, "r", 1, 4, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	usage := map[string]float64{}
	for _, ts := range svc.Stats().Tenants {
		usage[ts.Path] = ts.Usage
	}
	if usage["small"] != 5 || usage["wide"] != 5*32 {
		t.Errorf("usage small=%v wide=%v, want 5 and 160 (1:32)", usage["small"], usage["wide"])
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

// TestFairShareOverQuotaShedding checks the gate semantics: a tenant at
// its share is shed with ErrOverQuota while the under-quota tenant keeps
// admitting, headerless submissions land on the default leaf, and unknown
// tenant headers auto-create dynamic leaves.
func TestFairShareOverQuotaShedding(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.MaxInFlight = 8
	cfg.Fairness = &fairshare.Config{
		Nodes: []fairshare.NodeConfig{
			{Name: "a", Weight: 3},
			{Name: "b", Weight: 1},
		},
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate: a reaches its share of 6 and is shed; b keeps admitting
	// to its share of 2 after a is already over quota.
	aAdmitted, bAdmitted := 0, 0
	for i := 0; i < 8; i++ {
		if fairTrySubmit(t, svc, "a") {
			aAdmitted++
		}
		if fairTrySubmit(t, svc, "b") {
			bAdmitted++
		}
	}
	if aAdmitted != 6 || bAdmitted != 2 {
		t.Errorf("admitted a=%d b=%d, want 6 and 2 (weights 3:1 over 8 slots)", aAdmitted, bAdmitted)
	}
	if _, err := svc.SubmitTenant("", "a", sim.JobSpec{Graph: dag.Singleton(1, 1)}); !errors.Is(err, ErrOverQuota) {
		t.Errorf("over-quota submit error %v, want ErrOverQuota", err)
	}
	// Shed is not rejection: the shard-level counter must stay untouched.
	st := svc.Stats()
	if st.Rejected != 0 {
		t.Errorf("shard rejections %d, want 0 — over-quota sheds happen at the gate", st.Rejected)
	}
	for _, ts := range st.Tenants {
		if ts.Path == "a" && ts.Shed == 0 {
			t.Error("tenant a has no shed count")
		}
	}

	// Drain everything, then check headerless and unknown-tenant routing.
	if _, err := svc.StepAll(64); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTenant("", "", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatalf("headerless submit: %v", err)
	}
	if _, err := svc.SubmitTenant("", "newco/batch", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatalf("unknown-tenant submit: %v", err)
	}
	paths := map[string]TenantStats{}
	for _, ts := range svc.Stats().Tenants {
		paths[ts.Path] = ts
	}
	if ts := paths["default"]; ts.Admitted != 1 {
		t.Errorf("default leaf admitted %d, want 1 (headerless submission)", ts.Admitted)
	}
	if ts := paths["newco/batch"]; ts.Admitted != 1 {
		t.Errorf("dynamic leaf newco/batch admitted %d, want 1", ts.Admitted)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

// TestFairnessOffIgnoresTenants checks the off switch: without
// Config.Fairness the tenant argument is inert, Stats carries no tenant
// section and /metrics exposes no tenant families — observationally
// identical to pre-fairness builds.
func TestFairnessOffIgnoresTenants(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.MaxInFlight = 4
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTenant("", "acme/ml", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatalf("tenant submit with fairness off: %v", err)
	}
	if ts := svc.Stats().Tenants; ts != nil {
		t.Errorf("fairness-off Stats.Tenants = %v, want nil", ts)
	}
	var sb strings.Builder
	if err := svc.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "krad_tenant_") {
		t.Error("fairness-off /metrics exposes krad_tenant_ families")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

// TestFairHTTP429 checks the wire semantics: over-quota submissions get
// 429 Too Many Requests with a Retry-After header (distinct from the 503
// the full-fleet and degraded paths use), routed by the X-Krad-Tenant
// header; /metrics grows per-tenant families.
func TestFairHTTP429(t *testing.T) {
	cfg := fairConfig(1, 2)
	cfg.MaxInFlight = 3
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body, err := json.Marshal(submitRequest{Graph: dag.Singleton(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(tenant string) *http.Response {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// heavy and light alternate into 3 slots: shares 2 and 1.
	codes := []int{}
	for i := 0; i < 3; i++ {
		codes = append(codes, submit("heavy").StatusCode, submit("light").StatusCode)
	}
	admitted := 0
	for _, c := range codes {
		if c == http.StatusCreated {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d of %v, want 3", admitted, codes)
	}
	resp := submit("heavy")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(mbody)
	mresp.Body.Close()
	for _, want := range []string{
		`krad_tenant_share{tenant="heavy"}`,
		`krad_tenant_in_flight{tenant="light"}`,
		`krad_tenant_shed_total{tenant="heavy"}`,
		`krad_tenant_admitted_total{tenant="light"}`,
		`krad_tenant_usage{tenant="heavy"}`,
	} {
		if !strings.Contains(string(mbody[:n]), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)
}

// fairLedger is a bit-exact snapshot of one shard's fair-share state.
type fairLedger struct {
	usage    map[string][2]uint64 // leaf → {Float64bits(V), uint64(AsOf)}
	inFlight map[string]int
	jobs     map[int]string
}

func snapshotLedger(sh *shard) fairLedger {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	l := fairLedger{
		usage:    map[string][2]uint64{},
		inFlight: map[string]int{},
		jobs:     map[int]string{},
	}
	f := sh.fair
	for slot, e := range f.ledger {
		if e.charged {
			l.usage[f.slots.path(slot)] = [2]uint64{math.Float64bits(e.usage.V), uint64(e.usage.AsOf)}
		}
		if e.inFlight != 0 {
			l.inFlight[f.slots.path(slot)] = e.inFlight
		}
	}
	for k, slot := range f.jobs {
		l.jobs[k] = f.slots.path(slot)
	}
	return l
}

func ledgersEqual(a, b fairLedger) bool {
	if len(a.usage) != len(b.usage) || len(a.inFlight) != len(b.inFlight) || len(a.jobs) != len(b.jobs) {
		return false
	}
	for k, v := range a.usage {
		if b.usage[k] != v {
			return false
		}
	}
	for k, v := range a.inFlight {
		if b.inFlight[k] != v {
			return false
		}
	}
	for k, v := range a.jobs {
		if b.jobs[k] != v {
			return false
		}
	}
	return true
}

// TestFairJournalReplayRebuildsLedger is the durability acceptance check:
// restarting a fairness-enabled journaled service rebuilds the fair-share
// ledger bit-identically — same usage bits, same in-flight counts, same
// job→tenant map — from the tenant-tagged records.
func TestFairJournalReplayRebuildsLedger(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Service, error) {
		cfg := testConfig(1, 2)
		cfg.MaxInFlight = 64
		cfg.Fairness = &fairshare.Config{
			HalfLife: 32,
			Nodes: []fairshare.NodeConfig{
				{Name: "heavy", Weight: 2},
				{Name: "light", Weight: 1},
			},
		}
		cfg.Journal = &JournalConfig{Dir: dir}
		return New(cfg)
	}
	svc, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	// A mixed history: immediate jobs, a far-future pending job, a batch,
	// a headerless submission, partial drain, one cancellation.
	for i := 0; i < 3; i++ {
		if _, err := svc.SubmitTenant("", "heavy", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.SubmitTenant("", "light", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.StepAll(2); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitBatchTenant("", "light", []sim.JobSpec{
		{Graph: dag.Singleton(1, 1)}, {Graph: dag.Singleton(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	pending, err := svc.SubmitTenant("", "heavy", sim.JobSpec{Graph: dag.Singleton(1, 1), Release: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTenant("", "", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.StepAll(1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(pending); err != nil {
		t.Fatal(err)
	}
	before := snapshotLedger(svc.shards[0])
	if len(before.usage) != 3 {
		t.Fatalf("ledger covers %d leaves, want 3 (heavy, light, default)", len(before.usage))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)

	svc2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	after := snapshotLedger(svc2.shards[0])
	if !ledgersEqual(before, after) {
		t.Errorf("replayed ledger diverged:\n before %+v\n after  %+v", before, after)
	}
	// The rebuilt service keeps gating: fairness state is live, not
	// decorative.
	if _, err := svc2.SubmitTenant("", "heavy", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatal(err)
	}
	_ = svc2.Close(ctx)
}

// TestFairJournalCompactionKeepsLedger checks that snapshot compaction
// carries the fair ledger on the snap record: after compacting to one
// record and restarting, the ledger still replays bit-identically.
func TestFairJournalCompactionKeepsLedger(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Service, error) {
		cfg := testConfig(1, 2)
		cfg.MaxInFlight = 64
		cfg.Fairness = &fairshare.Config{
			HalfLife: 32,
			Nodes: []fairshare.NodeConfig{
				{Name: "heavy", Weight: 2},
				{Name: "light", Weight: 1},
			},
		}
		cfg.Journal = &JournalConfig{Dir: dir, SnapshotEvery: 2}
		return New(cfg)
	}
	svc, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.SubmitTenant("", "heavy", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTenant("", "light", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.StepAll(16); err != nil {
			t.Fatal(err)
		}
	}
	svc.shards[0].maybeCompact()
	if got := svc.Stats().Journal.Compactions; got != 1 {
		t.Fatalf("compactions %d, want 1 (idle engine, %d records)", got, svc.Stats().Journal.Records)
	}
	before := snapshotLedger(svc.shards[0])
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)

	svc2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	after := snapshotLedger(svc2.shards[0])
	if !ledgersEqual(before, after) {
		t.Errorf("post-compaction ledger diverged:\n before %+v\n after  %+v", before, after)
	}
	_ = svc2.Close(ctx)
}

// TestFairJournalConfigMismatches checks the refusal paths: a
// fairness-off server must not silently drop a fairness-tagged journal,
// and a changed half-life must not silently re-decay history.
func TestFairJournalConfigMismatches(t *testing.T) {
	dir := t.TempDir()
	mk := func(fair *fairshare.Config) (*Service, error) {
		cfg := testConfig(1, 2)
		cfg.Fairness = fair
		cfg.Journal = &JournalConfig{Dir: dir}
		return New(cfg)
	}
	fair := &fairshare.Config{HalfLife: 32, Nodes: []fairshare.NodeConfig{{Name: "a", Weight: 1}}}
	svc, err := mk(fair)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTenant("", "a", sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = svc.Close(ctx)

	if _, err := mk(nil); err == nil || !strings.Contains(err.Error(), "fairness") {
		t.Errorf("fairness-off open of fair journal: err %v, want fairness-tagged refusal", err)
	}
	other := &fairshare.Config{HalfLife: 64, Nodes: fair.Nodes}
	if _, err := mk(other); err == nil || !strings.Contains(err.Error(), "half-life") {
		t.Errorf("half-life-changed open: err %v, want half-life mismatch", err)
	}
	// The original configuration still opens.
	svc2, err := mk(fair)
	if err != nil {
		t.Fatal(err)
	}
	_ = svc2.Close(ctx)
}

// fairStates is the gate's inputs computed from scratch, the way the gate
// once did on every submission: a fresh map over every tenant any shard's
// ledger holds, usage summed in shard order with each accumulator decayed
// to its shard's clock, in-flight counted off the job→tenant maps rather
// than the hooks' counters. requesting marks the leaf being admitted.
func fairStates(s *Service, requesting string) map[string]fairshare.State {
	states := make(map[string]fairshare.State)
	for _, sh := range s.shards {
		sh.mu.Lock()
		f, now := sh.fair, sh.eng.Now()
		for slot, e := range f.ledger {
			if e.charged {
				st := states[f.slots.path(slot)]
				st.Usage += e.usage.At(now, f.halfLife)
				states[f.slots.path(slot)] = st
			}
		}
		for _, slot := range f.jobs {
			st := states[f.slots.path(slot)]
			st.InFlight++
			states[f.slots.path(slot)] = st
		}
		sh.mu.Unlock()
	}
	st := states[requesting]
	st.Requesting = true
	states[requesting] = st
	return states
}

// randomFairConfig draws a queue tree up to three levels deep with
// deserved quotas, weights and priorities.
func randomFairConfig(rng *rand.Rand) *fairshare.Config {
	names := 0
	var level func(depth int) []fairshare.NodeConfig
	level = func(depth int) []fairshare.NodeConfig {
		nodes := make([]fairshare.NodeConfig, 1+rng.Intn(3))
		for i := range nodes {
			names++
			nodes[i] = fairshare.NodeConfig{
				Name:     fmt.Sprintf("q%d", names),
				Deserved: []float64{0, 0, 1, 2, 0.5}[rng.Intn(5)],
				Weight:   float64(rng.Intn(4)),
				Priority: rng.Intn(3) / 2,
			}
			if depth < 2 && rng.Intn(2) == 0 {
				nodes[i].Children = level(depth + 1)
			}
		}
		return nodes
	}
	return &fairshare.Config{HalfLife: int64(8 + rng.Intn(64)), Nodes: level(0)}
}

// TestFairGateMatchesShares is the gate's differential test: seeded scripts
// of batch submissions, cancellations and uneven stepping (so the shards'
// clocks diverge) over random trees — deserved quotas, weights,
// priorities, three-level paths, dynamic leaves, junk headers — on two and
// three shards with a fleet bound small enough to shed. Before every
// submission the from-scratch oracle, Tree.Shares over fairStates, says
// whether the batch fits the tenant's share; the gate, dividing down the
// tenant's path over its flat ledgers, must shed exactly when it does not.
// The script then continues on a service restarted from the journal.
func TestFairGateMatchesShares(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := poolConfig(2+int(seed%2), PlaceHash, 1, 3)
		cfg.MaxInFlight = 6 + rng.Intn(10)
		cfg.Fairness = randomFairConfig(rng)
		cfg.Journal = &JournalConfig{Dir: t.TempDir()}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tenants := []string{"", "dyn", "dyn2/x/y", "no such/tenant", "a/b/c/d"}
		for _, l := range svc.fair.tree.Leaves() {
			tenants = append(tenants, l.Path, l.Path+"/sub")
		}
		for _, nc := range cfg.Fairness.Nodes {
			tenants = append(tenants, nc.Name, nc.Name+"/fresh")
		}
		var ids []int
		shed, admitted := 0, 0
		script := func(svc *Service, ops int) {
			for op := 0; op < ops; op++ {
				switch r := rng.Intn(10); {
				case r < 6:
					tenant := tenants[rng.Intn(len(tenants))]
					specs := make([]sim.JobSpec, 1+rng.Intn(4))
					for i := range specs {
						specs[i] = sim.JobSpec{Source: profile.MustNewRigid(1, "r", 1, 1+rng.Intn(3), 1+rng.Intn(4))}
						if rng.Intn(8) == 0 {
							specs[i].Release = 1 << 30
						}
					}
					// The oracle resolves the header, creating any dynamic
					// leaf, and the batch goes in under the leaf's own path:
					// Ensure on an interior node's path is not idempotent.
					fc := svc.fair
					fc.mu.Lock()
					leaf := fc.tree.Ensure(tenant)
					states := fairStates(svc, leaf.Path)
					fits := states[leaf.Path].InFlight+len(specs) <= fc.tree.Shares(states, cfg.MaxInFlight)[leaf.Path]
					fc.mu.Unlock()
					got, err := svc.SubmitBatchTenant(tenant, leaf.Path, specs)
					if errors.Is(err, ErrOverQuota) == fits {
						t.Fatalf("seed %d op %d: %d jobs for %q (%s): gate err %v, oracle fits=%v", seed, op, len(specs), tenant, leaf.Path, err, fits)
					}
					if err == nil {
						ids = append(ids, got...)
						admitted++
					} else if !fits {
						shed++
					}
				case r < 7 && len(ids) > 0:
					_ = svc.Cancel(ids[rng.Intn(len(ids))]) // a finished job refuses; that is part of the script
				default:
					if _, err := svc.shards[rng.Intn(len(svc.shards))].stepN(int64(1 + rng.Intn(6))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		script(svc, 300)
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		svc, err = New(cfg)
		if err != nil {
			t.Fatalf("seed %d: restart: %v", seed, err)
		}
		script(svc, 200)
		if shed == 0 || admitted == 0 {
			t.Errorf("seed %d: %d batches admitted, %d shed; the script must exercise both", seed, admitted, shed)
		}
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFairShedCountsJobs: the shed counter counts jobs, as the admitted
// counter does, so a shed 8-job batch raises it by 8.
func TestFairShedCountsJobs(t *testing.T) {
	cfg := fairConfig(1, 4)
	cfg.MaxInFlight = 4
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc)
	specs := make([]sim.JobSpec, 8)
	for i := range specs {
		specs[i] = sim.JobSpec{Graph: dag.Singleton(1, 1)}
	}
	if _, err := svc.SubmitBatchTenant("", "heavy", specs); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("8 jobs into a bound of 4: err %v, want ErrOverQuota", err)
	}
	for _, ts := range svc.Stats().Tenants {
		if ts.Path == "heavy" && (ts.Shed != 8 || ts.Admitted != 0) {
			t.Errorf("heavy shed %d admitted %d, want 8 and 0", ts.Shed, ts.Admitted)
		}
	}
	var sb strings.Builder
	if err := svc.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `krad_tenant_shed_total{tenant="heavy"} 8`+"\n") {
		t.Errorf("/metrics lacks the shed count of 8:\n%s", sb.String())
	}
}

// TestFairLedgerConcurrent reaches the ledgers from several goroutines at
// once: submitters under eight dynamic tenants go through the gate while
// three shards' step loops complete jobs and compact their journals, and
// a reader takes Stats. Once drained, every tenant has nothing in flight
// and the admitted counts add up to what the submitters saw admitted.
// Run it under -race.
func TestFairLedgerConcurrent(t *testing.T) {
	cfg := poolConfig(3, PlaceHash, 1, 4)
	cfg.MaxInFlight = 48
	cfg.Fairness = &fairshare.Config{Nodes: []fairshare.NodeConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}}}
	cfg.Journal = &JournalConfig{Dir: t.TempDir(), SnapshotEvery: 8}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	admitted := make([]int64, 4)
	var wg sync.WaitGroup
	for g := range admitted {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				tenant := fmt.Sprintf("t%d", (g+i)%8)
				specs := []sim.JobSpec{{Graph: dag.Singleton(1, 1)}, {Graph: dag.UniformChain(1, 2, 1)}}
				switch _, err := svc.SubmitBatchTenant(tenant, tenant, specs); {
				case err == nil:
					admitted[g] += int64(len(specs))
				case errors.Is(err, ErrOverQuota), errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("submit %s: %v", tenant, err)
					return
				}
				if i%16 == 0 {
					_ = svc.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	drainAndClose(t, svc)
	var want, got int64
	for _, n := range admitted {
		want += n
	}
	for _, ts := range svc.Stats().Tenants {
		got += ts.Admitted
		if ts.InFlight != 0 {
			t.Errorf("tenant %s has %d in flight after the drain", ts.Path, ts.InFlight)
		}
	}
	if got != want || want == 0 {
		t.Errorf("tenants admitted %d jobs, the submitters saw %d", got, want)
	}
}
