package server

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/metrics"
	"krad/internal/sim"
)

// TestHistogramMergeMatchesOracle checks the cross-shard merge behind
// /metrics against a single histogram observing every sample directly:
// identical le lines, count and sum — the merge is exact, not approximate.
func TestHistogramMergeMatchesOracle(t *testing.T) {
	shardSamples := [][]float64{
		{1, 2, 3, 1000},
		{0.5, 8, 8, 8, 40000}, // includes an observation past the last bound
		{},                    // an idle shard contributes nothing
		{7, 7, 7},
	}
	var oracle, merged metrics.Hist
	for _, samples := range shardSamples {
		var sh metrics.Hist
		for _, v := range samples {
			sh.Observe(v)
			oracle.Observe(v)
		}
		merged.Merge(&sh)
	}
	var got, want strings.Builder
	writeResponseHist(&got, &merged)
	writeResponseHist(&want, &oracle)
	if got.String() != want.String() {
		t.Errorf("merged exposition\n%s\noracle\n%s", got.String(), want.String())
	}
	for _, line := range []string{
		`krad_response_steps_bucket{le="1"} 2`,
		`krad_response_steps_bucket{le="8"} 10`,
		`krad_response_steps_bucket{le="32768"} 11`,
		`krad_response_steps_bucket{le="+Inf"} 12`,
		"krad_response_steps_sum 41051.5",
		"krad_response_steps_count 12",
	} {
		if !strings.Contains(got.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, got.String())
		}
	}
}

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from TestMetricsGolden's fleet")

// TestMetricsGolden pins a full /metrics exposition, byte for byte: the
// fair-share fixture's two stealing shards with a journal (driveFairFixture),
// then a batch shed over a configured leaf's quota. Every labelled family
// renders here — leap-blocked reasons, utilization, per-shard, per-steal
// and per-tenant — beside the fleet-wide ones and the histogram. The
// golden is the exposition the writer gave before its labelled families
// shared one helper; regenerate it with -update only when a series moves
// on purpose.
func TestMetricsGolden(t *testing.T) {
	cfg := fairFixtureConfig(t.TempDir())
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainlessClose(t, svc)
	driveFairFixture(t, svc)
	specs := make([]sim.JobSpec, cfg.MaxInFlight)
	for i := range specs {
		specs[i].Graph = dag.Singleton(2, 1)
	}
	if _, err := svc.SubmitBatchTenant("", "light", specs); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("a fleet bound's worth of jobs for light: %v, want ErrOverQuota", err)
	}
	var b strings.Builder
	if err := svc.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateMetrics {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("exposition\n%s\nwant (%s)\n%s", b.String(), path, want)
	}
}
