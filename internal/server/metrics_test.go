package server

import (
	"strings"
	"testing"

	"krad/internal/metrics"
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
