package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/sched"
	"krad/internal/sim"
)

// fairLoops are the closed-loop runs: greedy tenants t0..t{N-1}, weighted
// 2:1 or 4:2:1, each attempt 16 single-task submissions a round,
// interleaved one per tenant: the gate lends an idle tenant's slots until
// drain, so bursting tenants one by one would let the first claim the
// fleet before its peers count as active. The round ends with up to 16
// virtual steps of drain on a never-Started service, whose clock only the
// test moves. From round 60 the last tenant stops submitting, which is
// what makes its usage decay visible.
var fairLoops = []struct {
	golden  string
	weights []float64
	rounds  int
}{
	{"fairloop-2.csv", []float64{2, 1}, 120},
	{"fairloop-3.csv", []float64{4, 2, 1}, 200},
}

// TestFairClosedLoopGolden pins each closed-loop run byte for byte. Every
// round writes one CSV row per leaf —
// round,step,tenant,share,in_flight,usage,admitted,shed: step is the fleet
// clock after the drain, share the leaf's bound from the latest rebalance,
// admitted and shed cumulative — and the whole CSV must match its golden.
// The goldens were written by cmd/kradfair, the standalone simulator these
// tests replaced: fairloop-2.csv with its default flags and fairloop-3.csv
// with -tenants 3 -weights 4,2,1 -rounds 200.
func TestFairClosedLoopGolden(t *testing.T) {
	for _, tc := range fairLoops {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := fairClosedLoop(t, tc.weights, tc.rounds).csv
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("CSV line %d differs from the golden\n got %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("CSV has %d lines, the golden %d", len(gl), len(wl))
			}
		})
	}
}

// TestFairClosedLoopContract is the fair-share gate's closed-loop contract,
// the one the CSVs are for: t0 and t1 both shed (an unsaturated run proves
// nothing about division), their admitted ratio at the last round both
// submitted is within 5% of their weight ratio, and the idled tenant's
// usage ends under 1% of its peak.
func TestFairClosedLoopContract(t *testing.T) {
	for _, tc := range fairLoops {
		t.Run(tc.golden, func(t *testing.T) {
			run := fairClosedLoop(t, tc.weights, tc.rounds)
			a, b := run.ratio[0], run.ratio[1]
			if a.Shed == 0 || b.Shed == 0 || a.Admitted == 0 || b.Admitted == 0 {
				t.Errorf("t0 and t1 admitted %d/%d, shed %d/%d: both must admit and shed", a.Admitted, b.Admitted, a.Shed, b.Shed)
			} else {
				got, want := float64(a.Admitted)/float64(b.Admitted), tc.weights[0]/tc.weights[1]
				if rel := got/want - 1; rel < -0.05 || rel > 0.05 {
					t.Errorf("admitted ratio t0:t1 = %.3f, want %.2f ± 5%%", got, want)
				}
			}
			if run.idlePeak <= 0 || run.idleLast >= 0.01*run.idlePeak {
				t.Errorf("idle tenant usage ends at %.4g of peak %.4g, want under 1%%", run.idleLast, run.idlePeak)
			}
		})
	}
}

// fairLoopRun is what one closed-loop run leaves: its CSV and the numbers
// its contract is read from.
type fairLoopRun struct {
	csv string
	// ratio holds t0 and t1 at the last round both submitted: once one
	// idles, its cumulative count measures idleness, not division.
	ratio              [2]TenantStats
	idlePeak, idleLast float64 // the idled tenant's usage
}

// fairClosedLoop runs the closed loop over tenants weighted by weights.
func fairClosedLoop(t *testing.T, weights []float64, rounds int) fairLoopRun {
	t.Helper()
	const slots, drainSteps, halfLife, idleFrom = 16, 16, 32, 60
	nodes := make([]fairshare.NodeConfig, len(weights))
	paths := make([]string, len(weights))
	for i, w := range weights {
		paths[i] = fmt.Sprintf("t%d", i)
		nodes[i] = fairshare.NodeConfig{Name: paths[i], Weight: w}
	}
	// One shard of single-category unit jobs: the loop measures the gate,
	// so the machine is the simplest one that drains whatever it admits.
	cfg := testConfig(1, 4)
	cfg.MaxInFlight = slots
	cfg.NewScheduler = func() sched.Scheduler { return core.NewKRAD(1) }
	cfg.Fairness = &fairshare.Config{HalfLife: halfLife, Nodes: nodes}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	out.WriteString("round,step,tenant,share,in_flight,usage,admitted,shed\n")
	idle := len(paths) - 1
	var run fairLoopRun
	fleetFull := 0
	for round := 0; round < rounds; round++ {
		for b := 0; b < slots; b++ {
			for i, path := range paths {
				if i == idle && round >= idleFrom {
					continue
				}
				_, err := svc.SubmitTenant("", path, sim.JobSpec{Graph: dag.Singleton(1, 1)})
				switch {
				case errors.Is(err, ErrOverQuota):
					// Shed by the gate: the tenant's shed column.
				case errors.Is(err, ErrQueueFull):
					// Fleet backpressure, not a fairness verdict: usage accrues
					// per admission, so shares move mid-round, and a slot taken
					// under an older, larger share is held until drain.
					fleetFull++
				case err != nil:
					t.Fatalf("round %d tenant %s: %v", round, path, err)
				}
			}
		}
		if _, err := svc.StepAll(drainSteps); err != nil {
			t.Fatalf("round %d: step: %v", round, err)
		}
		st := svc.Stats()
		for _, ts := range st.Tenants {
			fmt.Fprintf(&out, "%d,%d,%s,%d,%d,%g,%d,%d\n",
				round, st.Now, ts.Path, ts.Share, ts.InFlight, ts.Usage, ts.Admitted, ts.Shed)
			if ts.Path == paths[idle] {
				run.idlePeak, run.idleLast = max(run.idlePeak, ts.Usage), ts.Usage
			}
			if round == idleFrom-1 {
				for i := range run.ratio {
					if ts.Path == paths[i] {
						run.ratio[i] = ts
					}
				}
			}
		}
	}
	t.Logf("%d attempts bounced on the fleet bound (503 backpressure, not shed)", fleetFull)

	run.csv = out.String()
	return run
}
