package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"krad/internal/journal"
)

// TestStealSmokeRealKradd boots a real 8-shard kradd with -steal and
// hash placement, replays a zipf-skewed stream through it (every batch
// carries a hot-tailed placement key, so a handful of shards soak the
// load), and asserts full conservation — every accepted job drains,
// zero errors — plus a non-zero steal counter proving the skew was
// drained by peers, not just the hot shards. It then restarts kradd
// without -steal over the same journals: the daemon must come ready with
// every job completed, and every job's original ID must still answer as
// done. A second leg runs the same with -fairness and kradreplay -tenants
// 3, and also requires every tenant's in-flight count to be 0 after the
// drain. Gated behind KRAD_STEAL_SMOKE=1 like the replay smoke: real
// binaries, real port.
func TestStealSmokeRealKradd(t *testing.T) {
	if os.Getenv("KRAD_STEAL_SMOKE") != "1" {
		t.Skip("set KRAD_STEAL_SMOKE=1 to run the steal smoke test")
	}
	dir, kradd, replay, addr := realBinaries(t)
	jobs := 20000
	if v := os.Getenv("KRAD_STEAL_SMOKE_JOBS"); v != "" {
		fmt.Sscanf(v, "%d", &jobs)
	}
	for _, leg := range []struct {
		name    string
		mode    []string // kradd flags kept across the restart
		tenants int
	}{{"steal", nil, 0}, {"steal+fairness", []string{"-fairness"}, 3}} {
		t.Run(leg.name, func(t *testing.T) {
			stealSmoke(t, filepath.Join(dir, leg.name), kradd, replay, addr, jobs, leg.mode, leg.tenants)
		})
	}
}

func stealSmoke(t *testing.T, dir, kradd, replay, addr string, jobs int, mode []string, tenants int) {
	jdir := filepath.Join(dir, "journal")
	args := append([]string{"-caps", "2,2", "-shards", "8", "-placement", "hash",
		"-queue", "200000",
		"-journal-dir", jdir, "-fsync", "interval", "-snapshot-every", "0"}, mode...)
	stop := startKradd(t, kradd, addr, append(args, "-steal")...)
	base := "http://" + addr

	outPath := filepath.Join(dir, "report.json")
	cmd := exec.Command(replay,
		"-addr", base, "-jobs", fmt.Sprint(jobs),
		"-mix", "rigid=0.9,dag=0.05,mold=0.05", "-workers", "8", "-batch", "16",
		"-skew", "zipf", "-skew-keys", "64", "-tenants", fmt.Sprint(tenants),
		"-drain-timeout", "5m", "-out", outPath)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("kradreplay: %v", err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Skew != "zipf" || len(rep.Tenants) != tenants {
		t.Fatalf("report skew %q with %d tenant rows, want zipf and %d", rep.Skew, len(rep.Tenants), tenants)
	}
	// Conservation: every job accepted, every job drained, none duplicated
	// (a duplicate would overshoot the drain count), zero errors.
	if rep.Accepted != int64(jobs) || rep.Errors != 0 {
		t.Fatalf("accepted %d errors %d, want %d/0", rep.Accepted, rep.Errors, jobs)
	}
	if rep.Drain == nil || rep.Drain.Jobs != int64(jobs) {
		t.Fatalf("drain %+v, want exactly %d jobs", rep.Drain, jobs)
	}

	// The skewed stream must actually have been rebalanced by stealing.
	health := stealHealth(t, base)
	if health.Stats.Completed != int64(jobs) {
		t.Fatalf("daemon completed %d, want %d", health.Stats.Completed, jobs)
	}
	st := health.Stats.Steal
	if st == nil || st.Stolen == 0 {
		t.Fatalf("steal counters %+v after a zipf run, want > 0 steals", st)
	}
	if st.Stolen != st.StolenIn {
		t.Fatalf("steal counters diverged: %d out vs %d in (a lost or duplicated move)", st.Stolen, st.StolenIn)
	}
	if tenants > 0 && len(health.Stats.Tenants) < tenants {
		t.Fatalf("daemon reports tenants %+v, want at least %d", health.Stats.Tenants, tenants)
	}
	for _, ts := range health.Stats.Tenants {
		if ts.InFlight != 0 {
			t.Fatalf("tenant %s has %d in flight after the drain", ts.Path, ts.InFlight)
		}
	}
	t.Logf("steal smoke: %d jobs, %d stolen (%.1f%%), drain %.0f jobs/s",
		jobs, st.Stolen, 100*float64(st.Stolen)/float64(jobs), rep.Drain.JobsPerSec)

	// Restart without -steal: the steal records replay all the same. The
	// client admissions name every job's original ID, the thieves'
	// admissions each stolen job's.
	stop(false)
	var ids, stolen []int
	wals, err := filepath.Glob(filepath.Join(jdir, "shard-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wal := range wals {
		var shard int
		if _, err := fmt.Sscanf(filepath.Base(wal), "shard-%d.wal", &shard); err != nil {
			t.Fatal(err)
		}
		recs, err := journal.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			stolen = append(stolen, rec.From...)
			for k := range rec.Jobs {
				if rec.From == nil {
					ids = append(ids, shard<<32|(rec.Base+k))
				}
			}
		}
	}
	if int64(len(stolen)) != st.StolenIn || len(ids) != jobs {
		t.Fatalf("the journals name %d stolen of %d jobs, the daemon counted %d of %d", len(stolen), len(ids), st.StolenIn, jobs)
	}
	startKradd(t, kradd, addr, args...)
	if got := stealHealth(t, base).Stats.Completed; got != int64(jobs) {
		t.Fatalf("steal-off restart completed %d, want %d", got, jobs)
	}
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || job.State != "done" {
			t.Fatalf("GET job %d after the steal-off restart: %d %+v (%v), want 200 done", id, resp.StatusCode, job, err)
		}
	}
	t.Logf("steal-off restart: all %d jobs, %d of them stolen, answer done under their original IDs", len(ids), len(stolen))
}

// stealHealthz is the slice of /healthz the steal smoke checks.
type stealHealthz struct {
	Stats struct {
		Completed int64 `json:"completed"`
		Tenants   []struct {
			Path     string `json:"path"`
			InFlight int    `json:"in_flight"`
		} `json:"tenants"`
		Steal *struct {
			Stolen   int64 `json:"stolen"`
			StolenIn int64 `json:"stolen_in"`
		} `json:"steal"`
	} `json:"stats"`
}

func stealHealth(t *testing.T, base string) stealHealthz {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health stealHealthz
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	return health
}
