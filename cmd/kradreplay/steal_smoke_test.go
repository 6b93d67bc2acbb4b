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
// every job completed, and every stolen job's original ID must still
// answer as done. Gated behind KRAD_STEAL_SMOKE=1 like the replay smoke:
// real binaries, real port.
func TestStealSmokeRealKradd(t *testing.T) {
	if os.Getenv("KRAD_STEAL_SMOKE") != "1" {
		t.Skip("set KRAD_STEAL_SMOKE=1 to run the steal smoke test")
	}
	dir, kradd, replay, addr := realBinaries(t)
	jdir := filepath.Join(dir, "journal")
	args := []string{"-caps", "2,2", "-shards", "8", "-placement", "hash",
		"-queue", "200000", "-retire-done",
		"-journal-dir", jdir, "-fsync", "interval", "-snapshot-every", "0"}
	stop := startKradd(t, kradd, addr, append(args, "-steal")...)
	base := "http://" + addr

	jobs := 20000
	if v := os.Getenv("KRAD_STEAL_SMOKE_JOBS"); v != "" {
		fmt.Sscanf(v, "%d", &jobs)
	}
	outPath := filepath.Join(dir, "report.json")
	cmd := exec.Command(replay,
		"-addr", base, "-jobs", fmt.Sprint(jobs),
		"-mix", "rigid=0.9,dag=0.05,mold=0.05", "-workers", "8", "-batch", "16",
		"-skew", "zipf", "-skew-keys", "64",
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
	if rep.Skew != "zipf" {
		t.Fatalf("report skew %q, want zipf", rep.Skew)
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
	t.Logf("steal smoke: %d jobs, %d stolen (%.1f%%), drain %.0f jobs/s",
		jobs, st.Stolen, 100*float64(st.Stolen)/float64(jobs), rep.Drain.JobsPerSec)

	// Restart without -steal: the steal records replay all the same. The
	// thieves' admissions name each stolen job's original ID.
	stop(false)
	var stolen []int
	wals, err := filepath.Glob(filepath.Join(jdir, "shard-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wal := range wals {
		recs, err := journal.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			stolen = append(stolen, rec.From...)
		}
	}
	if int64(len(stolen)) != st.StolenIn {
		t.Fatalf("the journals name %d stolen jobs, the daemon counted %d", len(stolen), st.StolenIn)
	}
	startKradd(t, kradd, addr, args...)
	if got := stealHealth(t, base).Stats.Completed; got != int64(jobs) {
		t.Fatalf("steal-off restart completed %d, want %d", got, jobs)
	}
	for _, id := range stolen {
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
			t.Fatalf("GET stolen job %d after the steal-off restart: %d %+v (%v), want 200 done", id, resp.StatusCode, job, err)
		}
	}
	t.Logf("steal-off restart: %d stolen jobs answer done under their original IDs", len(stolen))
}

// stealHealthz is the slice of /healthz the steal smoke checks.
type stealHealthz struct {
	Stats struct {
		Completed int64 `json:"completed"`
		Steal     *struct {
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
