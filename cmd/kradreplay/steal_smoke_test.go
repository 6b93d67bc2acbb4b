package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestStealSmokeRealKradd boots a real 8-shard kradd with -steal and
// hash placement, replays a zipf-skewed stream through it (every batch
// carries a hot-tailed placement key, so a handful of shards soak the
// load), and asserts full conservation — every accepted job drains,
// zero errors — plus a non-zero steal counter proving the skew was
// drained by peers, not just the hot shards. Gated behind
// KRAD_STEAL_SMOKE=1 like the replay smoke: real binaries, real port.
func TestStealSmokeRealKradd(t *testing.T) {
	if os.Getenv("KRAD_STEAL_SMOKE") != "1" {
		t.Skip("set KRAD_STEAL_SMOKE=1 to run the steal smoke test")
	}
	dir := t.TempDir()
	kradd := filepath.Join(dir, "kradd")
	replay := filepath.Join(dir, "kradreplay")
	for bin, pkg := range map[string]string{kradd: "krad/cmd/kradd", replay: "krad/cmd/kradreplay"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	jdir := filepath.Join(dir, "journal")
	daemon := exec.Command(kradd,
		"-addr", addr, "-caps", "2,2",
		"-shards", "8", "-steal", "-placement", "hash",
		"-queue", "200000", "-retire-done",
		"-journal-dir", jdir, "-fsync", "interval", "-snapshot-every", "0")
	daemon.Stdout = os.Stderr
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { daemon.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			daemon.Process.Kill()
		}
	}()
	base := "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("kradd never became ready")
		}
		time.Sleep(100 * time.Millisecond)
	}

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
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Stats struct {
			Completed int64 `json:"completed"`
			Steal     *struct {
				Stolen   int64 `json:"stolen"`
				StolenIn int64 `json:"stolen_in"`
			} `json:"steal"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
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
}
