package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestReplicationSmokeRealKradd runs a real 2-shard primary with fair
// share that ships its WALs (-replicate-to, compacting every 2000 records)
// to a real standby, SIGKILLs the standby mid-stream and restarts it over
// its own journal, and replays a mixed stream over three tenants through
// the primary. After the drain the primary must report no replication lag
// and the standby every shard's clock and admission and completion counts
// the primary has, and, before promotion, the primary's tenant in-flight,
// share and usage series, labels and order included; promoted, the
// standby must answer every accepted ID as done. Gated behind
// KRAD_REPLICATION_SMOKE=1 like the replay smoke: real binaries, real
// ports.
func TestReplicationSmokeRealKradd(t *testing.T) {
	if os.Getenv("KRAD_REPLICATION_SMOKE") != "1" {
		t.Skip("set KRAD_REPLICATION_SMOKE=1 to run the replication smoke test")
	}
	dir, kradd, replay, addr := realBinaries(t)
	faddr, repAddr := freeAddr(t), freeAddr(t)
	engine := []string{"-caps", "8,8", "-shards", "2", "-queue", "200000", "-fairness"}
	follower := append([]string{"-follow", repAddr, "-journal-dir", filepath.Join(dir, "follower")}, engine...)
	stopFollower := startKradd(t, kradd, faddr, follower...)
	startKradd(t, kradd, addr, append([]string{"-replicate-to", repAddr,
		"-journal-dir", filepath.Join(dir, "primary"), "-fsync", "interval", "-snapshot-every", "2000"}, engine...)...)
	base, fbase := "http://"+addr, "http://"+faddr

	jobs := 20000
	if v := os.Getenv("KRAD_REPLICATION_SMOKE_JOBS"); v != "" {
		fmt.Sscanf(v, "%d", &jobs)
	}
	outPath := filepath.Join(dir, "report.json")
	cmd := exec.Command(replay,
		"-addr", base, "-jobs", fmt.Sprint(jobs),
		"-mix", "rigid=0.8,dag=0.1,mold=0.1", "-workers", "8", "-batch", "16", "-tenants", "3",
		"-drain-timeout", "5m", "-out", outPath)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the standby a third of the way in and bring it back at two
	// thirds: it replays its own WAL, and the primary's stream resumes from
	// the standby's cursor, through a snapshot if compaction overtook it.
	waitSubmitted(t, base, jobs/3)
	stopFollower(true)
	waitSubmitted(t, base, 2*jobs/3)
	startKradd(t, kradd, faddr, follower...)
	if err := cmd.Wait(); err != nil {
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
	if rep.Accepted != int64(jobs) || rep.Errors != 0 || rep.Drain == nil || rep.Drain.Jobs != int64(jobs) {
		t.Fatalf("accepted %d errors %d drain %+v, want %d/0 all drained", rep.Accepted, rep.Errors, rep.Drain, jobs)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for scrape(t, base)["krad_replicate_lag_records"] != "0" {
		if time.Now().After(deadline) {
			t.Fatalf("replication lag %s records two minutes after the drain", scrape(t, base)["krad_replicate_lag_records"])
		}
		time.Sleep(100 * time.Millisecond)
	}
	primary, standby := scrape(t, base), scrape(t, fbase)
	var ids []int
	for shard := 0; shard < 2; shard++ {
		for _, name := range []string{"krad_shard_virtual_time", "krad_shard_jobs_submitted_total", "krad_shard_jobs_completed_total"} {
			series := fmt.Sprintf("%s{shard=%q}", name, fmt.Sprint(shard))
			if primary[series] == "" || standby[series] != primary[series] {
				t.Fatalf("%s: standby %q, primary %q", series, standby[series], primary[series])
			}
		}
		n, _ := strconv.Atoi(primary[fmt.Sprintf("krad_shard_jobs_submitted_total{shard=%q}", fmt.Sprint(shard))])
		for local := 0; local < n; local++ {
			ids = append(ids, shard<<32|local)
		}
	}
	if len(ids) != jobs {
		t.Fatalf("the shards admitted %d jobs, want %d", len(ids), jobs)
	}
	pten, sten := tenantSeries(t, base), tenantSeries(t, fbase)
	if len(pten) < 3*4 || !slices.Equal(sten, pten) {
		t.Fatalf("tenant series before promotion:\nstandby %q\nprimary %q", sten, pten)
	}

	resp, err := http.Post(fbase+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d", resp.StatusCode)
	}
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", fbase, id))
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || job.State != "done" {
			t.Fatalf("GET %d on the promoted standby: %d %+v (%v), want 200 done", id, resp.StatusCode, job, err)
		}
	}
	t.Logf("replication smoke: %d jobs, %.0f submit/s, standby killed and restarted mid-stream, every ID done after promotion",
		rep.Accepted, rep.SubmitRate)
}

// waitSubmitted waits until the daemon at base has admitted n jobs.
func waitSubmitted(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Stats struct {
				Submitted int `json:"submitted"`
			} `json:"stats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if health.Stats.Submitted >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs admitted after five minutes", health.Stats.Submitted, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrape reads the daemon's /metrics into series → value.
func scrape(t *testing.T, base string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range samples(t, base) {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// tenantSeries returns the daemon's per-tenant in-flight, share and usage
// samples in exposition order.
func tenantSeries(t *testing.T, base string) []string {
	t.Helper()
	var out []string
	for _, line := range samples(t, base) {
		for _, name := range []string{"krad_tenant_in_flight{", "krad_tenant_share{", "krad_tenant_usage{"} {
			if strings.HasPrefix(line, name) {
				out = append(out, line)
			}
		}
	}
	return out
}

// samples returns the daemon's /metrics sample lines, comments left out.
func samples(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
