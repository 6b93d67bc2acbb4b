package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/sim"
)

// TestCrashMatrix is the end-to-end durability harness: it builds the real
// kradd binary, SIGKILLs it at randomized points in the middle of a
// submission burst, restarts it over the same journal directory, and
// asserts the WAL contract held — every acknowledged admission survives,
// nothing half-applied appears, and the restarted daemon's drained state
// matches an oracle that replays the crashed run's journal in-process.
//
// The oracle works because the journal defines the interleaving: whatever
// wall-clock race the kill froze, the surviving records are the mutation
// sequence, and the engine is a pure function of it.
//
// Gated behind KRAD_CRASH_MATRIX=1 (it builds a binary and runs for
// seconds); KRAD_CRASH_POINTS overrides the kill-point count.
func TestCrashMatrix(t *testing.T) {
	if os.Getenv("KRAD_CRASH_MATRIX") != "1" {
		t.Skip("set KRAD_CRASH_MATRIX=1 to run the crash-matrix harness")
	}
	points := 3
	if v := os.Getenv("KRAD_CRASH_POINTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad KRAD_CRASH_POINTS %q", v)
		}
		points = n
	}
	seed := time.Now().UnixNano()
	t.Logf("crash-matrix seed %d (%d kill points)", seed, points)
	rng := rand.New(rand.NewSource(seed))

	bin := filepath.Join(t.TempDir(), "kradd")
	build := exec.Command("go", "build", "-o", bin, "krad/cmd/kradd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build kradd: %v\n%s", err, out)
	}

	for p := 0; p < points; p++ {
		t.Run(fmt.Sprintf("kill-%d", p), func(t *testing.T) {
			runCrashPoint(t, bin, rng.Int63n(120)+5)
		})
	}
}

func runCrashPoint(t *testing.T, bin string, killAfterMillis int64) {
	dir := t.TempDir()
	addr := freeAddr(t)
	daemon := startKradd(t, bin, dir, addr)

	// Burst submissions until the daemon dies under us, recording every
	// acknowledged (201) ID. The killer fires mid-burst after a random
	// delay, so the journal tail lands at an arbitrary byte.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(time.Duration(killAfterMillis) * time.Millisecond)
		_ = daemon.Process.Signal(syscall.SIGKILL)
	}()
	var acked []int
	client := &http.Client{Timeout: 2 * time.Second}
burst:
	for i := 0; ; i++ {
		id, status := trySubmit(t, client, addr, dag.UniformChain(1, 1+i%4, 1))
		switch status {
		case http.StatusCreated:
			acked = append(acked, id)
		case http.StatusServiceUnavailable:
			// Queue full: back off a step and keep bursting.
			time.Sleep(2 * time.Millisecond)
		default:
			break burst // daemon is gone (or mid-death): the burst is over
		}
	}
	<-killed
	_ = daemon.Wait()
	t.Logf("killed after %dms with %d acknowledged admissions", killAfterMillis, len(acked))

	// Oracle: replay a copy of the crashed journal in-process and drain.
	// The copy matters — the restarted daemon appends to the original.
	oraclePath := filepath.Join(t.TempDir(), "shard-000.wal")
	copyFile(t, filepath.Join(dir, "shard-000.wal"), oraclePath)
	_, recs, err := journal.Open(oraclePath, journal.Options{})
	if err != nil {
		t.Fatalf("oracle open: %v", err)
	}
	oracle, err := sim.NewEngine(sim.Config{
		K: 1, Caps: []int{2}, Scheduler: core.NewKRAD(1),
		Pick: dag.PickFIFO, Seed: 1, ValidateAllotments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Replay(oracle, recs); err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	for !oracle.Idle() {
		if _, err := oracle.Step(); err != nil {
			t.Fatalf("oracle drain: %v", err)
		}
	}
	snap := oracle.Snapshot()
	// Acknowledged implies journaled (-fsync=always): the ack only went out
	// after the append synced.
	if snap.Admitted < len(acked) {
		t.Fatalf("journal holds %d admissions but %d were acknowledged", snap.Admitted, len(acked))
	}

	// Restart over the same directory and let it drain.
	daemon2 := startKradd(t, bin, dir, addr)
	waitDrained(t, client, addr)
	stats := fetchStats(t, client, addr)
	if stats.Submitted != int64(snap.Admitted) || stats.Completed != int64(snap.Completed) || stats.Now != snap.Now {
		t.Fatalf("restarted daemon (submitted=%d completed=%d now=%d) diverges from oracle (admitted=%d completed=%d now=%d)",
			stats.Submitted, stats.Completed, stats.Now, snap.Admitted, snap.Completed, snap.Now)
	}
	for _, id := range acked {
		var got jobJSON
		resp, err := client.Get(fmt.Sprintf("http://%s/v1/jobs/%d", addr, id))
		if err != nil {
			t.Fatalf("query acked job %d: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("acknowledged job %d lost after crash: status %d", id, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want, ok := oracle.Job(id)
		if !ok {
			t.Fatalf("acked job %d missing from oracle", id)
		}
		if got.State != want.Phase.String() || got.Completion != want.Completion || got.Release != want.Release {
			t.Fatalf("job %d: restarted daemon %+v, oracle %+v", id, got, want)
		}
	}
	// Clean shutdown must exit zero.
	_ = daemon2.Process.Signal(syscall.SIGTERM)
	if err := daemon2.Wait(); err != nil {
		t.Fatalf("restarted daemon exited uncleanly: %v", err)
	}
}

func startKradd(t *testing.T, bin, dir, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr, "-caps", "2",
		"-journal-dir", dir, "-fsync", "always", "-snapshot-every", "0",
		"-drain", "10s",
	)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
		if t.Failed() {
			t.Logf("kradd output:\n%s", logs.String())
		}
	})
	waitReady(t, addr)
	return cmd
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitReady(t *testing.T, addr string) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("kradd at %s never became ready", addr)
}

// trySubmit posts one job, returning the HTTP status (0 once the daemon
// is dead or the response was cut off mid-body — not acknowledged).
func trySubmit(t *testing.T, client *http.Client, addr string, g *dag.Graph) (int, int) {
	t.Helper()
	body, err := json.Marshal(submitRequest{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0 // connection refused/reset: the kill landed
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return 0, resp.StatusCode
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0 // response cut off mid-body: not acknowledged
	}
	return out.ID, http.StatusCreated
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// krStats is the slice of the /healthz stats payload the harness checks.
type krStats struct {
	Now       int64 `json:"now"`
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	InFlight  int   `json:"in_flight"`
}

func fetchStats(t *testing.T, client *http.Client, addr string) krStats {
	t.Helper()
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Stats krStats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	return payload.Stats
}

func waitDrained(t *testing.T, client *http.Client, addr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if st := fetchStats(t, client, addr); st.InFlight == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("restarted daemon never drained its replayed jobs")
}
