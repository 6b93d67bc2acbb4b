package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"krad/internal/journal"
)

// TestMain lets a test run kradd itself: the test binary re-executed with
// KRADD_RUN_MAIN=1 is the daemon, its arguments kradd's flags.
func TestMain(m *testing.M) {
	if os.Getenv("KRADD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is a kradd process the test started.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *bytes.Buffer
}

// startDaemon runs kradd with args (and -addr) and waits until it is ready.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: freeAddr(t), logs: &bytes.Buffer{}}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", d.addr}, args...)...)
	d.cmd.Env = append(os.Environ(), "KRADD_RUN_MAIN=1")
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
		if t.Failed() {
			t.Logf("kradd %s:\n%s", strings.Join(args, " "), d.logs)
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get("http://" + d.addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("kradd %s never became ready", strings.Join(args, " "))
	return nil
}

// stop sends SIGTERM and wants a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("kradd exited uncleanly: %v\n%s", err, d.logs)
	}
}

func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s (%v)", path, resp.StatusCode, b, err)
	}
	return b
}

// stats is the daemon's Stats without what is process-local by design:
// step and rejection counts, journal I/O, per-tenant admission tallies.
func (d *daemon) stats(t *testing.T) map[string]any {
	t.Helper()
	var payload struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(d.get(t, "/healthz"), &payload); err != nil {
		t.Fatal(err)
	}
	st := payload.Stats
	for _, k := range []string{"steps", "rejected", "journal"} {
		delete(st, k)
	}
	tenants, _ := st["tenants"].([]any)
	for _, ten := range tenants {
		ten := ten.(map[string]any)
		delete(ten, "admitted")
		delete(ten, "shed")
	}
	return st
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestRestartWithJournalDirAlone: a two-shard fleet on caps 3,2 with fair
// share under a half-life of 64 restarts from `-journal-dir` alone with
// the same Stats, tenants in the same order though they first submitted out
// of path order, and every job's status byte for byte, and a restart that
// gives other caps is refused naming the shape file and both values.
func TestRestartWithJournalDirAlone(t *testing.T) {
	dir := t.TempDir()
	tree := filepath.Join(t.TempDir(), "queues.conf")
	if err := os.WriteFile(tree, []byte("halflife 64\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	first := startDaemon(t, "-caps", "3,2", "-shards", "2", "-fairness="+tree, "-journal-dir", dir)
	var ids []int
	for i := range 12 {
		body := fmt.Sprintf(`{"graph":{"k":2,"categories":[1,2,%d,1],"edges":[[0,1],[1,2]]}}`, 1+i%2)
		req, err := http.NewRequest(http.MethodPost, "http://"+first.addr+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Krad-Tenant", fmt.Sprint("team-", 2-i%3))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			ID int `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d (%v)", i, resp.StatusCode, err)
		}
		ids = append(ids, out.ID)
	}
	var want map[string]any
	deadline := time.Now().Add(10 * time.Second)
	for want = first.stats(t); want["in_flight"] != float64(0); want = first.stats(t) {
		if time.Now().After(deadline) {
			t.Fatalf("never drained: %v", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if want["shards"] != float64(2) || len(want["tenants"].([]any)) != 4 {
		t.Fatalf("first start's stats %v: want 2 shards and four tenant leaves", want)
	}
	jobs := make(map[int]string)
	for _, id := range ids {
		jobs[id] = string(first.get(t, fmt.Sprintf("/v1/jobs/%d", id)))
	}
	first.stop(t)

	second := startDaemon(t, "-journal-dir", dir)
	if got := second.stats(t); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted from -journal-dir alone:\n got %v\nwant %v", got, want)
	}
	for _, id := range ids {
		if got := string(second.get(t, fmt.Sprintf("/v1/jobs/%d", id))); got != jobs[id] {
			t.Errorf("job %d: restarted %s, want %s", id, got, jobs[id])
		}
	}
	second.stop(t)

	bad := exec.Command(os.Args[0], "-addr", freeAddr(t), "-journal-dir", dir, "-caps", "1,1")
	bad.Env = append(os.Environ(), "KRADD_RUN_MAIN=1")
	out, err := bad.CombinedOutput()
	if err == nil {
		t.Fatalf("kradd started on caps 1,1 over a directory recorded on 3,2:\n%s", out)
	}
	for _, w := range []string{journal.ShapePath(dir), "caps differs: recorded 3,2, given 1,1"} {
		if !bytes.Contains(out, []byte(w)) {
			t.Errorf("refusal does not name %q:\n%s", w, out)
		}
	}
}

// TestRefusedReplicationChangesNoFile: kradd refuses -replicate-to with
// -follow before it opens the journal directory, so a fresh directory
// stays empty.
func TestRefusedReplicationChangesNoFile(t *testing.T) {
	dir := t.TempDir()
	bad := exec.Command(os.Args[0], "-addr", freeAddr(t), "-journal-dir", dir, "-replicate-to", "127.0.0.1:1", "-follow", "127.0.0.1:0")
	bad.Env = append(os.Environ(), "KRADD_RUN_MAIN=1")
	out, err := bad.CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("-replicate-to and -follow are mutually exclusive")) {
		t.Fatalf("kradd -replicate-to -follow: %v\n%s", err, out)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("a refused start left %v in the journal directory (%v)", ents, err)
	}
}
