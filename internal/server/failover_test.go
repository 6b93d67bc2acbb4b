package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/sim"
	"krad/internal/workload"
)

// TestFailoverMatrix is the replication extension of the crash matrix: it
// runs a real primary/follower kradd pair over TCP, injects the faults a
// deployment actually sees — SIGKILL of the primary at random points in a
// submission burst, the replication link dying mid-frame, a partition
// that heals — and asserts the failover contract: the promoted follower's
// drained state is exactly what replaying its journal in-process
// produces, a cleanly handed-over follower is bit-identical to the
// primary's full journal, and a fenced ex-primary refuses admissions with
// a located error, restarted with the same flags too, until it is
// restarted as a follower and promoted past the fence. Failover time and
// replication lag are reported per scenario.
//
// Gated behind KRAD_FAILOVER_MATRIX=1 (builds a binary, runs for
// seconds); KRAD_FAILOVER_POINTS overrides the kill-point count.
func TestFailoverMatrix(t *testing.T) {
	if os.Getenv("KRAD_FAILOVER_MATRIX") != "1" {
		t.Skip("set KRAD_FAILOVER_MATRIX=1 to run the failover matrix harness")
	}
	points := 2
	if v := os.Getenv("KRAD_FAILOVER_POINTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad KRAD_FAILOVER_POINTS %q", v)
		}
		points = n
	}
	seed := time.Now().UnixNano()
	t.Logf("failover-matrix seed %d (%d kill points)", seed, points)
	rng := rand.New(rand.NewSource(seed))

	bin := filepath.Join(t.TempDir(), "kradd")
	build := exec.Command("go", "build", "-o", bin, "krad/cmd/kradd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build kradd: %v\n%s", err, out)
	}

	for p := 0; p < points; p++ {
		t.Run(fmt.Sprintf("kill-primary-%d", p), func(t *testing.T) {
			runFailoverKill(t, bin, rng.Int63n(150)+10)
		})
	}
	t.Run("link-faults", func(t *testing.T) { runFailoverLinkFaults(t, bin) })
	t.Run("promote-after-fencing", func(t *testing.T) { runFailoverPromoteAfter(t, bin) })
}

// runFailoverKill SIGKILLs the primary mid-burst at a random point — the
// journal and replication stream both end at arbitrary bytes — then
// promotes the follower by hand and diffs its drained state against an
// in-process replay of its own journal.
func runFailoverKill(t *testing.T, bin string, killAfterMillis int64) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pAddr, fAddr, repAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	client := &http.Client{Timeout: 2 * time.Second}

	startDaemon(t, bin, "follower",
		"-addr", fAddr, "-caps", "2",
		"-journal-dir", fdir, "-fsync", "always", "-snapshot-every", "0",
		"-follow", repAddr, "-drain", "10s")
	waitAlive(t, client, fAddr)
	primary := startDaemon(t, bin, "primary",
		"-addr", pAddr, "-caps", "2",
		"-journal-dir", pdir, "-fsync", "always", "-snapshot-every", "0",
		"-replicate-to", repAddr, "-drain", "10s")
	waitReady(t, pAddr)
	waitFollowerAttached(t, client, fAddr)

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(time.Duration(killAfterMillis) * time.Millisecond)
		_ = primary.Process.Signal(syscall.SIGKILL)
	}()
	var acked []int
burst:
	for i := 0; ; i++ {
		id, status := trySubmit(t, client, pAddr, dag.UniformChain(1, 1+i%4, 1))
		switch status {
		case http.StatusCreated:
			acked = append(acked, id)
		case http.StatusServiceUnavailable:
			time.Sleep(2 * time.Millisecond)
		default:
			break burst
		}
	}
	<-killed
	_ = primary.Wait()
	killAt := time.Now()

	// The stream is dead; wait for the follower's applied counter to go
	// quiet so the journal we hand the oracle is the final pre-promotion
	// state.
	waitApplySettled(t, client, fAddr)
	lag := int64(len(acked)) - appliedAdmissions(t, fdir)
	t.Logf("killed primary after %dms: %d acked admissions, follower lag %d records behind the acks", killAfterMillis, len(acked), lag)

	oraclePath := filepath.Join(t.TempDir(), "shard-000.wal")
	copyFile(t, filepath.Join(fdir, "shard-000.wal"), oraclePath)
	oracle := replayDrainedOracle(t, oraclePath)
	snap := oracle.Snapshot()

	// Promote and measure kill→serving.
	promoteHTTP(t, client, fAddr)
	waitReady(t, fAddr)
	t.Logf("failover time (SIGKILL → promoted follower ready): %v", time.Since(killAt).Round(time.Millisecond))

	waitDrained(t, client, fAddr)
	stats := fetchStats(t, client, fAddr)
	if stats.Submitted != int64(snap.Admitted) || stats.Completed != int64(snap.Completed) || stats.Now != snap.Now {
		t.Fatalf("promoted follower (submitted=%d completed=%d now=%d) diverges from journal oracle (admitted=%d completed=%d now=%d)",
			stats.Submitted, stats.Completed, stats.Now, snap.Admitted, snap.Completed, snap.Now)
	}
	diffJobsAgainstOracle(t, client, fAddr, oracle, snap.Admitted)

	// The promoted follower is a real primary: it admits and completes.
	id, status := trySubmit(t, client, fAddr, dag.UniformChain(1, 2, 1))
	if status != http.StatusCreated {
		t.Fatalf("promoted follower refused a submission: status %d", status)
	}
	waitJobDone(t, client, fAddr, id)
}

// runFailoverLinkFaults routes replication through an in-test TCP proxy,
// cuts the link mid-frame, partitions and heals it, and finally hands
// over cleanly — the promoted follower must be bit-identical to the
// replay of the primary's full journal.
func runFailoverLinkFaults(t *testing.T, bin string) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pAddr, fAddr, repAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	client := &http.Client{Timeout: 2 * time.Second}

	startDaemon(t, bin, "follower",
		"-addr", fAddr, "-caps", "2",
		"-journal-dir", fdir, "-fsync", "always", "-snapshot-every", "0",
		"-follow", repAddr, "-drain", "10s")
	waitAlive(t, client, fAddr)
	proxy := newLinkProxy(t, repAddr)
	primary := startDaemon(t, bin, "primary",
		"-addr", pAddr, "-caps", "2",
		"-journal-dir", pdir, "-fsync", "always", "-snapshot-every", "0",
		"-replicate-to", proxy.addr(), "-drain", "10s")
	waitReady(t, pAddr)
	waitFollowerAttached(t, client, fAddr)

	submitN := func(n, span int) {
		for i := 0; i < n; i++ {
			if _, status := trySubmit(t, client, pAddr, dag.UniformChain(1, 1+i%span, 1)); status != http.StatusCreated {
				t.Fatalf("submission %d refused: status %d", i, status)
			}
		}
	}

	// Mid-frame cut: allow ~2000 more forwarded bytes, then kill the
	// stream inside whatever frame is crossing. The sender must reconnect
	// (immediately re-cut while the budget is spent) and, once healed,
	// catch the follower up off the WAL.
	submitN(10, 4)
	proxy.cutAfter(2000)
	submitN(20, 4)
	time.Sleep(200 * time.Millisecond) // let the cut land and retries churn
	proxy.heal()
	waitReplicationIdle(t, client, pAddr)

	// Partition (refuse every connection), commit more work, heal.
	proxy.partition()
	submitN(10, 3)
	time.Sleep(200 * time.Millisecond)
	proxy.heal()
	waitReplicationIdle(t, client, pAddr)

	// Clean handover: quiesce, stop the primary, promote. Nothing may be
	// lost — the follower saw every committed record.
	waitDrained(t, client, pAddr)
	waitReplicationIdle(t, client, pAddr)
	pstats := fetchStats(t, client, pAddr)
	_ = primary.Process.Signal(syscall.SIGTERM)
	if err := primary.Wait(); err != nil {
		t.Fatalf("primary exited uncleanly: %v", err)
	}

	oraclePath := filepath.Join(t.TempDir(), "shard-000.wal")
	copyFile(t, filepath.Join(pdir, "shard-000.wal"), oraclePath)
	oracle := replayDrainedOracle(t, oraclePath)
	snap := oracle.Snapshot()

	promoteHTTP(t, client, fAddr)
	waitReady(t, fAddr)
	waitDrained(t, client, fAddr)
	fstats := fetchStats(t, client, fAddr)
	if fstats.Submitted != pstats.Submitted || fstats.Completed != pstats.Completed || fstats.Now != pstats.Now {
		t.Fatalf("clean handover lost state: follower (submitted=%d completed=%d now=%d), primary was (submitted=%d completed=%d now=%d)",
			fstats.Submitted, fstats.Completed, fstats.Now, pstats.Submitted, pstats.Completed, pstats.Now)
	}
	if fstats.Submitted != int64(snap.Admitted) || fstats.Completed != int64(snap.Completed) || fstats.Now != snap.Now {
		t.Fatalf("promoted follower diverges from the primary's journal oracle: follower (submitted=%d completed=%d now=%d), oracle (admitted=%d completed=%d now=%d)",
			fstats.Submitted, fstats.Completed, fstats.Now, snap.Admitted, snap.Completed, snap.Now)
	}
	diffJobsAgainstOracle(t, client, fAddr, oracle, snap.Admitted)
}

// runFailoverPromoteAfter exercises the automatic path: the primary holds
// a replication lease, the follower a promote-after timeout strictly
// above it. Partitioning the link must first gate the primary's
// admissions (lease expiry), then self-promote the follower; healing the
// link must fence the ex-primary with a located 409. The fence is on
// disk: the ex-primary restarted with the same flags still answers 409,
// and only restarting it with -follow and promoting it takes leadership
// back, at an epoch above the one that fenced it.
func runFailoverPromoteAfter(t *testing.T, bin string) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pAddr, fAddr, repAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	client := &http.Client{Timeout: 2 * time.Second}

	follower := startDaemon(t, bin, "follower",
		"-addr", fAddr, "-caps", "2",
		"-journal-dir", fdir, "-fsync", "always", "-snapshot-every", "0",
		"-follow", repAddr, "-promote-after", "700ms", "-drain", "10s")
	waitAlive(t, client, fAddr)
	proxy := newLinkProxy(t, repAddr)
	primaryArgs := []string{"-addr", pAddr, "-caps", "2",
		"-journal-dir", pdir, "-fsync", "always", "-snapshot-every", "0",
		"-replicate-to", proxy.addr(), "-lease", "250ms", "-drain", "10s"}
	primary := startDaemon(t, bin, "primary", primaryArgs...)
	waitReady(t, pAddr)
	waitFollowerAttached(t, client, fAddr)

	for i := 0; i < 6; i++ {
		if _, status := trySubmit(t, client, pAddr, dag.UniformChain(1, 2, 1)); status != http.StatusCreated {
			t.Fatalf("submission %d refused: status %d", i, status)
		}
	}
	waitReplicationIdle(t, client, pAddr)

	partitionAt := time.Now()
	proxy.partition()

	// Lease expiry: the primary must stop admitting before the follower's
	// promote-after can fire (lease 250ms < promote-after 700ms — that
	// ordering is the split-brain guarantee).
	waitFor(t, "lease expiry gates admissions", func() bool {
		status, body := submitProbe(t, client, pAddr)
		return status == http.StatusServiceUnavailable && strings.Contains(body, "lease")
	})

	// Self-promotion by primary-silence timeout: no POST involved.
	waitReady(t, fAddr)
	t.Logf("failover time (partition → self-promoted follower ready): %v", time.Since(partitionAt).Round(time.Millisecond))

	// Heal: the ex-primary reconnects, meets epoch 2, and latches the
	// fence — admissions now refuse permanently with a located 409.
	proxy.heal()
	waitFor(t, "ex-primary fenced", func() bool {
		status, body := submitProbe(t, client, pAddr)
		return status == http.StatusConflict && strings.Contains(body, "fenced")
	})

	// The promoted follower serves while the old primary is fenced.
	id, status := trySubmit(t, client, fAddr, dag.UniformChain(1, 2, 1))
	if status != http.StatusCreated {
		t.Fatalf("self-promoted follower refused a submission: status %d", status)
	}
	waitJobDone(t, client, fAddr, id)

	// A supervisor restarts the ex-primary with byte-identical flags: it
	// comes back fenced, and its first submission answers 409.
	stopDaemon(t, primary)
	primary = startDaemon(t, bin, "primary-restarted", primaryArgs...)
	waitReady(t, pAddr)
	if status, body := submitProbe(t, client, pAddr); status != http.StatusConflict || !strings.Contains(body, "fenced") {
		t.Fatalf("restarted ex-primary answered %d %s, want 409 fenced", status, body)
	}

	// Takeover: stop the promoted node, bring the ex-primary back as a
	// follower, and promote it past the epoch that fenced it.
	stopDaemon(t, follower)
	stopDaemon(t, primary)
	startDaemon(t, bin, "ex-primary-follower",
		"-addr", pAddr, "-caps", "2",
		"-journal-dir", pdir, "-fsync", "always", "-snapshot-every", "0",
		"-follow", freeAddr(t), "-drain", "10s")
	waitFor(t, "ex-primary following", func() bool {
		resp, err := client.Get("http://" + pAddr + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return strings.Contains(string(body), "following")
	})
	if epoch := promoteHTTP(t, client, pAddr); epoch <= 2 {
		t.Fatalf("ex-primary promoted to epoch %d, want above the fencing epoch 2", epoch)
	}
	waitReady(t, pAddr)
	if _, status := trySubmit(t, client, pAddr, dag.UniformChain(1, 2, 1)); status != http.StatusCreated {
		t.Fatalf("re-promoted ex-primary refused a submission: status %d", status)
	}
}

// stopDaemon SIGTERMs a daemon and waits for it to exit.
func stopDaemon(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	_ = cmd.Process.Signal(syscall.SIGTERM)
	_ = cmd.Wait()
}

// startDaemon launches kradd with the given args, captures its logs for
// failure reporting, and registers kill-on-cleanup.
func startDaemon(t *testing.T, bin, name string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
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
			t.Logf("%s output:\n%s", name, logs.String())
		}
	})
	return cmd
}

// waitAlive waits for any HTTP response — a standby answers /healthz long
// before /readyz goes green.
func waitAlive(t *testing.T, client *http.Client, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("kradd at %s never answered /healthz", addr)
}

// repProbe is the replication slice of /healthz this harness reads.
type repProbe struct {
	Role    string `json:"role"`
	Primary *struct {
		Connected    bool  `json:"connected"`
		Reconnects   int64 `json:"reconnects"`
		LagRecords   int64 `json:"lag_records"`
		Fenced       bool  `json:"fenced"`
		LeaseExpired bool  `json:"lease_expired"`
	} `json:"primary"`
	Follower *struct {
		Epoch     int64 `json:"epoch"`
		Promoted  bool  `json:"promoted"`
		Connected bool  `json:"connected"`
		Applied   int64 `json:"applied"`
	} `json:"follower"`
}

func fetchRep(t *testing.T, client *http.Client, addr string) *repProbe {
	t.Helper()
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var payload struct {
		Stats struct {
			Replication *repProbe `json:"replication"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil
	}
	return payload.Stats.Replication
}

func waitFollowerAttached(t *testing.T, client *http.Client, fAddr string) {
	t.Helper()
	waitFor(t, "follower attached to primary stream", func() bool {
		rep := fetchRep(t, client, fAddr)
		return rep != nil && rep.Follower != nil && rep.Follower.Connected
	})
}

// waitReplicationIdle waits until the primary reports a live stream with
// zero unacknowledged records — everything committed is on the follower.
func waitReplicationIdle(t *testing.T, client *http.Client, pAddr string) {
	t.Helper()
	waitFor(t, "replication lag drains to zero", func() bool {
		rep := fetchRep(t, client, pAddr)
		return rep != nil && rep.Primary != nil && rep.Primary.Connected && rep.Primary.LagRecords == 0
	})
}

// waitApplySettled waits for the follower's applied counter to stop
// moving (the dead primary's stream has fully flushed through).
func waitApplySettled(t *testing.T, client *http.Client, fAddr string) {
	t.Helper()
	var last int64 = -1
	stable := 0
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rep := fetchRep(t, client, fAddr)
		cur := int64(-1)
		if rep != nil && rep.Follower != nil {
			cur = rep.Follower.Applied
		}
		if cur == last {
			stable++
			if stable >= 5 {
				return
			}
		} else {
			stable = 0
			last = cur
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("follower apply counter never settled after primary death")
}

// appliedAdmissions counts admit records in a shard WAL — the follower
// side of the replication-lag report.
func appliedAdmissions(t *testing.T, dir string) int64 {
	t.Helper()
	recs, err := journal.ReadFile(filepath.Join(dir, "shard-000.wal"))
	if err != nil {
		t.Fatalf("read follower journal: %v", err)
	}
	var n int64
	for _, rec := range recs {
		if rec.Type == journal.TypeAdmit || rec.Type == journal.TypeBatch {
			n += int64(len(rec.Jobs))
		}
	}
	return n
}

// replayDrainedOracle replays a copied WAL into a fresh engine (the crash
// matrix configuration) and drains it: the canonical post-failover state.
func replayDrainedOracle(t *testing.T, walPath string) *sim.Engine {
	t.Helper()
	_, recs, err := journal.Open(walPath, journal.Options{})
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
	return oracle
}

// diffJobsAgainstOracle fetches every oracle job over HTTP and fails on
// the first field-level divergence.
func diffJobsAgainstOracle(t *testing.T, client *http.Client, addr string, oracle *sim.Engine, admitted int) {
	t.Helper()
	for id := 0; id < admitted; id++ {
		want, ok := oracle.Job(id)
		if !ok {
			continue
		}
		var got statusJSON
		resp, err := client.Get(fmt.Sprintf("http://%s/v1/jobs/%d", addr, id))
		if err != nil {
			t.Fatalf("query job %d: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("job %d missing on the promoted follower: status %d", id, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.State != want.Phase.String() || got.Completion != want.Completion || got.Release != want.Release {
			t.Fatalf("job %d: promoted follower %+v, oracle %+v", id, got, want)
		}
	}
}

// promoteHTTP promotes a follower and returns its new epoch.
func promoteHTTP(t *testing.T, client *http.Client, addr string) int64 {
	t.Helper()
	resp, err := client.Post("http://"+addr+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("promote: %v: %s", err, body)
	}
	return out.Epoch
}

// submitProbe posts a trivial job and returns status plus body — the
// fencing and lease assertions need the error text, not just the code.
func submitProbe(t *testing.T, client *http.Client, addr string) (int, string) {
	t.Helper()
	payload, err := json.Marshal(workload.JobText{Graph: dag.Singleton(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func waitJobDone(t *testing.T, client *http.Client, addr string, id int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("job %d completes", id), func() bool {
		resp, err := client.Get(fmt.Sprintf("http://%s/v1/jobs/%d", addr, id))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var got statusJSON
		if json.NewDecoder(resp.Body).Decode(&got) != nil {
			return false
		}
		return got.State == sim.JobDone.String()
	})
}

// linkProxy is a single-upstream TCP proxy with three injectable faults:
// a byte budget that cuts the primary→follower direction mid-frame, a
// partition that refuses and kills connections, and heal.
type linkProxy struct {
	t      *testing.T
	ln     net.Listener
	target string

	mu     sync.Mutex
	budget int64 // remaining primary→follower bytes; < 0 means unlimited
	down   bool
	live   []net.Conn
}

func newLinkProxy(t *testing.T, target string) *linkProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &linkProxy{t: t, ln: ln, target: target, budget: -1}
	t.Cleanup(func() {
		_ = ln.Close()
		p.partition()
	})
	go p.loop()
	return p
}

func (p *linkProxy) addr() string { return p.ln.Addr().String() }

func (p *linkProxy) cutAfter(n int64) {
	p.mu.Lock()
	p.budget = n
	p.mu.Unlock()
}

// partition refuses new connections and kills live ones.
func (p *linkProxy) partition() {
	p.mu.Lock()
	p.down = true
	conns := p.live
	p.live = nil
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (p *linkProxy) heal() {
	p.mu.Lock()
	p.down = false
	p.budget = -1
	p.mu.Unlock()
}

func (p *linkProxy) loop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *linkProxy) handle(down net.Conn) {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		_ = down.Close()
		return
	}
	p.mu.Unlock()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		_ = down.Close()
		return
	}
	p.mu.Lock()
	p.live = append(p.live, down, up)
	p.mu.Unlock()
	go func() { // follower→primary (acks): never faulted directly
		_, _ = io.Copy(down, up)
		_ = down.Close()
		_ = up.Close()
	}()
	buf := make([]byte, 512)
	for {
		n, rerr := down.Read(buf)
		if n > 0 {
			cut := false
			p.mu.Lock()
			if p.budget >= 0 {
				if int64(n) >= p.budget {
					n = int(p.budget)
					cut = true
				}
				p.budget -= int64(n)
			}
			p.mu.Unlock()
			if n > 0 {
				if _, werr := up.Write(buf[:n]); werr != nil {
					break
				}
			}
			if cut {
				break // the torn frame is on the wire; kill both sides
			}
		}
		if rerr != nil {
			break
		}
	}
	_ = down.Close()
	_ = up.Close()
}
