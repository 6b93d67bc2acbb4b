package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/replicate"
	"krad/internal/sched"
	"krad/internal/sim"
)

// replConfig is a journaled single-shard config whose scheduler can
// snapshot its state, so both ends of a replication pair can be
// checkpoint-compared bit-for-bit.
func replConfig(t *testing.T) Config {
	t.Helper()
	cfg := journaledConfig(t, 1, 2)
	cfg.NewScheduler = func() sched.Scheduler { return core.NewKRAD(1) }
	return cfg
}

// startFollower boots a standby Service plus its replication receiver on
// a loopback listener and returns the replication address a sender dials.
func startFollower(t *testing.T, cfg Config, promoteAfter time.Duration) (*Service, *replicate.Receiver, string) {
	t.Helper()
	cfg.Follower = true
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start() // held down until promotion; records intent to run
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := replicate.NewReceiver(replicate.ReceiverConfig{
		Listener:     ln,
		Applier:      svc,
		Epoch:        1,
		PromoteAfter: promoteAfter,
		OnPromote:    func(int64) { svc.Promote() },
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetPromote(rcv.Promote)
	t.Cleanup(func() {
		rcv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return svc, rcv, ln.Addr().String()
}

// newPrimary builds a primary Service over its own journal dir without
// starting its step loops: the clock stands still until Start.
func newPrimary(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return svc
}

// startPrimary boots a serving Service over its own journal dir.
func startPrimary(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc := newPrimary(t, cfg)
	svc.Start()
	return svc
}

// startSender wires a replication sender onto a primary Service: shipping
// its journals, attached as the commit hook, running with test-friendly
// timings. mut may tweak the config first.
func startSender(t *testing.T, svc *Service, addr string, mut func(*replicate.SenderConfig)) *replicate.Sender {
	t.Helper()
	cfg := replicate.SenderConfig{
		Addr:       addr,
		Epoch:      1,
		WAL:        svc.JournalPaths(),
		Heartbeat:  20 * time.Millisecond,
		MinBackoff: 2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Logf:       t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := replicate.NewSender(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetReplicator(s)
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

// waitCaughtUp blocks until the follower has applied every record the
// primary committed.
func waitCaughtUp(t *testing.T, primary, follower *Service) {
	t.Helper()
	waitFor(t, "follower catch-up", func() bool {
		return reflect.DeepEqual(primary.NextSeqs(), follower.NextSeqs())
	})
}

// engineCheckpoint snapshots one shard's engine; both ends of a healthy
// pair must produce identical checkpoints once drained and caught up —
// the in-process form of the failover matrix's bit-identity assertion.
func engineCheckpoint(t *testing.T, svc *Service, shard int) sim.EngineCheckpoint {
	t.Helper()
	sh := svc.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cp, err := sh.eng.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint shard %d: %v", shard, err)
	}
	return cp
}

func requireIdentical(t *testing.T, primary, follower *Service) {
	t.Helper()
	for i := range primary.shards {
		pc := engineCheckpoint(t, primary, i)
		fc := engineCheckpoint(t, follower, i)
		if !reflect.DeepEqual(pc, fc) {
			t.Fatalf("shard %d: follower checkpoint diverges\nprimary:  %+v\nfollower: %+v", i, pc, fc)
		}
	}
}

// requireJournalPrefix asserts the follower's WAL is a byte prefix of the
// primary's: the follower journals exactly the primary's records, in the
// primary's encoding and order.
func requireJournalPrefix(t *testing.T, pdir, fdir string) {
	t.Helper()
	pb, err := os.ReadFile(shardJournalPath(pdir, 0))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(shardJournalPath(fdir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) == 0 {
		t.Fatal("follower journal is empty")
	}
	if !bytes.HasPrefix(pb, fb) {
		t.Fatalf("follower journal (%d bytes) is not a byte prefix of the primary's (%d bytes)", len(fb), len(pb))
	}
}

// TestReplicationBitIdentity streams a live workload — admissions, steps
// and a cancellation — from a primary to a warm standby over real TCP and
// asserts the follower's engine and journal track the primary exactly.
func TestReplicationBitIdentity(t *testing.T) {
	fcfg := replConfig(t)
	fdir := fcfg.Journal.Dir
	follower, _, addr := startFollower(t, fcfg, 0)

	pcfg := replConfig(t)
	pdir := pcfg.Journal.Dir
	// The primary's step loop starts only after the cancel below: a running
	// loop that drains the short jobs fast-forwards the idle engine to the
	// victim's release and completes it before the test can cancel it.
	primary := newPrimary(t, pcfg)
	startSender(t, primary, addr, nil)

	var ids []int
	for i := 0; i < 8; i++ {
		id, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 1+i%3, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A far-future job, cancelled while still pending, puts a cancel record
	// on the stream.
	victim, err := primary.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1), Release: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	primary.Start()
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 8 })
	waitCaughtUp(t, primary, follower)

	requireIdentical(t, primary, follower)
	requireJournalPrefix(t, pdir, fdir)
	for _, id := range append(ids, victim) {
		want, ok := primary.Job(id)
		if !ok {
			t.Fatalf("job %d missing on primary", id)
		}
		got, ok := follower.Job(id)
		if !ok {
			t.Fatalf("job %d missing on follower", id)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: follower %+v, primary %+v", id, got, want)
		}
	}
	if fs := follower.Stats(); fs.Cancelled != 1 || fs.Submitted != 9 {
		t.Fatalf("follower counters %+v, want 9 submitted / 1 cancelled", fs)
	}
}

// TestReplicationMidFrameCutResumes kills the replication link part-way
// through a frame (a torn frame on the wire) and asserts the sender
// reconnects with backoff, the follower discards the torn tail, and the
// stream resumes to bit-identity — no record lost, none applied twice.
func TestReplicationMidFrameCutResumes(t *testing.T) {
	fcfg := replConfig(t)
	fdir := fcfg.Journal.Dir
	follower, _, addr := startFollower(t, fcfg, 0)

	pcfg := replConfig(t)
	pdir := pcfg.Journal.Dir
	primary := startPrimary(t, pcfg)
	sender := startSender(t, primary, addr, func(c *replicate.SenderConfig) {
		dial := func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
		c.Dial = replicate.FaultDialer(dial, func(attempt int) int64 {
			// The handshake costs ~60 bytes; each budget lands the cut in
			// the middle of a later record frame.
			switch attempt {
			case 0:
				return 300
			case 1:
				return 700
			default:
				return -1
			}
		})
	})

	for i := 0; i < 12; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 1+i%4, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 12 })
	waitCaughtUp(t, primary, follower)

	if st := sender.Stats(); st.Reconnects < 1 {
		t.Fatalf("sender stats %+v: the faulted link should have forced at least one reconnect", st)
	}
	requireIdentical(t, primary, follower)
	requireJournalPrefix(t, pdir, fdir)
}

// TestReplicationCatchUpFromOffset attaches a fresh follower to a primary
// that has been running alone: every record it needs predates the sender,
// so the stream must come out of the primary's WAL from its start, then
// keep following it as new work lands.
func TestReplicationCatchUpFromOffset(t *testing.T) {
	pcfg := replConfig(t)
	pdir := pcfg.Journal.Dir
	primary := startPrimary(t, pcfg)
	for i := 0; i < 6; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 2, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 6 })

	fcfg := replConfig(t)
	fdir := fcfg.Journal.Dir
	follower, _, addr := startFollower(t, fcfg, 0)
	startSender(t, primary, addr, nil)
	waitCaughtUp(t, primary, follower)
	requireIdentical(t, primary, follower)
	requireJournalPrefix(t, pdir, fdir)

	// Live tail after catch-up: new work is read as it lands.
	for i := 0; i < 4; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 10 })
	waitCaughtUp(t, primary, follower)
	requireIdentical(t, primary, follower)
}

// TestReplicationCatchUpFromSnapshot compacts the primary's journal
// before any follower exists: catch-up must open with a snapshot frame
// (cursor-stamped), reset the follower's shard wholesale, and stream the
// tail after it.
func TestReplicationCatchUpFromSnapshot(t *testing.T) {
	pcfg := replConfig(t)
	pcfg.Journal.SnapshotEvery = 4
	primary := startPrimary(t, pcfg)
	for i := 0; i < 8; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 2, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 8 })
	waitFor(t, "compaction", func() bool { return primary.Stats().Journal.Compactions >= 1 })

	fcfg := replConfig(t)
	follower, rcv, addr := startFollower(t, fcfg, 0)
	startSender(t, primary, addr, nil)
	waitCaughtUp(t, primary, follower)
	// The receiver counts a frame after applying it, and a snapshot that
	// covers the whole journal is the frame that completes the catch-up: the
	// counter may trail the sequence numbers by a moment.
	waitFor(t, "snapshot frame", func() bool { return rcv.Stats().Snaps >= 1 })
	requireIdentical(t, primary, follower)

	// The follower keeps tracking live work after the snapshot reset.
	for i := 0; i < 3; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 11 })
	waitCaughtUp(t, primary, follower)
	requireIdentical(t, primary, follower)
}

// TestPromotionFencesPrimary promotes the follower while the primary is
// alive and asserts both sides of the epoch fence: the deposed primary
// refuses admissions with a located sticky error, and the promoted
// follower starts serving — step loops running, /readyz semantics green.
func TestPromotionFencesPrimary(t *testing.T) {
	fcfg := replConfig(t)
	follower, rcv, addr := startFollower(t, fcfg, 0)

	pcfg := replConfig(t)
	primary := startPrimary(t, pcfg)
	sender := startSender(t, primary, addr, nil)

	for i := 0; i < 4; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 2, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 4 })
	waitCaughtUp(t, primary, follower)
	if ready, why := follower.Ready(); ready {
		t.Fatalf("standby reports ready before promotion (%q)", why)
	}

	if epoch := rcv.Promote(); epoch != 2 {
		t.Fatalf("promotion produced epoch %d, want 2", epoch)
	}
	if follower.Following() {
		t.Fatal("promoted follower still reports following")
	}
	if ready, why := follower.Ready(); !ready {
		t.Fatalf("promoted follower not ready: %s", why)
	}

	// The fence frame races the sender's next read; wait for the latch.
	waitFor(t, "primary fenced", func() bool {
		return errors.Is(sender.WriteAllowed(), replicate.ErrFenced)
	})
	if _, err := primary.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); !errors.Is(err, replicate.ErrFenced) {
		t.Fatalf("deposed primary accepted a submission (err %v), want ErrFenced", err)
	}
	if err := primary.Cancel(0); !errors.Is(err, replicate.ErrFenced) {
		t.Fatalf("deposed primary accepted a cancel (err %v), want ErrFenced", err)
	}

	// The promoted follower serves: admissions flow and its clock moves.
	id, err := follower.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 2, 1)})
	if err != nil {
		t.Fatalf("promoted follower refused a submission: %v", err)
	}
	waitFor(t, "promoted follower completes work", func() bool {
		st, ok := follower.Job(id)
		return ok && st.Phase == sim.JobDone
	})
	// Promotion is idempotent and sticky.
	if epoch := rcv.Promote(); epoch != 2 {
		t.Fatalf("re-promotion moved the epoch to %d", epoch)
	}
}

// TestReplicationLeaseExpiryHeals gates the primary's admissions on
// follower liveness: killing the follower expires the lease (admissions
// refuse with ErrLeaseExpired), restarting it at the same address heals
// the lease and the stream resumes to bit-identity.
func TestReplicationLeaseExpiryHeals(t *testing.T) {
	fcfg := replConfig(t)
	follower, rcv, addr := startFollower(t, fcfg, 0)

	pcfg := replConfig(t)
	primary := startPrimary(t, pcfg)
	sender := startSender(t, primary, addr, func(c *replicate.SenderConfig) {
		c.Lease = 150 * time.Millisecond
	})

	if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 1 })
	waitCaughtUp(t, primary, follower)

	// Follower dies (listener and stream): acks stop, the lease blows.
	rcv.Close()
	waitFor(t, "lease expiry", func() bool {
		return errors.Is(sender.WriteAllowed(), replicate.ErrLeaseExpired)
	})
	if _, err := primary.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); !errors.Is(err, replicate.ErrLeaseExpired) {
		t.Fatalf("primary accepted a submission with the lease blown (err %v)", err)
	}

	// Heal: a receiver returns at the same address over the same follower
	// state. Acks resume, the gate lifts on its own (unlike a fence).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rcv2, err := replicate.NewReceiver(replicate.ReceiverConfig{
		Listener: ln,
		Applier:  follower,
		Epoch:    1,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rcv2.Close)
	waitFor(t, "lease heal", func() bool { return sender.WriteAllowed() == nil })

	for i := 0; i < 3; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 4 })
	waitCaughtUp(t, primary, follower)
	requireIdentical(t, primary, follower)
}

// TestReplicationMetricsExposition checks the krad_replicate_* families
// on both ends of a live pair in scrape format: the primary exports
// epoch, connectivity, lag and reconnect counters; the follower its
// applied and promotion state. The same data rides Stats as the
// role-tagged replication slice.
func TestReplicationMetricsExposition(t *testing.T) {
	fcfg := replConfig(t)
	follower, rcv, addr := startFollower(t, fcfg, 0)
	follower.SetReplicationStats(func() *ReplicationStats {
		st := rcv.Stats()
		return &ReplicationStats{Role: "follower", Follower: &st}
	})

	pcfg := replConfig(t)
	primary := startPrimary(t, pcfg)
	sender := startSender(t, primary, addr, nil)
	primary.SetReplicationStats(func() *ReplicationStats {
		st := sender.Stats()
		return &ReplicationStats{Role: "primary", Primary: &st}
	})

	for i := 0; i < 3; i++ {
		if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 2, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary drain", func() bool { return primary.Stats().Completed == 3 })
	waitCaughtUp(t, primary, follower)
	waitFor(t, "acks drain the lag", func() bool { return sender.Stats().LagRecords == 0 })

	scrape := func(svc *Service) string {
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	ptext := scrape(primary)
	for _, want := range []string{
		"# TYPE krad_replicate_epoch gauge",
		"krad_replicate_epoch 1",
		"krad_replicate_connected 1",
		"krad_replicate_lag_records 0",
		"# TYPE krad_replicate_reconnects_total counter",
		"krad_replicate_fenced 0",
	} {
		if !strings.Contains(ptext, want) {
			t.Errorf("primary /metrics missing %q", want)
		}
	}
	ftext := scrape(follower)
	for _, want := range []string{
		"krad_replicate_epoch 1",
		"krad_replicate_connected 1",
		"# TYPE krad_replicate_reconnects_total counter",
		"# TYPE krad_replicate_applied_total counter",
		"krad_replicate_promoted 0",
	} {
		if !strings.Contains(ftext, want) {
			t.Errorf("follower /metrics missing %q", want)
		}
	}
	if rs := primary.Stats().Replication; rs == nil || rs.Role != "primary" || rs.Primary == nil {
		t.Errorf("primary Stats().Replication = %+v, want a primary-role slice", rs)
	}
	if rs := follower.Stats().Replication; rs == nil || rs.Role != "follower" || rs.Follower == nil {
		t.Errorf("follower Stats().Replication = %+v, want a follower-role slice", rs)
	}
}

// TestFollowerRefusesWrites pins the standby's read-only contract at the
// Service layer: submissions, and cancels of the jobs it replicated,
// refuse with ErrFollower until promotion.
func TestFollowerRefusesWrites(t *testing.T) {
	cfg := replConfig(t)
	cfg.Follower = true
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc)
	rec, err := journal.AdmitRecord(0, []sim.JobSpec{{Graph: dag.Singleton(1, 1), Release: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ApplyReplicated(0, 1, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); !errors.Is(err, ErrFollower) {
		t.Fatalf("standby accepted a submission (err %v), want ErrFollower", err)
	}
	if err := svc.Cancel(0); !errors.Is(err, ErrFollower) {
		t.Fatalf("standby accepted a cancel (err %v), want ErrFollower", err)
	}
	svc.Promote()
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.Singleton(1, 1)}); err != nil {
		t.Fatalf("promoted service refused a submission: %v", err)
	}
}

// TestFollowerCancelUnknownID: a standby answers Cancel of an ID that
// names no job with "no job", as DELETE answers it 404, before its role
// can refuse anything.
func TestFollowerCancelUnknownID(t *testing.T) {
	cfg := replConfig(t)
	cfg.Follower = true
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc)
	if err := svc.Cancel(7); err == nil || errors.Is(err, ErrFollower) || !strings.Contains(err.Error(), "no job 7") {
		t.Fatalf("standby Cancel of an unknown ID: %v, want no job 7", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/7", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("standby DELETE of an unknown ID: %d, want 404", resp.StatusCode)
	}
}
