package server

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/replicate"
	"krad/internal/sim"
)

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// refusesUntouched starts cfg over its journal directory, wants a refusal
// containing every one of want, and wants every file in the directory
// exactly as it was.
func refusesUntouched(t *testing.T, cfg Config, want ...string) {
	t.Helper()
	before := dirFiles(t, cfg.Journal.Dir)
	svc, err := New(cfg)
	if err == nil {
		drainAndClose(t, svc)
		t.Fatalf("New accepted the directory; want a refusal naming %q", want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("refusal %q does not name %q", err, w)
		}
	}
	if after := dirFiles(t, cfg.Journal.Dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused start changed the directory")
	}
}

// TestJournalRefusesOtherCaps: six jobs that completed on caps 4,4 must
// not come back active because a restart gave caps 1,1. New refuses before
// any file in the directory changes, naming the shape file, the field and
// both values; the recorded caps still restart with every job done.
func TestJournalRefusesOtherCaps(t *testing.T) {
	cfg := journaledConfig(t, 2, 4, 4)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for range 6 {
		id, err := svc.Submit(sim.JobSpec{Graph: dag.RoundRobinChain(2, 8)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for stepShard(t, svc, 0) {
	}
	drainAndClose(t, svc)

	refusesUntouched(t, journaledConfigFrom(withCaps(cfg, 1, 1)),
		journal.ShapePath(cfg.Journal.Dir), "caps", "4,4", "1,1")

	svc2, err := New(journaledConfigFrom(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer drainAndClose(t, svc2)
	for _, id := range ids {
		if st, ok := svc2.Job(id); !ok || st.Phase != sim.JobDone {
			t.Errorf("job %d after a restart on the recorded caps: %+v, want done", id, st)
		}
	}
}

// withCaps is cfg on another machine.
func withCaps(cfg Config, caps ...int) Config {
	cfg.Sim.K, cfg.Sim.Caps = len(caps), caps
	return cfg
}

// TestJournalRefusesOtherShape: every field of a recorded shape refuses a
// start that gives another value, before anything in the directory
// changes; policy (placement, stealing, the queue tree) does not.
func TestJournalRefusesOtherShape(t *testing.T) {
	base := journaledConfig(t, 2, 2, 1)
	base.Shards = 2
	base.Fairness = &fairshare.Config{HalfLife: 32}
	with := func(mut func(*Config)) Config {
		cfg := journaledConfigFrom(base)
		cfg.Fairness = &fairshare.Config{HalfLife: 32}
		mut(&cfg)
		return cfg
	}
	svc, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if _, err := svc.SubmitTenant("", fmt.Sprint("t", i%2), sim.JobSpec{Graph: dag.RoundRobinChain(2, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	drainAndClose(t, svc)
	path := journal.ShapePath(base.Journal.Dir)

	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want []string
	}{
		{"K", func(c *Config) { *c = withCaps(*c, 2) }, []string{"K differs: recorded 2, given 1"}},
		{"caps", func(c *Config) { *c = withCaps(*c, 2, 2) }, []string{"caps differs: recorded 2,1, given 2,2"}},
		{"grown", func(c *Config) { c.Shards = 3 }, []string{"shards differs: recorded 2, given 3"}},
		{"shrunk", func(c *Config) { c.Shards = 1 }, []string{"shards differs: recorded 2, given 1"}},
		{"fairness-off", func(c *Config) { c.Fairness = nil }, []string{"fairness differs: recorded on (half-life 32), given off"}},
		{"half-life", func(c *Config) { c.Fairness.HalfLife = 64 }, []string{"half-life differs: recorded 32, given 64"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusesUntouched(t, with(tc.mut), append(tc.want, path)...)
		})
	}

	policy := with(func(c *Config) {
		c.Placement = PlaceLeastLoaded
		c.Steal = true
		c.Fairness.Nodes = []fairshare.NodeConfig{{Name: "t0", Weight: 3}}
	})
	svc2, err := New(policy)
	if err != nil {
		t.Fatalf("a restart changing only policy: %v", err)
	}
	drainAndClose(t, svc2)
}

// TestJournalShapeRecording: the first start records the shape; a restart
// may turn fairness on, which re-records it, and from then on fairness
// stays on; a directory without a shape file (written before shapes were
// recorded) starts as before and gets one.
func TestJournalShapeRecording(t *testing.T) {
	cfg := journaledConfig(t, 2, 3, 1)
	dir := cfg.Journal.Dir
	requireShape := func(want journal.Shape) {
		t.Helper()
		got, err := journal.ReadShape(dir)
		if err != nil || got == nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("recorded shape %+v (%v), want %+v", got, err, want)
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(sim.JobSpec{Graph: dag.RoundRobinChain(2, 4)}); err != nil {
		t.Fatal(err)
	}
	drainAndClose(t, svc)
	requireShape(journal.Shape{Caps: []int{3, 1}, Shards: 1})

	fair := func() Config {
		c := journaledConfigFrom(cfg)
		c.Fairness = &fairshare.Config{}
		return c
	}
	svc, err = New(fair())
	if err != nil {
		t.Fatalf("turning fairness on: %v", err)
	}
	if !reflect.DeepEqual(svc.Shape(), journal.Shape{Caps: []int{3, 1}, Shards: 1, HalfLife: fairshare.DefaultHalfLife}) {
		t.Fatalf("Shape() = %+v", svc.Shape())
	}
	drainAndClose(t, svc)
	requireShape(journal.Shape{Caps: []int{3, 1}, Shards: 1, HalfLife: fairshare.DefaultHalfLife})
	refusesUntouched(t, journaledConfigFrom(cfg), "fairness differs")

	if err := os.Remove(journal.ShapePath(dir)); err != nil {
		t.Fatal(err)
	}
	svc, err = New(fair())
	if err != nil {
		t.Fatalf("a directory without a shape file: %v", err)
	}
	drainAndClose(t, svc)
	requireShape(journal.Shape{Caps: []int{3, 1}, Shards: 1, HalfLife: fairshare.DefaultHalfLife})

	if err := os.WriteFile(journal.ShapePath(dir), []byte(`{"caps":[],"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	refusesUntouched(t, fair(), journal.ShapePath(dir), "malformed")
}

// logSink collects log lines from several goroutines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) find(sub string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return line
		}
	}
	return ""
}

func (l *logSink) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// TestHelloRefusesOtherShape: a follower on other caps is refused at the
// hello by both sides — the receiver logs the primary's shape against its
// own and applies nothing, the sender hears the follower's shape and
// refuses to stream — and neither adopts the other's shape or epoch. The
// sender keeps retrying, but a refused hello backs off like a failed dial:
// its dials stay within what the backoff series allows, and it logs the
// refusal once.
func TestHelloRefusesOtherShape(t *testing.T) {
	primary := newPrimary(t, replConfig(t))
	if _, err := primary.Submit(sim.JobSpec{Graph: dag.UniformChain(1, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	fcfg := journaledConfig(t, 1, 1)
	fcfg.Follower = true
	follower := newPrimary(t, fcfg)
	var rlog, slog logSink
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := follower.Follow(replicate.ReceiverConfig{Listener: ln, Logf: rlog.logf})
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	start := time.Now()
	sender := startSender(t, primary, ln.Addr().String(), func(c *replicate.SenderConfig) {
		c.Logf = slog.logf
		c.Dial = func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", addr)
		}
	})

	const want = "caps differs: primary 2, follower 1"
	waitFor(t, "both sides to refuse the hello", func() bool {
		return rlog.find(want) != "" && slog.find(want) != ""
	})
	t.Logf("receiver: %s", rlog.find(want))
	t.Logf("sender: %s", slog.find(want))
	if st := rcv.Stats(); st.Connects != 0 || st.Applied != 0 {
		t.Errorf("receiver attached a primary of another shape: %+v", st)
	}
	if got := follower.NextSeqs(); !reflect.DeepEqual(got, []int64{1}) {
		t.Errorf("follower cursors %v, want [1]: nothing applied", got)
	}
	if got, _ := journal.ReadShape(fcfg.Journal.Dir); got == nil || !reflect.DeepEqual(got.Caps, []int{1}) {
		t.Errorf("follower's recorded shape %+v, want its own caps [1]", got)
	}
	// Give the sender time to retry: it must keep refusing, and back off.
	time.Sleep(300 * time.Millisecond)
	if sender.Stats().Connected {
		t.Error("sender reports a connected stream to a follower of another shape")
	}
	n, elapsed := dials.Load(), time.Since(start)
	// Dial i+1 comes at least half of backoff i after dial i, the backoff
	// doubling from startSender's 2 ms to its 50 ms cap.
	most := 1
	for b, at := 2*time.Millisecond, time.Millisecond; at <= elapsed; at += b / 2 {
		most++
		b = min(2*b, 50*time.Millisecond)
	}
	if n > int64(most) {
		t.Errorf("sender dialled %d times in %v; a backoff from 2 ms to 50 ms allows at most %d", n, elapsed, most)
	}
	if got := slog.count(want); got != 1 {
		t.Errorf("sender logged the refusal %d times, want once", got)
	}
}
