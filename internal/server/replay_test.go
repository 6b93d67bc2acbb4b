package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/sched"
	"krad/internal/sim"
)

// fourShardJournal writes the journals of a 4-shard fleet whose shard 2
// holds n admission records and every other shard three, and returns the
// config that wrote them.
func fourShardJournal(t *testing.T, n int) Config {
	t.Helper()
	cfg := journaledConfig(t, 1, 1)
	cfg.Shards = 4
	cfg.NewScheduler = func() sched.Scheduler { return core.NewKRAD(1) }
	cfg.MaxInFlight = 4 * n
	cfg.Journal.Sync = journal.SyncNever
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range svc.shards {
		if i == 2 {
			submitBurst(t, svc, i, n, 1, 0)
		} else {
			submitBurst(t, svc, i, 3, 1, 0)
		}
	}
	drainlessClose(t, svc)
	return cfg
}

// plantFrame inserts payload, framed under a valid CRC, before record at of
// the WAL at path, and returns the frame's offset.
func plantFrame(t *testing.T, path string, at int, payload []byte) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len("KRADWAL\x01")
	for i := 0; i < at; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	var out bytes.Buffer
	out.Write(data[:off])
	out.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
	out.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
	out.Write(payload)
	out.Write(data[off:])
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(off)
}

// closeCounter counts the Close calls of a journal file.
type closeCounter struct {
	journal.File
	closes *atomic.Int32
}

func (c closeCounter) Close() error {
	c.closes.Add(1)
	return c.File.Close()
}

// TestFailedStartClosesJournals: when shard 2 of 4 cannot replay, New
// closes every journal it opened — shards 0 and 1, which replayed before
// it — and leaves the failing shard's file and the unread shard 3's as it
// found them, torn tails included.
func TestFailedStartClosesJournals(t *testing.T) {
	cfg := fourShardJournal(t, 3)
	plantFrame(t, shardJournalPath(cfg.Journal.Dir, 2), 1, []byte("not a record"))
	var before [][]byte
	for i := 2; i < 4; i++ {
		path := shardJournalPath(cfg.Journal.Dir, i)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{9, 0, 0, 0, 1}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, b)
	}
	var opens, closes atomic.Int32
	rcfg := journaledConfigFrom(cfg)
	rcfg.Journal.OpenAppend = func(path string) (journal.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		opens.Add(1)
		return closeCounter{f, &closes}, nil
	}
	if _, err := New(rcfg); err == nil || !strings.HasPrefix(err.Error(), "server: shard 2: ") {
		t.Fatalf("New over a broken shard 2: %v", err)
	}
	if o, c := opens.Load(), closes.Load(); o != 2 || c != o {
		t.Fatalf("the failed start opened %d journals and closed %d, want 2 and 2", o, c)
	}
	for k, want := range before {
		if got, err := os.ReadFile(shardJournalPath(cfg.Journal.Dir, 2+k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the failed start changed shard %d's journal: %d bytes, were %d (%v)", 2+k, len(got), len(want), err)
		}
	}
}

// hookCalls counts the calls New makes into a fleet's NewScheduler
// schedulers and OpenAppend files, without a lock: under -race the test
// below fails if two of them ever run at once.
type hookCalls struct {
	n   int
	off bool // set before Close, which closes the shards concurrently
}

type countedScheduler struct {
	sched.Scheduler
	c *hookCalls
}

func (s countedScheduler) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	s.c.n++
	return s.Scheduler.Allot(t, jobs, caps)
}

type countedFile struct {
	journal.File
	c *hookCalls
}

func (f countedFile) Write(p []byte) (int, error) {
	if !f.c.off {
		f.c.n++
	}
	return f.File.Write(p)
}

func (f countedFile) Sync() error {
	if !f.c.off {
		f.c.n++
	}
	return f.File.Sync()
}

// TestStartupDrivesHooksOnOneGoroutine: New calls a fleet's schedulers and
// journal files from the caller's goroutine only — the fresh journals'
// headers as they are written, and the
// scheduler as a restart replays steps — so a caller may share state
// between shards' hooks without a lock.
func TestStartupDrivesHooksOnOneGoroutine(t *testing.T) {
	calls := &hookCalls{}
	cfg := journaledConfig(t, 1, 2)
	cfg.Shards = 4
	cfg.Fairness = &fairshare.Config{}
	cfg.NewScheduler = func() sched.Scheduler { return countedScheduler{core.NewKRAD(1), calls} }
	cfg.Journal.Sync = journal.SyncAlways
	cfg.Journal.OpenAppend = func(path string) (journal.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return countedFile{f, calls}, nil
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range svc.shards {
		submitBurst(t, svc, i, 5, 3, 0)
	}
	if _, err := svc.StepAll(2); err != nil {
		t.Fatal(err)
	}
	calls.off = true
	drainlessClose(t, svc)
	calls.n, calls.off = 0, false
	cfg.Journal = &JournalConfig{Dir: cfg.Journal.Dir, Sync: journal.SyncAlways, OpenAppend: cfg.Journal.OpenAppend}
	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls.n == 0 {
		t.Fatal("the restart replayed no step through the schedulers")
	}
	calls.off = true
	drainlessClose(t, again)
}

// TestStreamedReplayErrorsLocated plants in shard 2 of 4, past the first
// decoded chunk, a CRC-valid record that does not decode, and apart from
// that a snapshot that is not the journal's head. The records before it
// are applied before it is met, yet New fails as it did when a journal was
// decoded whole before replay: ErrCorrupt, naming the same file, offset
// and record.
func TestStreamedReplayErrorsLocated(t *testing.T) {
	snap, err := journal.AppendRecord(nil, journal.Record{Type: journal.TypeSnap, Snap: &sim.EngineCheckpoint{}})
	if err != nil {
		t.Fatal(err)
	}
	const at = 300
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string // formatted with the path and the offset
	}{
		{"undecodable", []byte("not a record"), "server: shard 2: journal: %s: journal: corrupt record: offset %d (record 300): journal: decode record: "},
		{"snapshot past the head", snap, "server: shard 2: journal: %s: journal: corrupt record: offset %d: snapshot record 300 is not at the journal head"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fourShardJournal(t, at+20)
			path := shardJournalPath(cfg.Journal.Dir, 2)
			off := plantFrame(t, path, at, tc.payload)
			_, err := New(journaledConfigFrom(cfg))
			want := fmt.Sprintf(tc.want, path, off)
			if !errors.Is(err, journal.ErrCorrupt) || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("New: %v\nwant ErrCorrupt starting %q", err, want)
			}
		})
	}
}

// processLocal are the /metrics series a restart starts afresh by design,
// as comparableStats strips them from Stats.
var processLocal = []string{"krad_steps_total", "krad_shard_steps_total", "krad_jobs_rejected_total", "krad_shard_jobs_rejected_total", "krad_journal_", "krad_tenant_admitted_total", "krad_tenant_shed_total"}

// metricsBody renders svc's /metrics; durable drops the processLocal series.
func metricsBody(t *testing.T, svc *Service, durable bool) string {
	t.Helper()
	var b strings.Builder
	if err := svc.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !durable {
		return b.String()
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		keep := true
		for _, p := range processLocal {
			keep = keep && !strings.HasPrefix(line, p)
		}
		if keep {
			out.WriteString(line)
		}
	}
	return out.String()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamedReplayDeterministic restarts a 4-shard fair-share fleet
// with stealing 20 times over the same journals, each file decoded ahead
// of its replay on another goroutine; among the steals is one whose thief
// half was written first. Stats, /metrics and the snapshots a forced
// compaction writes, fair and steal sub-values included, are the same
// bytes on every restart and match the service that wrote the journals.
func TestStreamedReplayDeterministic(t *testing.T) {
	mk := func(dir string) Config {
		cfg := stealConfig(4, 1, 1)
		cfg.Placement = PlaceHash
		cfg.MaxInFlight = 400
		cfg.Fairness = &fairshare.Config{HalfLife: 16, Nodes: []fairshare.NodeConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}, {Name: "c", Weight: 1}}}
		cfg.Journal = &JournalConfig{Dir: dir, SnapshotEvery: 1, Sync: journal.SyncNever}
		return cfg
	}
	dir := t.TempDir()
	svc, err := New(mk(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Shard 3 steals off shard 0, and shard 0's half is lost: the restart
	// finds the thief's half alone and journals the victim's after it.
	for i := 0; i < 6; i++ {
		if _, err := svc.shards[0].submitBatch("c", []sim.JobSpec{{Graph: dag.UniformChain(1, 2, 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	victimWAL := shardJournalPath(dir, 0)
	preSteal, err := os.ReadFile(victimWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.stealFor(svc.shards[3]) {
		t.Fatal("steal moved nothing")
	}
	drainlessClose(t, svc)
	if err := os.WriteFile(victimWAL, preSteal, 0o644); err != nil {
		t.Fatal(err)
	}
	if svc, err = New(mk(dir)); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(victimWAL); err != nil || len(now) <= len(preSteal) {
		t.Fatalf("the restart journaled no victim half (%d bytes, were %d; %v)", len(now), len(preSteal), err)
	}
	for i := 0; i < 48; i++ {
		spec := sim.JobSpec{Graph: dag.UniformChain(1, 1+i%3, 1), Release: svc.Stats().Now + int64(i%4)}
		id, err := svc.SubmitTenant(fmt.Sprintf("k%d", i%7), []string{"a", "b", "c", ""}[i%4], spec)
		if err != nil {
			t.Fatal(err)
		}
		if i%9 == 8 {
			_ = svc.Cancel(id)
		}
		if i%6 == 5 {
			for _, sh := range svc.shards {
				sh.stealFn()
			}
			if _, err := svc.StepAll(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if svc.Stats().InFlight == 0 {
		t.Fatal("the script left nothing in flight")
	}

	// What every restart must reproduce, taken from the writer: its durable
	// state now, and the snapshots it compacts to once drained.
	wantStats, wantMetrics := mustJSON(t, comparableStats(svc)), metricsBody(t, svc, true)
	pristine := t.TempDir()
	for i := range svc.shards {
		copyFile(t, shardJournalPath(dir, i), shardJournalPath(pristine, i))
	}
	snapshots := func(svc *Service, dir string) [][]byte {
		t.Helper()
		drainManually(t, svc)
		var out [][]byte
		for i, sh := range svc.shards {
			sh.maybeCompact()
			b, err := os.ReadFile(shardJournalPath(dir, i))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		if n := svc.Stats().Journal.Compactions; n != int64(len(svc.shards)) {
			t.Fatalf("%d of %d shards compacted", n, len(svc.shards))
		}
		return out
	}
	wantSnaps := snapshots(svc, dir)
	drainlessClose(t, svc)

	var firstStats []byte
	var firstMetrics string
	for run := 0; run < 20; run++ {
		to := t.TempDir()
		for i := range wantSnaps {
			copyFile(t, shardJournalPath(pristine, i), shardJournalPath(to, i))
		}
		again, err := New(mk(to))
		if err != nil {
			t.Fatalf("restart %d: %v", run, err)
		}
		st := again.Stats()
		st.Journal.Dir = "" // a directory of its own per restart
		stats, metrics := mustJSON(t, st), metricsBody(t, again, false)
		if run == 0 {
			firstStats, firstMetrics = stats, metrics
		} else if !bytes.Equal(stats, firstStats) || metrics != firstMetrics {
			t.Fatalf("restart %d differs from restart 0\nStats %s\nwant  %s\n/metrics\n%s\nwant\n%s", run, stats, firstStats, metrics, firstMetrics)
		}
		if got := mustJSON(t, comparableStats(again)); !bytes.Equal(got, wantStats) {
			t.Fatalf("restart %d: Stats %s, the writer's %s", run, got, wantStats)
		}
		if got := metricsBody(t, again, true); got != wantMetrics {
			t.Fatalf("restart %d: durable /metrics\n%s\nthe writer's\n%s", run, got, wantMetrics)
		}
		for i, snap := range snapshots(again, to) {
			if !bytes.Equal(snap, wantSnaps[i]) {
				t.Fatalf("restart %d: shard %d compacts to\n%q\nthe writer to\n%q", run, i, snap, wantSnaps[i])
			}
		}
		drainlessClose(t, again)
	}
}
