package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sim"
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "shard-000.wal")
}

func mustOpen(t *testing.T, path string, opts Options) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func mustAppend(t *testing.T, j *Journal, rec Record) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
}

// testRecords is a representative mutation sequence: a single admit, a
// batch, steps, and a cancel.
func testRecords(t testing.TB) []Record {
	t.Helper()
	admit, err := AdmitRecord(0, []sim.JobSpec{{Graph: dag.UniformChain(1, 3, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := AdmitRecord(1, []sim.JobSpec{
		{Graph: dag.UniformChain(1, 2, 1)},
		{Graph: dag.UniformChain(1, 4, 1), Release: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []Record{
		admit,
		StepsRecord(1, 1),
		batch,
		StepsRecord(1, 2),
		CancelRecord(2),
		StepsRecord(1, 3),
	}
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.Base != w.Base || g.ID != w.ID || g.Now != w.Now || len(g.Jobs) != len(w.Jobs) {
			t.Fatalf("record %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := tempJournal(t)
	j, recs := mustOpen(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	want := testRecords(t)
	for _, r := range want {
		mustAppend(t, j, r)
	}
	if st := j.Stats(); st.Records != int64(len(want)) || st.Appended != int64(len(want)) || st.Failed != "" {
		t.Fatalf("stats %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recovered := mustOpen(t, path, Options{})
	defer j2.Close()
	recordsEqual(t, recovered, want)
	if g := recovered[2].Jobs[1].Graph; g.NumTasks() != 4 {
		t.Fatalf("batch graph came back with %d tasks, want 4", g.NumTasks())
	}
}

// TestTornTailEveryPrefix crashes the journal after every possible prefix
// length and asserts the exact recovered-record count: all records whose
// frames fit the prefix entirely, never more (phantoms) or fewer
// (forgotten acknowledgements).
func TestTornTailEveryPrefix(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})
	want := testRecords(t)
	// ends[i] is the file size after record i was appended.
	ends := make([]int64, len(want))
	for i, r := range want {
		mustAppend(t, j, r)
		ends[i] = j.Stats().SizeBytes
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		prefix := filepath.Join(t.TempDir(), "prefix.wal")
		if err := os.WriteFile(prefix, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := Open(prefix, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		wantN := 0
		for _, e := range ends {
			if e <= int64(cut) {
				wantN++
			}
		}
		if len(recs) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantN)
		}
		recordsEqual(t, recs, want[:wantN])
		// The repaired journal must accept appends and survive a reopen.
		mustAppend(t, j2, StepsRecord(1, 99))
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		_, again, err := Open(prefix, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen after repair: %v", cut, err)
		}
		if len(again) != wantN+1 {
			t.Fatalf("cut %d: reopen recovered %d records, want %d", cut, len(again), wantN+1)
		}
	}
}

func TestZeroFillTailTruncates(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})
	want := testRecords(t)[:2]
	for _, r := range want {
		mustAppend(t, j, r)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	recordsEqual(t, recs, want)
}

func TestCorruptInteriorRecordFails(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})
	for _, r := range testRecords(t) {
		mustAppend(t, j, r)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the middle of the file.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open corrupt journal: err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptFinalRecordTruncates(t *testing.T) {
	// Damage confined to the last record is indistinguishable from a torn
	// append, so it must truncate, not fail.
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})
	want := testRecords(t)
	for _, r := range want {
		mustAppend(t, j, r)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs := mustOpen(t, path, Options{})
	defer j2.Close()
	recordsEqual(t, recs, want[:len(want)-1])
}

func TestVersionMismatch(t *testing.T) {
	path := tempJournal(t)
	if err := os.WriteFile(path, []byte("KRADWAL\x02morebytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, Options{})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestCompactRewritesToSnapshot(t *testing.T) {
	cfg := sim.Config{K: 1, Caps: []int{2}, Scheduler: core.NewKRAD(1), ValidateAllotments: true}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})
	// Drive the engine and journal every mutation, the way a shard does.
	specs := []sim.JobSpec{{Graph: dag.UniformChain(1, 3, 1)}, {Graph: dag.UniformChain(1, 5, 1)}}
	for i, s := range specs {
		if _, err := eng.Admit(s); err != nil {
			t.Fatal(err)
		}
		rec, err := AdmitRecord(i, []sim.JobSpec{s})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, rec)
	}
	for !eng.Idle() {
		info, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, StepsRecord(1, info.Step))
	}

	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(Record{Type: TypeSnap, Snap: &cp}); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 1 || st.Compactions != 1 {
		t.Fatalf("post-compact stats %+v", st)
	}
	// Appends continue into the compacted file.
	mustAppend(t, j, StepsRecord(1, cp.Now+1))
	j.Close()

	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != TypeSnap || recs[1].Type != TypeStep {
		t.Fatalf("compacted journal holds %+v", recs)
	}

	// The snapshot must restore to the same state the engine had.
	fresh, err := sim.NewEngine(sim.Config{K: 1, Caps: []int{2}, Scheduler: core.NewKRAD(1), ValidateAllotments: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(*recs[0].Snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Now() != eng.Now() {
		t.Fatalf("restored clock %d, want %d", fresh.Now(), eng.Now())
	}
	for id := 0; id < 2; id++ {
		a, _ := eng.Job(id)
		b, ok := fresh.Job(id)
		if !ok || a.Completion != b.Completion || a.Phase != b.Phase {
			t.Fatalf("job %d: original %+v, restored %+v (ok=%v)", id, a, b, ok)
		}
	}
}

func TestSnapshotNotAtHeadRejected(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})
	mustAppend(t, j, StepsRecord(1, 1))
	cp := sim.EngineCheckpoint{Now: 1}
	mustAppend(t, j, Record{Type: TypeSnap, Snap: &cp})
	j.Close()
	_, _, err := Open(path, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt (snapshot mid-file)", err)
	}
}

func TestReplayRebuildsEngineExactly(t *testing.T) {
	newCfg := func() sim.Config {
		return sim.Config{K: 2, Caps: []int{2, 1}, Scheduler: core.NewKRAD(2), Seed: 42, ValidateAllotments: true}
	}
	eng, err := sim.NewEngine(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})

	specs := []sim.JobSpec{
		{Graph: dag.RoundRobinChain(2, 6)},
		{Graph: dag.UniformChain(2, 4, 2)},
		{Graph: dag.UniformChain(2, 5, 1)},
	}
	ids, err := eng.AdmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AdmitRecord(ids[0], specs)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec)
	for i := 0; i < 3; i++ {
		info, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, StepsRecord(1, info.Step))
	}
	if err := eng.Cancel(1); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, CancelRecord(1))
	for !eng.Idle() {
		info, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, StepsRecord(1, info.Step))
	}
	j.Close()

	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sim.NewEngine(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(replayed, recs); err != nil {
		t.Fatal(err)
	}
	if replayed.Now() != eng.Now() {
		t.Fatalf("replayed clock %d, want %d", replayed.Now(), eng.Now())
	}
	a, b := eng.Snapshot(), replayed.Snapshot()
	if a.Completed != b.Completed || a.Cancelled != b.Cancelled || a.Makespan != b.Makespan {
		t.Fatalf("snapshots diverge: original %+v, replayed %+v", a, b)
	}
	for id := range specs {
		x, _ := eng.Job(id)
		y, _ := replayed.Job(id)
		if x.Phase != y.Phase || x.Completion != y.Completion {
			t.Fatalf("job %d diverged: original %+v, replayed %+v", id, x, y)
		}
	}
}

func TestReplayDetectsMismatch(t *testing.T) {
	newEngine := func() *sim.Engine {
		eng, err := sim.NewEngine(sim.Config{K: 1, Caps: []int{2}, Scheduler: core.NewKRAD(1), ValidateAllotments: true})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	spec := sim.JobSpec{Graph: dag.UniformChain(1, 3, 1)}
	writer := newEngine()
	if _, err := writer.Admit(spec); err != nil {
		t.Fatal(err)
	}
	admit, err := AdmitRecord(0, []sim.JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{admit}
	for !writer.Idle() {
		info, err := writer.Step()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, StepsRecord(1, info.Step))
	}

	t.Run("id skew", func(t *testing.T) {
		// An engine that already holds state re-assigns different IDs; the
		// base cross-check must fail before any state corrupts further.
		eng := newEngine()
		if _, err := eng.Admit(spec); err != nil {
			t.Fatal(err)
		}
		if err := Replay(eng, recs); err == nil {
			t.Fatal("replay onto a non-fresh engine succeeded")
		}
	})
	t.Run("step time skew", func(t *testing.T) {
		tampered := append([]Record(nil), recs...)
		tampered[1].Now += 17
		if err := Replay(newEngine(), tampered); err == nil {
			t.Fatal("replay with a divergent step clock succeeded")
		}
	})
	t.Run("step past idle", func(t *testing.T) {
		extended := append(append([]Record(nil), recs...), StepsRecord(1, 999))
		if err := Replay(newEngine(), extended); err == nil {
			t.Fatal("replay stepping an idle engine succeeded")
		}
	})
}

func TestSyncIntervalThrottles(t *testing.T) {
	path := tempJournal(t)
	syncs := 0
	opts := Options{
		Sync:     SyncInterval,
		Interval: time.Hour,
		OpenAppend: func(p string) (File, error) {
			f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			return &countingFile{File: f, syncs: &syncs}, nil
		},
	}
	j, _ := mustOpen(t, path, opts)
	for i := 0; i < 10; i++ {
		mustAppend(t, j, StepsRecord(1, int64(i+1)))
	}
	// First append syncs (lastSync is zero), the rest fall inside the
	// hour-long interval.
	if syncs != 1 {
		t.Fatalf("synced %d times, want 1", syncs)
	}
	j.Close()
}

type countingFile struct {
	File
	syncs *int
}

func (c *countingFile) Sync() error {
	*c.syncs++
	return c.File.Sync()
}
