package journal

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sim"
)

func rigidEngine(t *testing.T) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{
		K: 2, Caps: []int{4, 4}, Scheduler: core.NewKRAD(2), Pick: dag.PickFIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRigidJournalRoundTrip mirrors the moldable round-trip contract for
// rigid jobs: a mixed rigid+graph batch journaled to disk, reopened and
// replayed must rebuild the engine bit-identically, with the "profile"
// family tag and the rigid spec payload surviving the byte domain.
func TestRigidJournalRoundTrip(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})

	live := rigidEngine(t)
	specs := []sim.JobSpec{
		{Source: profile.MustNewRigid(2, "r0", 1, 3, 2)},
		{Graph: dag.UniformChain(2, 3, 1)},
		{Source: profile.MustNewRigid(2, "r1", 2, 2, 4), Release: 3},
	}
	ids, err := live.AdmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AdmitRecord(ids[0], specs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.V != csrVersion {
		t.Fatalf("rigid batch record version %d, want %d", rec.V, csrVersion)
	}
	mustAppend(t, j, rec)
	for live.Remaining() > 0 {
		info, err := live.StepN(5)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, StepsRecord(info.Steps, info.Step))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recovered := mustOpen(t, path, Options{})
	defer j2.Close()
	got := recovered[0]
	if got.Jobs[0].Fam != "profile" || got.Jobs[0].Rigid == nil ||
		got.Jobs[1].Fam != "" || got.Jobs[1].Graph == nil ||
		got.Jobs[2].Rigid == nil {
		t.Fatalf("recovered job records lost rigid payloads: %+v", got.Jobs)
	}
	if sp := *got.Jobs[2].Rigid; sp != (profile.RigidSpec{K: 2, Name: "r1", Cat: 2, Procs: 2, Steps: 4}) {
		t.Fatalf("recovered rigid spec drifted: %+v", sp)
	}
	replayed := rigidEngine(t)
	if err := Replay(replayed, recovered); err != nil {
		t.Fatal(err)
	}
	sl, sr := live.Snapshot(), replayed.Snapshot()
	if sl.Now != sr.Now || !reflect.DeepEqual(sl.ExecutedTotal, sr.ExecutedTotal) ||
		sl.Completed != sr.Completed || sl.Makespan != sr.Makespan {
		t.Fatalf("rigid replay diverged:\nlive   %+v\nreplay %+v", sl, sr)
	}
	if !reflect.DeepEqual(live.Result(), replayed.Result()) {
		t.Fatal("per-job results diverged after rigid replay")
	}
}

// TestAdmitRecordIntoRecycles pins the admission-record reuse contract:
// refilling a scratch Record with same-shape specs encodes the same bytes
// AdmitRecord would produce, keeps the Jobs backing array and the rigid
// spec box from the previous fill, and — once warm — allocates nothing.
func TestAdmitRecordIntoRecycles(t *testing.T) {
	specs := []sim.JobSpec{{Source: profile.MustNewRigid(3, "a", 2, 3, 4), Release: 7}}
	var rec Record
	if err := AdmitRecordInto(&rec, 5, specs, nil, nil); err != nil {
		t.Fatal(err)
	}
	box, backing := rec.Jobs[0].Rigid, &rec.Jobs[0]

	specs[0] = sim.JobSpec{Source: profile.MustNewRigid(3, "b", 1, 2, 2), Release: 9}
	if err := AdmitRecordInto(&rec, 6, specs, nil, nil); err != nil {
		t.Fatal(err)
	}
	if rec.Jobs[0].Rigid != box || &rec.Jobs[0] != backing {
		t.Fatal("AdmitRecordInto reallocated the job slot or the rigid box")
	}
	want, err := AdmitRecord(6, specs)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := encodeRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("reused record encodes differently:\n %s\n %s", gotB, wantB)
	}

	if avg := testing.AllocsPerRun(100, func() {
		if err := AdmitRecordInto(&rec, 6, specs, nil, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm AdmitRecordInto allocates %.1f per call; want 0", avg)
	}
}

// TestJournalSyncStats pins the durability-overhead counters: every
// SyncAlways append flushes once, Sync and Close flush only a file holding
// bytes no flush covered, and the cumulative flush time is reported as a
// non-negative duration.
func TestJournalSyncStats(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{Sync: SyncAlways})
	base := j.Stats().Syncs // Open syncs the fresh header outside the counters
	for i := 0; i < 3; i++ {
		mustAppend(t, j, StepsRecord(1, int64(i+1)))
	}
	st := j.Stats()
	if st.Syncs != base+3 {
		t.Fatalf("Syncs = %d after 3 SyncAlways appends (base %d), want %d", st.Syncs, base, base+3)
	}
	if st.SyncSeconds < 0 {
		t.Fatalf("SyncSeconds negative: %v", st.SyncSeconds)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Syncs; got != base+3 {
		t.Fatalf("Sync and Close re-synced a synced file: %d syncs, want %d", got, base+3)
	}

	// Under an hour-long interval the first append syncs and the second
	// waits for Close.
	j, _ = mustOpen(t, tempJournal(t), Options{Sync: SyncInterval, Interval: time.Hour})
	base = j.Stats().Syncs
	mustAppend(t, j, StepsRecord(1, 1))
	mustAppend(t, j, StepsRecord(1, 2))
	if got := j.Stats().Syncs; got != base+1 {
		t.Fatalf("%d syncs after two appends inside one interval, want %d", got, base+1)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Syncs; got != base+2 {
		t.Fatalf("Close did not count its final sync: %d, want %d", got, base+2)
	}
}
