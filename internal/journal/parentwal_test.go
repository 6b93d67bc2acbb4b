package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sim"
)

// fixtureEngine is the engine testdata/parent.wal was written by.
func fixtureEngine(t testing.TB) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{
		K: 3, Caps: []int{4, 2, 3}, Scheduler: core.NewKRAD(3), Pick: dag.PickFIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// driveFixture admits, cancels and steps jobs on eng and hands the record
// of each committed mutation to emit. Its graph admissions take every
// shape a record had before the record form: graphs alone (version 0),
// beside a rigid job or tagged as a steal's thief half (version 2), and
// tagged with steal tenants (version 3).
func driveFixture(t testing.TB, eng *sim.Engine, emit func(Record)) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	admit := func(from []int, tenants []string, specs ...sim.JobSpec) {
		for i := range specs {
			specs[i].Release += eng.Snapshot().Now // releases are absolute
		}
		ids, err := eng.AdmitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		if err := AdmitRecordInto(&rec, ids[0], specs, from, tenants); err != nil {
			t.Fatal(err)
		}
		emit(rec)
	}
	step := func(n int64) {
		info, err := eng.StepN(n)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Idle {
			emit(StepsRecord(info.Steps, info.Step))
		}
	}
	admit(nil, nil, sim.JobSpec{Graph: dag.Figure1()})
	admit(nil, nil, sim.JobSpec{Graph: dag.MapReduce(3, 12, 3, 1, 2, 3, 1), Release: 2},
		sim.JobSpec{Graph: dag.Random(3, dag.RandomOpts{Tasks: 40, EdgeProb: 0.1}, rng)})
	step(1)
	step(3)
	admit(nil, nil, sim.JobSpec{Graph: dag.ForkJoin(3, 9, 1, 2, 3).Named("fj <&>")},
		sim.JobSpec{Source: profile.MustNewRigid(3, "r", 2, 2, 3), Release: 6})
	step(2)
	admit([]int{1<<32 | 4}, nil, sim.JobSpec{Graph: dag.Stencil2D(3, 4, 5, 2, 1, 3)})
	admit([]int{1<<32 | 5, 2<<32 | 1}, []string{"acme/ml", ""},
		sim.JobSpec{Graph: dag.DivideAndConquer(3, 2, 3, 1, 2, 3)},
		sim.JobSpec{Graph: dag.Singleton(3, 2), Release: 30})
	step(1)
	if err := eng.Cancel(3); err != nil {
		t.Fatal(err)
	}
	emit(CancelRecord(3))
	for eng.Remaining() > 0 {
		step(4)
	}
}

// transcript records what applying records did: every step's StepInfo,
// then every job's status and the engine's summary.
type transcript struct{ strings.Builder }

func (tr *transcript) Fair(FairState) error { return nil }
func (tr *transcript) Admitted(rec Record, _ []sim.JobSpec, ids []int) {
	fmt.Fprintf(&tr.Builder, "admitted %v\n", ids)
}
func (tr *transcript) Cancelled(id int) { fmt.Fprintf(&tr.Builder, "cancelled %d\n", id) }
func (tr *transcript) Stolen(rec Record, _ []sim.JobSpec) {
	fmt.Fprintf(&tr.Builder, "stolen %v\n", rec.IDs)
}
func (tr *transcript) Stepped(info sim.StepInfo) { fmt.Fprintf(&tr.Builder, "stepped %+v\n", info) }

// replayTranscript applies recs to a fixture engine and returns the
// transcript.
func replayTranscript(t testing.TB, recs []Record) string {
	t.Helper()
	eng := fixtureEngine(t)
	var tr transcript
	for i, rec := range recs {
		if err := Apply(eng, i, rec, nil, &tr); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; ; id++ {
		st, ok := eng.Job(id)
		if !ok {
			break
		}
		fmt.Fprintf(&tr.Builder, "job %+v\n", st)
	}
	fmt.Fprintf(&tr.Builder, "engine %+v\n", eng.Snapshot())
	return tr.String()
}

// TestParentWALReplays replays testdata/parent.wal, written by driveFixture
// on the build before the record form, whose replay there wrote
// testdata/parent.transcript. The records are the old versions with JSON
// graphs; this build replays them to the same transcript byte for byte,
// re-encodes each to its own bytes, and the same drive journaled in the
// record form replays to it too.
func TestParentWALReplays(t *testing.T) {
	wal := filepath.Join("testdata", "parent.wal")
	recs, err := ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent.transcript"))
	if err != nil {
		t.Fatal(err)
	}
	var versions []int
	for _, rec := range recs {
		if rec.Type == TypeAdmit || rec.Type == TypeBatch {
			versions = append(versions, rec.V)
		}
	}
	if slices.Sort(versions); !slices.Equal(slices.Compact(versions), []int{0, recordVersion, tenantsVersion}) {
		t.Fatalf("%s's admissions are at versions %v, want 0, %d and %d", wal, versions, recordVersion, tenantsVersion)
	}
	if got := replayTranscript(t, recs); got != string(want) {
		t.Fatalf("%s replays to\n%s\nwant\n%s", wal, got, want)
	}

	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	reframed := slices.Clone(magic)
	for _, rec := range recs {
		reframed = append(reframed, frame(t, rec)...)
	}
	if !bytes.Equal(reframed, data) {
		t.Fatalf("%s's records re-encode to %d bytes, not its %d", wal, len(reframed), len(data))
	}

	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{Sync: SyncNever})
	driveFixture(t, fixtureEngine(t), func(rec Record) {
		if (rec.Type == TypeAdmit || rec.Type == TypeBatch) && rec.V != csrVersion {
			t.Fatalf("%s record written at version %d, want %d", rec.Type, rec.V, csrVersion)
		}
		mustAppend(t, j, rec)
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayTranscript(t, fresh); got != string(want) {
		t.Fatalf("the drive in the record form replays to\n%s\nwant\n%s", got, want)
	}
}
