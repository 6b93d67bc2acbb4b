package replicate

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"krad/internal/journal"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
)

// TestFrameGolden pins the hand-written frame codec against the
// encoding/json one it replaced: every frame encodes to json.Marshal's
// bytes, and those bytes decode to a frame that encodes the same way and
// that json.Unmarshal reads alike.
func TestFrameGolden(t *testing.T) {
	mold, err := moldable.FromSpec(moldable.Spec{K: 2, Name: "m", Tasks: []moldable.TaskSpec{
		{Cat: 1, Work: 4, Max: 2, Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 1e-7}},
		{Cat: 2, Work: 4, Max: 2, Curve: moldable.CurveSpec{Type: moldable.CurveAmdahl, Serial: 0.5}},
	}, Edges: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := journal.AdmitRecord(3, []sim.JobSpec{
		{Graph: testGraph(), Release: 4},
		{Source: mold},
		{Source: profile.MustNewRigid(2, "r&<", 2, 3, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch.Tenant = "acme/ml"
	frames := append(testFrames(t),
		Frame{T: FrameRecs, Epoch: 9, Shard: 2, Seq: 40, Recs: []journal.Record{batch, journal.StealRecord([]int{1, 2}, 1, 7)}})
	for i, f := range frames {
		got, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: wrote\n %s\nwant\n %s", i, got, want)
			continue
		}
		back, err := DecodeFrame(want)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var oracle Frame
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		framesEqual(t, []Frame{back, oracle}, []Frame{f, f})
	}

	// Frames spliced from a WAL's payloads are the bytes WriteFrame writes
	// for the records they decode to: TestRecordGolden's records, every
	// type, as internal/journal's testdata/golden.wal holds them, the
	// snapshot at its head.
	wal := filepath.Join("..", "journal", "testdata", "golden.wal")
	recs, err := journal.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	tail := journal.OpenTail(wal, 1)
	defer tail.Close()
	cursor, head := int64(1), recs[0].Seq
	for _, want := range []Frame{
		{T: FrameSnap, Epoch: 9, Shard: 2, Seq: head, Recs: recs[:1]},
		{T: FrameRecs, Epoch: 9, Shard: 2, Seq: head + 1, Recs: recs[1:]},
	} {
		got, err := appendWAL(nil, 9, 2, tail, &cursor, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if w := writeFrame(t, want); !bytes.Equal(got, w) {
			t.Errorf("%s frame spliced from the WAL:\n %q\nWriteFrame:\n %q", want.T, got, w)
		}
	}
	if want := head + int64(len(recs)); cursor != want {
		t.Errorf("cursor %d after the WAL, want %d", cursor, want)
	}
}

// writeFrame returns f as WriteFrame writes it.
func writeFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteFrame(&b, f); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSnapshotEndsSplicedBatch: a snapshot the WAL reader reaches
// mid-batch — two compactions renamed past a file it was still reading —
// closes the recs frame, follows alone in its snap frame, and the next
// batch resumes after it.
func TestSnapshotEndsSplicedBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-000.wal")
	j, _, err := journal.Open(path, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	step := func(now int64) journal.Record {
		rec := journal.StepRecord(now)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	snap := func(seq int64) journal.Record {
		rec := journal.Record{Type: journal.TypeSnap, Seq: seq, Snap: &sim.EngineCheckpoint{Now: seq, NextID: 1}}
		if err := j.Compact(rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	r1, r2 := step(1), step(2)
	tail := journal.OpenTail(path, 1)
	defer tail.Close()
	cursor := int64(1)
	if got, err := appendWAL(nil, 1, 0, tail, &cursor, 0); err != nil || len(got) != 0 {
		t.Fatalf("read %q (%v) past limit 0", got, err)
	}
	snap(2)
	step(3)
	s4 := snap(4)
	r5 := step(5)
	got, err := appendWAL(nil, 1, 0, tail, &cursor, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := append(writeFrame(t, Frame{T: FrameRecs, Epoch: 1, Seq: 1, Recs: []journal.Record{r1, r2}}),
		writeFrame(t, Frame{T: FrameSnap, Epoch: 1, Seq: 4, Recs: []journal.Record{s4}})...)
	if !bytes.Equal(got, want) {
		t.Fatalf("spliced\n %q\nwant\n %q", got, want)
	}
	got, err = appendWAL(nil, 1, 0, tail, &cursor, 5)
	if want := writeFrame(t, Frame{T: FrameRecs, Epoch: 1, Seq: 5, Recs: []journal.Record{r5}}); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after the snapshot: spliced %q (%v), want %q", got, err, want)
	}
	if cursor != 6 {
		t.Fatalf("cursor %d, want 6", cursor)
	}
}
