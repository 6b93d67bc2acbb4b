package replicate

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"krad/internal/dag"
	"krad/internal/journal"
	"krad/internal/sim"
)

func testGraph() *dag.Graph { return dag.UniformChain(1, 3, 1) }

// testFrames is a representative frame sequence: one of every type a live
// stream carries, in a plausible order.
func testFrames(t *testing.T) []Frame {
	t.Helper()
	g := testGraph()
	cp := sim.EngineCheckpoint{Now: 7, Makespan: 7, SchedState: []byte(`{"x":1}`)}
	return []Frame{
		{T: FrameHello, Epoch: 3, Shards: 2},
		{T: FrameHelloAck, Epoch: 3, Next: []int64{1, 5}},
		{T: FrameSnap, Epoch: 3, Shard: 1, Seq: 4, Recs: []journal.Record{
			{Type: journal.TypeSnap, Snap: &cp, Seq: 4},
		}},
		{T: FrameRecs, Epoch: 3, Shard: 0, Seq: 1, Recs: []journal.Record{
			{Type: journal.TypeAdmit, Base: 0, Jobs: []journal.JobRecord{{Release: 2, Graph: g}}},
			journal.StepRecord(1),
			journal.StepsRecord(3, 4),
			journal.CancelRecord(0),
		}},
		{T: FrameHeartbeat, Epoch: 3},
		{T: FrameAck, Epoch: 3, Next: []int64{5, 5}},
		{T: FrameFence, Epoch: 4},
	}
}

func encodeStream(t *testing.T, frames []Frame) (full []byte, ends []int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		t.Fatal(err)
	}
	ends = make([]int64, len(frames))
	for i, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ends[i] = int64(buf.Len())
	}
	return buf.Bytes(), ends
}

// framesEqual compares frames by their canonical encoding: JSON marshal
// is deterministic, so byte equality is exactly "the peer would see the
// same thing" (and sidesteps dag.Graph's lazily memoized internals, which
// reflect.DeepEqual would trip over).
func framesEqual(t *testing.T, got, want []Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		g, gerr := EncodeFrame(got[i])
		w, werr := EncodeFrame(want[i])
		if gerr != nil || werr != nil {
			t.Fatalf("frame %d re-encode: got %v, want %v", i, gerr, werr)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("frame %d mismatch:\n got %s\nwant %s", i, g, w)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	want := testFrames(t)
	full, _ := encodeStream(t, want)
	br := bufio.NewReader(bytes.NewReader(full))
	if err := ReadMagic(br); err != nil {
		t.Fatal(err)
	}
	var got []Frame
	for {
		f, err := ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	framesEqual(t, got, want)
}

// TestTornFrameEveryPrefix cuts the stream after every possible prefix
// length — the mirror of the journal's torn-tail test — and asserts the
// exact decoded-frame count: all frames that fit the prefix entirely,
// never more or fewer, with the remainder reported as a torn tail rather
// than an error.
func TestTornFrameEveryPrefix(t *testing.T) {
	want := testFrames(t)
	full, ends := encodeStream(t, want)

	for cut := 0; cut <= len(full); cut++ {
		frames, goodLen, err := decodeStream(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantN := 0
		for _, e := range ends {
			if e <= int64(cut) {
				wantN++
			}
		}
		framesEqual(t, frames, want[:wantN])
		wantGood := int64(len(streamMagic))
		if wantN > 0 {
			wantGood = ends[wantN-1]
		}
		if cut < len(streamMagic) {
			wantGood = 0
		}
		if goodLen != wantGood {
			t.Fatalf("cut %d: goodLen %d, want %d", cut, goodLen, wantGood)
		}

		// The incremental reader must agree: same frames, then a clean
		// EOF at a frame boundary or ErrUnexpectedEOF mid-frame.
		if cut < len(streamMagic) {
			continue
		}
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		if err := ReadMagic(br); err != nil {
			t.Fatalf("cut %d: magic: %v", cut, err)
		}
		var got []Frame
		var rerr error
		for {
			f, err := ReadFrame(br)
			if err != nil {
				rerr = err
				break
			}
			got = append(got, f)
		}
		framesEqual(t, got, want[:wantN])
		if int64(cut) == wantGood {
			if rerr != io.EOF {
				t.Fatalf("cut %d at frame boundary: ReadFrame error %v, want io.EOF", cut, rerr)
			}
		} else if !errors.Is(rerr, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d mid-frame: ReadFrame error %v, want io.ErrUnexpectedEOF", cut, rerr)
		}
	}
}

// TestFrameCorruptionDetected flips every byte of the stream in turn and
// asserts no flip yields phantom frames: each either fails loudly or
// decodes a strict prefix of the original frames.
func TestFrameCorruptionDetected(t *testing.T) {
	want := testFrames(t)
	full, _ := encodeStream(t, want)
	for i := range full {
		mut := bytes.Clone(full)
		mut[i] ^= 0xff
		frames, _, err := decodeStream(mut)
		if err != nil {
			continue
		}
		if len(frames) > len(want) {
			t.Fatalf("flip at %d decoded %d frames from a %d-frame stream", i, len(frames), len(want))
		}
		framesEqual(t, frames, want[:len(frames)])
	}
}

func TestValidateRejectsMalformedFrames(t *testing.T) {
	g := testGraph()
	bad := []Frame{
		{T: "mystery", Epoch: 1},
		{T: FrameHello, Epoch: 0, Shards: 1},                                            // missing epoch
		{T: FrameHello, Epoch: 1},                                                       // missing shard count
		{T: FrameHello, Epoch: 1, Shards: 2, Seq: 9},                                    // stray cursor
		{T: FrameHelloAck, Epoch: 1},                                                    // no cursors
		{T: FrameAck, Epoch: 1, Next: []int64{0}},                                       // cursor < 1
		{T: FrameRecs, Epoch: 1, Seq: 1},                                                // no records
		{T: FrameRecs, Epoch: 1, Seq: 0, Recs: []journal.Record{journal.StepRecord(1)}}, // missing seq
		{T: FrameRecs, Epoch: 1, Seq: 1, Recs: []journal.Record{
			{Type: journal.TypeSnap, Snap: &sim.EngineCheckpoint{}},
		}}, // snapshot smuggled into a recs frame
		{T: FrameSnap, Epoch: 1, Seq: 3, Recs: []journal.Record{journal.StepRecord(1)}}, // not a snap record
		{T: FrameSnap, Epoch: 1, Seq: 3, Recs: []journal.Record{
			{Type: journal.TypeSnap, Snap: &sim.EngineCheckpoint{}, Seq: 4},
		}}, // cursor disagreement
		{T: FrameHeartbeat, Epoch: 1, Shard: 1, Seq: 2}, // stray fields
		{T: FrameFence, Epoch: 2, Recs: []journal.Record{
			{Type: journal.TypeAdmit, Base: 0, Jobs: []journal.JobRecord{{Graph: g}}},
		}}, // stray records
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("frame %d (%s) validated, want error: %+v", i, f.T, f)
		}
		if _, err := EncodeFrame(f); err == nil {
			t.Errorf("frame %d (%s) encoded, want error", i, f.T)
		}
	}
}

func TestReadMagicRejectsForeignStreams(t *testing.T) {
	br := bytes.NewReader([]byte("KRADWAL\x01rest"))
	if err := ReadMagic(br); !errors.Is(err, ErrStreamVersion) {
		t.Fatalf("foreign magic: %v, want ErrStreamVersion", err)
	}
}

// decodeStream reads a captured stream image — magic followed by frames
// — through ReadMagic and ReadFrame, returning the intact frames and the
// byte length of the valid prefix: a frame cut short at the tail is
// reported by goodLen < len(data) with a nil error (exactly a journal torn
// tail), while a damaged frame is an error.
func decodeStream(data []byte) (frames []Frame, goodLen int64, err error) {
	r := bytes.NewReader(data)
	br := bufio.NewReader(r)
	if err := ReadMagic(br); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	for {
		goodLen = int64(len(data) - r.Len() - br.Buffered())
		f, err := ReadFrame(br)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return frames, goodLen, nil
		}
		if err != nil {
			return frames, goodLen, err
		}
		frames = append(frames, f)
	}
}
