package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden-csr.wal from goldenRecords")

// TestGoldenWAL pins the two WALs the replication frame golden test splices
// from. testdata/golden-csr.wal holds TestRecordGolden's records, the
// snapshot at the head and the rest by name, as Compact and Append write
// them; regenerate it with -update after a change that moves a golden
// record. testdata/golden.wal holds them as builds before the record form
// wrote them, graphs in the JSON form, and is never regenerated: it must
// read, and re-encode to its own bytes, as it is.
func TestGoldenWAL(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{Sync: SyncNever})
	recs := goldenRecords(t)
	if err := j.Compact(recs["snap"]); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range recs {
		if name != "snap" {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		mustAppend(t, j, recs[name])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden-csr.wal")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the golden records write %d bytes unlike %s's %d (rerun with -update if a golden record moved on purpose)", len(got), golden, len(want))
	}

	old := filepath.Join("testdata", "golden.wal")
	want, err = os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	oldRecs, err := ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	got = slices.Clone(magic)
	for _, rec := range oldRecs {
		if rec.V >= csrVersion {
			t.Fatalf("%s holds a version %d record", old, rec.V)
		}
		got = append(got, frame(t, rec)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s's %d records re-encode to %d bytes, not its %d", old, len(oldRecs), len(got), len(want))
	}
}

// frame returns rec framed as Append writes it.
func frame(t *testing.T, rec Record) []byte {
	t.Helper()
	b, err := AppendRecord(make([]byte, headerLen), rec)
	if err != nil {
		t.Fatal(err)
	}
	seal(b)
	return b
}

// appendRaw appends bytes to the file at path behind the journal's back.
func appendRaw(t testing.TB, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// drain reads tail until it has nothing more at limit, copying each entry.
func drain(t *testing.T, tail *Tail, limit int64) []Entry {
	t.Helper()
	var out []Entry
	for {
		e, ok, err := tail.Next(limit)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		e.Payload = bytes.Clone(e.Payload)
		out = append(out, e)
	}
}

// TestTailYieldsEachRecordOnce tails a live journal that is appended to,
// torn, NUL-filled and reopened, and compacted by rename between reads:
// each committed record comes out exactly once, in order and numbered, as
// the bytes AppendRecord wrote, and a snapshot comes out only for records
// the reader never saw.
func TestTailYieldsEachRecordOnce(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{Sync: SyncNever})
	defer func() { j.Close() }()
	pool := testRecords(t)
	var seq int64
	next := func() Record { // the next record to commit, numbered seq
		seq++
		return pool[int(seq)%len(pool)]
	}
	commit := func() Entry {
		rec := next()
		mustAppend(t, j, rec)
		return Entry{Payload: frame(t, rec)[headerLen:], Seq: seq}
	}
	compact := func() Entry {
		snap := goldenRecords(t)["snap"]
		snap.Seq = seq
		if err := j.Compact(snap); err != nil {
			t.Fatal(err)
		}
		return Entry{Payload: frame(t, snap)[headerLen:], Seq: seq, Snap: true}
	}
	var torn []byte
	tail := OpenTail(path, 1)
	defer tail.Close()
	for _, step := range []struct {
		name string
		do   func() []Entry // mutates the journal, returns what the tail must yield
	}{
		{"empty", func() []Entry { return nil }},
		{"append", func() []Entry { return []Entry{commit(), commit()} }},
		{"torn", func() []Entry {
			rec := next()
			torn = frame(t, rec)
			appendRaw(t, path, torn[:len(torn)/2])
			return nil
		}},
		{"torn completed", func() []Entry {
			appendRaw(t, path, torn[len(torn)/2:])
			return []Entry{{Payload: torn[headerLen:], Seq: seq}}
		}},
		{"NUL fill", func() []Entry {
			appendRaw(t, path, make([]byte, 64))
			return nil
		}},
		{"reopen truncates the fill", func() []Entry {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j, _ = mustOpen(t, path, Options{Sync: SyncNever})
			return []Entry{commit()}
		}},
		{"compaction the reader kept up with", func() []Entry {
			compact()
			return []Entry{commit()}
		}},
		{"two compactions behind the reader", func() []Entry {
			behind := commit()
			compact()
			commit()
			snap := compact()
			return []Entry{behind, snap, commit()}
		}},
	} {
		want := step.do()
		if got := drain(t, tail, math.MaxInt64); !entriesEqual(got, want) {
			t.Fatalf("%s: read %s, want %s", step.name, describe(got), describe(want))
		}
	}

	// Nothing past the limit is handed out, not even the head snapshot.
	last := commit()
	if got := drain(t, tail, seq-1); len(got) != 0 {
		t.Fatalf("read %s past limit %d", describe(got), seq-1)
	}
	if got := drain(t, tail, seq); !entriesEqual(got, []Entry{last}) {
		t.Fatalf("at the limit: read %s, want %s", describe(got), describe([]Entry{last}))
	}
	head := seq - 2 // the head snapshot's cursor; then two records
	fresh := OpenTail(path, 1)
	if got := drain(t, fresh, head-1); len(got) != 0 {
		t.Fatalf("a fresh reader read %s past limit %d", describe(got), head-1)
	}
	fresh.Close()

	// A fresh reader needs the head snapshot only if it lacks records the
	// snapshot covers.
	for _, tc := range []struct {
		from int64
		want []int64 // sequence numbers; the head snapshot's first when present
	}{
		{1, []int64{head, head + 1, head + 2}},
		{head, []int64{head, head + 1, head + 2}},
		{head + 1, []int64{head + 1, head + 2}},
		{head + 2, []int64{head + 2}},
		{head + 3, nil},
	} {
		fresh := OpenTail(path, tc.from)
		var seqs []int64
		for _, e := range drain(t, fresh, math.MaxInt64) {
			seqs = append(seqs, e.Seq)
			if e.Snap != (e.Seq == head && tc.from <= head) {
				t.Errorf("from %d: entry %d snap=%v", tc.from, e.Seq, e.Snap)
			}
		}
		fresh.Close()
		if !slices.Equal(seqs, tc.want) {
			t.Errorf("from %d: read seqs %v, want %v", tc.from, seqs, tc.want)
		}
	}
}

func entriesEqual(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Seq == y.Seq && x.Snap == y.Snap && bytes.Equal(x.Payload, y.Payload)
	})
}

func describe(es []Entry) []string {
	var out []string
	for _, e := range es {
		kind := "rec"
		if e.Snap {
			kind = "snap"
		}
		out = append(out, fmt.Sprintf("%s#%d", kind, e.Seq))
	}
	return out
}

// tailDecode reads data the way a replication primary reads its live WAL:
// written as two appends split at split, read by a Tail after each, and
// every payload decoded as Open would. It returns what decodeAll does: the
// records, the byte length of the valid prefix, and whether something was
// refused.
func tailDecode(t testing.TB, data []byte, split int) ([]Record, int64, error) {
	path := filepath.Join(t.TempDir(), "tail.wal")
	if err := os.WriteFile(path, data[:split], 0o644); err != nil {
		t.Fatal(err)
	}
	tail := OpenTail(path, 1)
	defer tail.Close()
	var recs []Record
	read := func() (int64, error) {
		for {
			e, ok, err := tail.Next(math.MaxInt64)
			if err != nil || !ok {
				return tail.off, err
			}
			rec, err := decodeRecord(e.Payload)
			if err == nil && rec.Type == TypeSnap && len(recs) != 0 {
				err = errors.New("snapshot past the head")
			}
			if err != nil {
				return tail.off - int64(headerLen+len(e.Payload)), err
			}
			recs = append(recs, rec)
		}
	}
	if good, err := read(); err != nil {
		return recs, good, err
	}
	appendRaw(t, path, data[split:])
	good, err := read()
	return recs, good, err
}

// decodeAll reads a whole journal image in memory the way read does, both
// passes: the records, the length of the valid prefix — which ends at an
// undecodable record as at a damaged frame — and the first damage.
func decodeAll(data []byte) (recs []Record, goodLen int64, err error) {
	n, goodLen, err := frames(data)
	derr, _ := decode(data, n, func(rec *Record) error {
		recs = append(recs, *rec)
		return nil
	})
	if derr == nil {
		return recs, goodLen, err
	}
	goodLen = int64(len(magic))
	for range recs {
		goodLen += headerLen + int64(binary.LittleEndian.Uint32(data[goodLen:]))
	}
	return recs, goodLen, derr
}

// checkTail runs data through tailDecode at split and holds it to
// decodeAll: the same records, the same valid prefix, the same verdict. A
// head snapshot without a replication cursor is the one licensed
// difference: a Tail cannot number what follows it, so it refuses.
func checkTail(t testing.TB, data []byte, split int) {
	recs, goodLen, err := decodeAll(data)
	trecs, tgood, terr := tailDecode(t, data, split)
	if len(recs) > 0 && recs[0].Type == TypeSnap && recs[0].Seq == 0 {
		if terr == nil {
			t.Fatal("tail read past a snapshot head without a cursor")
		}
		return
	}
	if (err == nil) != (terr == nil) || tgood != goodLen || len(trecs) != len(recs) {
		t.Fatalf("split %d: tail read %d records, %d valid bytes (%v); decodeAll %d, %d (%v)", split, len(trecs), tgood, terr, len(recs), goodLen, err)
	}
	for i := range recs {
		sameRecord(t, trecs[i], recs[i])
	}
}

// TestTailMatchesDecodeAll runs the fuzz seeds through checkTail at every
// split point.
func TestTailMatchesDecodeAll(t *testing.T) {
	for _, data := range decodeSeeds(t) {
		for split := 0; split <= len(data); split++ {
			checkTail(t, data, split)
		}
	}
}

// decodeSeeds are whole journal images: a real one, truncated, torn,
// NUL-filled, bit-flipped and foreign, and one headed by a snapshot.
func decodeSeeds(t testing.TB) [][]byte {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.wal")
	j, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(t) {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/2] ^= 0x10
	snap := goldenRecords(t)["snap"]
	snapped, err := AppendRecord(append(bytes.Clone(magic), make([]byte, headerLen)...), snap)
	if err != nil {
		t.Fatal(err)
	}
	seal(snapped[len(magic):])
	snapped = append(snapped, seed[len(magic):]...)
	return [][]byte{
		seed,
		seed[:len(seed)-3],
		seed[:len(magic)],
		append(bytes.Clone(seed), make([]byte, 40)...),
		append(append(bytes.Clone(seed), make([]byte, 12)...), 1),
		{},
		[]byte("KRADWAL\x02garbage"),
		flipped,
		snapped,
	}
}
