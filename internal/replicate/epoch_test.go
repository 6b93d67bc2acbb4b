package replicate

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krad/internal/journal"
)

func openEpochFile(t *testing.T, dir string) *EpochFile {
	t.Helper()
	e, err := OpenEpochFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func requireEpoch(t *testing.T, e *EpochFile, epoch, fenced int64) {
	t.Helper()
	if e.Current() != epoch || e.FencedBy() != fenced {
		t.Fatalf("epoch %d fenced by %d, want %d fenced by %d", e.Current(), e.FencedBy(), epoch, fenced)
	}
}

// TestEpochFileMissingIsEpochOne: a directory without the file (a fresh
// pair, or one that predates the file) starts at epoch 1, unfenced, and
// the name never collides with a shard journal.
func TestEpochFileMissingIsEpochOne(t *testing.T) {
	requireEpoch(t, openEpochFile(t, t.TempDir()), 1, 0)
	if ok, _ := filepath.Match("shard-*.wal", EpochFileName); ok {
		t.Fatalf("%s matches the shard journal pattern", EpochFileName)
	}
}

// TestEpochFileSurvivesReopen: each change is on disk when the call
// returns, and a promotion moves past the fencing epoch and clears it.
func TestEpochFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e := openEpochFile(t, dir)
	if err := e.Adopt(4); err != nil {
		t.Fatal(err)
	}
	if err := e.Adopt(2); err != nil { // lower: no change
		t.Fatal(err)
	}
	requireEpoch(t, openEpochFile(t, dir), 4, 0)
	if err := e.Fence(6); err != nil {
		t.Fatal(err)
	}
	if err := e.Fence(9); err != nil { // the first fence sticks
		t.Fatal(err)
	}
	requireEpoch(t, openEpochFile(t, dir), 4, 6)
	if epoch, err := e.Promote(); err != nil || epoch != 7 {
		t.Fatalf("promotion to %d (%v), want 7", epoch, err)
	}
	requireEpoch(t, openEpochFile(t, dir), 7, 0)
	if _, err := os.Stat(filepath.Join(dir, EpochFileName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestEpochFileMalformed: a file that does not hold a valid epoch stops
// startup with an error naming it.
func TestEpochFileMalformed(t *testing.T) {
	for _, body := range []string{"", "2", `{"epoch":0,"fenced_by":0}`, `{"epoch":2,"fenced_by":-1}`, `{"epoch":2,"fenced_by":0} x`} {
		dir := t.TempDir()
		path := filepath.Join(dir, EpochFileName)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenEpochFile(dir); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%q: got %v, want an error naming %s", body, err, path)
		}
	}
}

// blockEpochFile puts a directory where dir's epoch file goes, so every
// write of it fails at the rename.
func blockEpochFile(t *testing.T, dir string) {
	t.Helper()
	if err := os.Mkdir(filepath.Join(dir, EpochFileName), 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestEpochFileWriteFailure: a change that cannot be recorded fails
// closed. A promotion and an adoption change nothing; a fence latches in
// memory anyway.
func TestEpochFileWriteFailure(t *testing.T) {
	dir := t.TempDir()
	e := openEpochFile(t, dir)
	blockEpochFile(t, dir)
	if _, err := e.Promote(); err == nil {
		t.Fatal("promotion succeeded without recording its epoch")
	}
	if err := e.Adopt(3); err == nil {
		t.Fatal("adoption succeeded without recording its epoch")
	}
	requireEpoch(t, e, 1, 0)
	if err := e.Fence(2); err == nil {
		t.Fatal("fence reported recorded")
	}
	requireEpoch(t, e, 1, 2)
}

// nullApplier is a one-shard follower that has applied nothing.
type nullApplier struct{}

func (nullApplier) Shape() journal.Shape                             { return journal.Shape{Caps: []int{1}, Shards: 1} }
func (nullApplier) NextSeqs() []int64                                { return []int64{1} }
func (nullApplier) ApplyReplicated(int, int64, journal.Record) error { return nil }
func (nullApplier) ApplyReplicatedSnap(int, journal.Record) error    { return nil }

// TestReceiverFailsClosedOnEpochWrite: with its epoch file unwritable, a
// follower refuses a promotion (it stays a follower, OnPromote never
// runs) and drops a primary whose higher epoch it cannot record before
// answering its hello.
func TestReceiverFailsClosedOnEpochWrite(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Listener:  ln,
		Applier:   nullApplier{},
		Epoch:     openEpochFile(t, dir),
		OnPromote: func(int64) { t.Error("OnPromote ran for a refused promotion") },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	blockEpochFile(t, dir)

	if _, err := r.Promote(); err == nil {
		t.Fatal("promotion succeeded without recording its epoch")
	}
	if st := r.Stats(); st.Promoted || st.Epoch != 1 {
		t.Fatalf("after a refused promotion: promoted=%v epoch=%d, want a follower at 1", st.Promoted, st.Epoch)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMagic(conn); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{T: FrameHello, Epoch: 3, Shape: &journal.Shape{Caps: []int{1}, Shards: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(bufio.NewReader(conn)); err == nil {
		t.Fatal("follower answered a hello whose epoch it could not record")
	}
	if st := r.Stats(); st.Epoch != 1 || st.Connects != 0 {
		t.Fatalf("receiver stats %+v, want epoch 1 and no attached primary", st)
	}
}
