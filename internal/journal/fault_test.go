package journal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"krad/internal/sim"
)

func faultOptions(mode FaultMode, budget int64, ff **FaultFile) Options {
	return Options{
		OpenAppend: func(p string) (File, error) {
			f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			*ff = &FaultFile{F: f, N: budget, Mode: mode}
			return *ff, nil
		},
	}
}

func TestAppendENOSPCIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.wal")
	var ff *FaultFile
	j, _, err := Open(path, faultOptions(FaultErr, 256, &ff))
	if err != nil {
		t.Fatal(err)
	}

	var appended []Record
	var failAt int = -1
	for i := 0; i < 64; i++ {
		rec := StepsRecord(1, int64(i+1))
		if err := j.Append(rec); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d failed with %v, want ENOSPC", i, err)
			}
			failAt = i
			break
		}
		appended = append(appended, rec)
	}
	if failAt < 0 {
		t.Fatal("budget of 256 bytes never tripped")
	}
	// The failure latches: later appends fail without touching the file,
	// and the error keeps unwrapping to ENOSPC.
	if err := j.Append(StepsRecord(1, 999)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after trip: %v, want sticky ENOSPC", err)
	}
	if err := j.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Err() = %v, want ENOSPC", err)
	}
	if st := j.Stats(); st.Failed == "" {
		t.Fatal("Stats().Failed is empty after a latched failure")
	}
	j.Close()

	// Everything acknowledged before the failure survives reopen; the torn
	// frame from the failed append is repaired away.
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, recs, appended)
}

func TestAppendShortWriteTornFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.wal")
	var ff *FaultFile
	j, _, err := Open(path, faultOptions(FaultShortWrite, 100, &ff))
	if err != nil {
		t.Fatal(err)
	}

	var appended []Record
	for i := 0; i < 64; i++ {
		rec := StepsRecord(1, int64(i+1))
		if err := j.Append(rec); err != nil {
			// A short write surfaces as io.ErrShortWrite wrapping the cause.
			if !errors.Is(err, io.ErrShortWrite) && !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d failed with %v, want short-write or ENOSPC", i, err)
			}
			break
		}
		appended = append(appended, rec)
	}
	if len(appended) == 64 {
		t.Fatal("budget of 100 bytes never tripped")
	}
	j.Close()

	// The file now ends in a half-written frame — exactly a torn tail.
	// Open must repair it and recover precisely the acknowledged records.
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, recs, appended)
}

func TestCompactFailureLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.wal")
	j, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(StepsRecord(1, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Swap in an opener whose compact-side file has no space at all.
	j.opts.OpenAppend = func(p string) (File, error) {
		f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &FaultFile{F: f, N: 0}, nil
	}
	cp := sim.EngineCheckpoint{Now: 5}
	if err := j.Compact(Record{Type: TypeSnap, Snap: &cp}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("compact onto a full disk: %v, want ENOSPC", err)
	}
	if err := j.Err(); err == nil {
		t.Fatal("journal not latched after failed compaction")
	}
	j.Close()

	// The original journal file is untouched by the failed compaction.
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("original journal has %d records after failed compact, want 4", len(recs))
	}
}

// syncCountingFile records how many bytes had been written at each Sync,
// so a test can prove a flush covered the full tail.
type syncCountingFile struct {
	f           File
	written     int64
	syncs       int
	bytesAtSync []int64
}

func (c *syncCountingFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.written += int64(n)
	return n, err
}

func (c *syncCountingFile) Sync() error {
	c.syncs++
	c.bytesAtSync = append(c.bytesAtSync, c.written)
	return c.f.Sync()
}

func (c *syncCountingFile) Close() error { return c.f.Close() }

// Regression: under SyncInterval, Close must flush the tail written since
// the last interval sync even though the timer never fired — a clean
// shutdown is loss-free, not bounded-loss.
func TestCloseFlushesIntervalTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.wal")
	var cf *syncCountingFile
	j, _, err := Open(path, Options{
		Sync:     SyncInterval,
		Interval: time.Hour, // the timer can never fire inside this test
		OpenAppend: func(p string) (File, error) {
			f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			cf = &syncCountingFile{f: f}
			return cf, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first append syncs (lastSync is the zero time); the rest land
	// inside the hour-long interval and stay buffered.
	for i := 0; i < 5; i++ {
		if err := j.Append(StepsRecord(1, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if cf.syncs != 1 {
		t.Fatalf("%d syncs before Close, want exactly 1 (the interval timer must not have fired)", cf.syncs)
	}
	if cf.bytesAtSync[0] >= cf.written {
		t.Fatal("test is vacuous: no unsynced tail accumulated before Close")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if cf.syncs != 2 {
		t.Fatalf("%d syncs after Close, want 2 (Close must flush the interval tail)", cf.syncs)
	}
	if got, want := cf.bytesAtSync[1], cf.written; got != want {
		t.Fatalf("Close synced at %d bytes written, want %d (the whole tail)", got, want)
	}
}

// Regression: a failed Close-time flush must be reported and latched, not
// swallowed — otherwise a dying disk turns a clean shutdown into silent
// loss of the last interval's appends.
func TestCloseReportsFailedFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.wal")
	j, _, err := Open(path, Options{
		Sync:     SyncInterval,
		Interval: time.Hour,
		OpenAppend: func(p string) (File, error) {
			f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			// One successful flush (the first append's), then the device
			// dies: Close's final sync is the second.
			return &FaultFile{F: f, N: 1 << 30, SyncBudget: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(StepsRecord(1, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close with a failing final sync: %v, want ENOSPC", err)
	}
	if err := j.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Err() after failed Close flush = %v, want latched ENOSPC", err)
	}
}
