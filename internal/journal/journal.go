// Package journal is the write-ahead log that makes the online scheduler
// service (internal/server, cmd/kradd) crash-safe. The K-RAD engine is
// online and non-clairvoyant: its entire state is a deterministic function
// of the sequence of committed mutations — admissions, cancellations, and
// executed steps. A journal is therefore exact, not approximate: append
// every committed mutation, and a restarted process that replays the log
// through a fresh engine reconstructs job IDs, virtual time, and scheduler
// state bit-for-bit.
//
// The on-disk format is an 8-byte magic header followed by length-prefixed,
// CRC32-checksummed records:
//
//	"KRADWAL\x01" | { uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload }*
//
// Crash semantics follow the classic WAL contract. A torn tail — a record
// cut short by the crash, including the NUL-filled tails some filesystems
// leave behind — is silently truncated on open: those mutations were never
// acknowledged durable. A damaged record with intact records after it
// cannot be explained by a torn write; that is corruption, and Open fails
// loudly (the daemon exits non-zero rather than serving silently forgotten
// state).
//
// Compaction bounds replay time: when the engine is idle its state
// collapses to a small checkpoint (sim.EngineCheckpoint), and the journal
// is atomically rewritten as a single snap record via the
// write-tmp/fsync/rename dance.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// magic identifies a journal file and its format version. A version bump
// changes the last byte; Open rejects anything else as a version mismatch
// rather than guessing at a foreign layout.
var magic = []byte("KRADWAL\x01")

const (
	headerLen = 4 + 4 // payload length + CRC32
	// maxRecordLen bounds a single record; longer lengths in a header are
	// treated as damage, not data (the HTTP surface caps batch bodies at
	// 64 MiB, so real records are far smaller).
	maxRecordLen = 128 << 20
)

// ErrVersion reports a journal written by an unknown format version.
var ErrVersion = errors.New("journal: unknown magic (version mismatch or not a journal)")

// ErrCorrupt reports a damaged record that cannot be a torn tail: intact
// data follows it, so truncating would silently forget acknowledged
// mutations.
var ErrCorrupt = errors.New("journal: corrupt record")

// SyncPolicy says when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: acknowledged implies durable,
	// at one disk flush per mutation.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per SyncInterval, piggybacked on
	// appends: bounded loss (the last interval) at a bounded flush rate.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: fastest, loses
	// whatever the kernel had not written back. Torn-tail truncation keeps
	// the journal readable regardless.
	SyncNever
)

// ParseSyncPolicy maps the kradd -fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// File is the slice of *os.File the journal writer needs. It exists so
// tests can inject failing files (see FaultFile) and drive the degraded-
// disk paths without a real full disk.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options parameterize Open.
type Options struct {
	// Sync is the fsync policy; the zero value is SyncAlways, the safe
	// default.
	Sync SyncPolicy
	// Interval is the minimum spacing between fsyncs under SyncInterval.
	// 0 means 100ms.
	Interval time.Duration
	// OpenAppend opens the journal file for appending. Nil means os.OpenFile
	// with O_CREATE|O_WRONLY|O_APPEND. Tests substitute fault injectors.
	OpenAppend func(path string) (File, error)
}

func (o *Options) openAppend(path string) (File, error) {
	if o.OpenAppend != nil {
		return o.OpenAppend(path)
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Stats is a point-in-time journal summary.
type Stats struct {
	// Records is the record count in the current file (a compaction resets
	// it to 1, the snapshot).
	Records int64 `json:"records"`
	// Appended counts records appended since Open.
	Appended int64 `json:"appended"`
	// Compactions counts snapshot rewrites since Open.
	Compactions int64 `json:"compactions"`
	// SizeBytes is the current file size.
	SizeBytes int64 `json:"size_bytes"`
	// Syncs counts journal-file fsyncs issued since Open (policy-driven
	// flushes on append, the compaction flush and the final close flush).
	Syncs int64 `json:"syncs"`
	// SyncSeconds is the cumulative wall time spent inside those fsyncs —
	// the durability overhead a load generator subtracts to separate disk
	// cost from scheduling cost.
	SyncSeconds float64 `json:"sync_seconds"`
	// Failed carries the sticky write failure, if any ("" while healthy).
	Failed string `json:"failed,omitempty"`
}

// Journal is an append-only record log bound to one file. Appends are
// serialized internally; a write or sync failure is sticky — the journal
// refuses further appends so the caller can stop acknowledging work while
// in-memory state keeps serving (the degraded-disk mode internal/server
// implements).
type Journal struct {
	path string
	opts Options

	mu          sync.Mutex
	f           File
	size        int64
	records     int64
	appended    int64
	compactions int64
	syncs       int64
	syncNanos   int64
	lastSync    time.Time
	// dirty is set while the file holds bytes no fsync has covered yet:
	// an append since the last sync, or what Open wrote or truncated.
	// Sync and Close skip the fsync of a clean file.
	dirty  bool
	failed error
	buf    []byte
}

// Open reads, validates and repairs the journal at path, returning the
// decoded records and a handle positioned for appending. A missing or
// empty file starts fresh. A torn tail (crash mid-append) is truncated; a
// corrupt interior record or unknown magic is a hard error — see the
// package comment for why the two are treated differently.
func Open(path string, opts Options) (*Journal, []Record, error) {
	var recs []Record
	j, err := OpenStream(path, opts, func(rec *Record) error {
		recs = append(recs, *rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return j, recs, nil
}

// OpenStream is Open applying each record as it decodes instead of holding
// them all: fn gets them in order on the caller's goroutine (rec is fn's
// only for the call). A record that fails to decode outranks fn's error.
// A torn tail is cut only after fn has taken every record, so an error from
// decoding or from fn leaves the file as it was.
func OpenStream(path string, opts Options, fn func(rec *Record) error) (*Journal, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	n, goodLen, err := read(path, true, fn)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, opts: opts, size: goodLen, records: int64(n), dirty: true}
	f, err := opts.openAppend(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s for append: %w", path, err)
	}
	j.f = f
	if j.size == 0 {
		if _, err := f.Write(magic); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: write header of %s: %w", path, err)
		}
		j.size = int64(len(magic))
		if opts.Sync == SyncAlways {
			if err := f.Sync(); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("journal: sync header of %s: %w", path, err)
			}
			j.dirty = false
		}
	}
	return j, nil
}

// ReadFile decodes the journal at path without opening it for append and
// without repairing it: a torn tail is simply ignored. Because nothing is
// truncated or locked, it is safe to call on a live journal that another
// goroutine (or process) is appending to; a record torn by a concurrent
// append shows up on the next read (Tail reads a live journal
// incrementally). A missing file decodes as empty.
func ReadFile(path string) ([]Record, error) {
	var recs []Record
	if _, _, err := read(path, false, func(rec *Record) error {
		recs = append(recs, *rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
}

// chunkLen is how many records decode hands over at a time.
const chunkLen = 256

// read is the one read loop: it reads path (missing is empty), checks every
// frame, only then decodes to fn, and with repair truncates a torn tail
// once every record has applied. A damaged frame applies nothing; an
// undecodable record before it wins.
func read(path string, repair bool, fn func(*Record) error) (int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, 0, fmt.Errorf("journal: read %s: %w", path, err)
	}
	n, goodLen, err := frames(data)
	if err != nil {
		if derr, _ := decode(data, n, func(*Record) error { return nil }); derr != nil {
			err = derr
		}
		return 0, 0, fmt.Errorf("journal: %s: %w", path, err)
	}
	derr, err := decode(data, n, fn)
	if derr != nil {
		return 0, 0, fmt.Errorf("journal: %s: %w", path, derr)
	}
	if err != nil {
		return 0, 0, err
	}
	if repair && goodLen < int64(len(data)) {
		// Torn tail: fn never saw it; drop it before the file reopens.
		if err := os.Truncate(path, goodLen); err != nil {
			return 0, 0, fmt.Errorf("journal: truncate torn tail of %s to %d bytes: %w", path, goodLen, err)
		}
	}
	return n, goodLen, nil
}

// frames counts the sound frames of a journal image and the prefix they
// make. Tail damage ends the prefix; damage with intact data after it is
// ErrCorrupt; a foreign header is ErrVersion.
func frames(data []byte) (n int, goodLen int64, err error) {
	if len(data) < len(magic) {
		// Empty, or a crash while writing the 8-byte header: nothing was
		// ever acknowledged from this file.
		return 0, 0, nil
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return 0, 0, fmt.Errorf("%w: header %q", ErrVersion, data[:len(magic)])
	}
	off := int64(len(magic))
	for ; ; n++ {
		payload, err := frameAt(data, off)
		if err != nil {
			return n, off, fmt.Errorf("%w at offset %d (record %d)", err, off, n)
		}
		if payload == nil {
			return n, off, nil
		}
		off += headerLen + int64(len(payload))
	}
}

// decode decodes the first n records of data on a goroutine, chunkLen at a
// time and one chunk ahead of fn. Once fn fails it gets no more, but derr
// still reports the first undecodable record or snapshot past the head.
func decode(data []byte, n int, fn func(*Record) error) (derr, fnErr error) {
	full := make(chan []Record)
	go func() {
		defer close(full)
		off := int64(len(magic))
		for i := 0; i < n && derr == nil; {
			chunk := make([]Record, 0, min(n-i, chunkLen))
			for ; i < n && len(chunk) < chunkLen; i++ {
				length := int64(binary.LittleEndian.Uint32(data[off:]))
				rec, err := decodeRecord(data[off+headerLen : off+headerLen+length])
				if err != nil {
					// The CRC matched, so these bytes are what was written:
					// this frame never held a valid record.
					derr = fmt.Errorf("%w: offset %d (record %d): %v", ErrCorrupt, off, i, err)
					break
				}
				if rec.Type == TypeSnap && i != 0 {
					derr = fmt.Errorf("%w: offset %d: snapshot record %d is not at the journal head", ErrCorrupt, off, i)
					break
				}
				chunk = append(chunk, rec)
				off += headerLen + length
			}
			full <- chunk
		}
	}()
	for chunk := range full {
		for k := 0; k < len(chunk) && fnErr == nil; k++ {
			fnErr = fn(&chunk[k])
		}
	}
	return derr, fnErr
}

// frameAt reads the frame at off of data, a journal image that ends where
// the file does: the payload of a complete, CRC-valid frame; nil and no
// error where no complete frame starts, which is the torn tail of an
// append a crash (or, on a live file, a concurrent writer) cut short; and
// ErrCorrupt where damage has intact data after it.
func frameAt(data []byte, off int64) ([]byte, error) {
	size := int64(len(data))
	if size-off < headerLen {
		// Partial frame header at EOF: the append was cut short.
		return nil, nil
	}
	length := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if length == 0 {
		// Appends write whole frames, and a real payload is never empty, so
		// a zero length is NUL-fill — the block padding a crash leaves
		// behind unflushed appends. That padding runs to EOF; a zero length
		// with live bytes after it means the file was damaged in place.
		for _, b := range data[off:] {
			if b != 0 {
				return nil, fmt.Errorf("%w: zero-length frame followed by data", ErrCorrupt)
			}
		}
		return nil, nil
	}
	if length > maxRecordLen || off+headerLen+length > size {
		// The declared payload overruns EOF: a torn append. (A huge garbage
		// length always lands here — the file cannot contain it.)
		return nil, nil
	}
	payload := data[off+headerLen : off+headerLen+length]
	if crc32.ChecksumIEEE(payload) != sum {
		if off+headerLen+length == size {
			// The final record's payload was torn mid-write.
			return nil, nil
		}
		// Intact framing continues after this record, so the crash cannot
		// explain the damage: refuse to silently forget an acknowledged
		// mutation.
		return nil, fmt.Errorf("%w: bad CRC", ErrCorrupt)
	}
	return payload, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Err returns the sticky write failure, or nil while the journal is
// healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// RecordsSinceCompact returns the record count of the current file — the
// replay length a crash at this instant would pay.
func (j *Journal) RecordsSinceCompact() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Stats summarizes the journal.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Stats{
		Records:     j.records,
		Appended:    j.appended,
		Compactions: j.compactions,
		SizeBytes:   j.size,
		Syncs:       j.syncs,
		SyncSeconds: time.Duration(j.syncNanos).Seconds(),
	}
	if j.failed != nil {
		st.Failed = j.failed.Error()
	}
	return st
}

// Append encodes, frames and writes one record, syncing per the policy.
// The record is encoded straight into the journal's frame buffer, so a
// steady-state append allocates nothing. The first write failure is
// returned and latched: every later Append returns it without touching
// the file. Callers must treat an error as "this mutation is not durable"
// and roll it back or stop acknowledging.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	frame, err := AppendRecord(append(j.buf[:0], make([]byte, headerLen)...), rec)
	if err != nil {
		return err
	}
	j.buf = frame
	seal(frame)
	n, err := j.f.Write(frame)
	j.size += int64(n)
	if err == nil && n != len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		j.failed = fmt.Errorf("journal: append to %s: %w", j.path, err)
		return j.failed
	}
	j.records++
	j.appended++
	j.dirty = true
	if err := j.maybeSyncLocked(); err != nil {
		return err
	}
	return nil
}

// seal fills in the length and CRC of frame, a header followed by its
// payload.
func seal(frame []byte) {
	payload := frame[headerLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
}

// Sync forces an fsync now, regardless of the interval under SyncInterval
// — the barrier cross-shard stealing uses to make the victim's steal
// record durable before the thief acknowledges the re-admission. A file
// nothing was appended to since its last fsync is not synced again (under
// SyncAlways that is every file between appends). Under SyncNever it is a
// no-op (that policy explicitly trades durability away, and stealing
// inherits the trade). Failures latch exactly like append failures: the
// journal stops acknowledging work.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if j.opts.Sync == SyncNever || j.f == nil || !j.dirty {
		return nil
	}
	if err := j.syncTimedLocked(j.f); err != nil {
		j.failed = fmt.Errorf("journal: sync %s: %w", j.path, err)
		return j.failed
	}
	j.lastSync = time.Now()
	return nil
}

// maybeSyncLocked applies the sync policy after a successful write.
func (j *Journal) maybeSyncLocked() error {
	switch j.opts.Sync {
	case SyncAlways:
	case SyncInterval:
		if time.Since(j.lastSync) < j.opts.Interval {
			return nil
		}
	case SyncNever:
		return nil
	}
	if err := j.syncTimedLocked(j.f); err != nil {
		j.failed = fmt.Errorf("journal: sync %s: %w", j.path, err)
		return j.failed
	}
	j.lastSync = time.Now()
	return nil
}

// syncTimedLocked flushes f, charging the wall time (and, on success, one
// sync) to the journal's durability-overhead counters.
func (j *Journal) syncTimedLocked(f File) error {
	start := time.Now()
	err := f.Sync()
	j.syncNanos += int64(time.Since(start))
	if err == nil {
		j.syncs++
		j.dirty = false
	}
	return err
}

// Compact atomically replaces the journal's contents with a single
// snapshot record: write a sibling temp file, fsync it, rename it over the
// journal, fsync the directory. The handle continues appending to the new
// file. On any failure the journal latches the error — a half-compacted
// journal must stop acknowledging work, exactly like a failed append.
func (j *Journal) Compact(rec Record) error {
	if rec.Type != TypeSnap {
		return fmt.Errorf("journal: compact wants a snap record, got %s", rec.Type)
	}
	frame, err := AppendRecord(append(bytes.Clone(magic), make([]byte, headerLen)...), rec)
	if err != nil {
		return err
	}
	seal(frame[len(magic):])
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	// O_APPEND on a fresh file is plain sequential writing; reusing the
	// injectable opener keeps compaction under fault tests too.
	f, err := replaceFile(j.path, j.path+".compact", frame, j.opts.openAppend, j.syncTimedLocked)
	if err != nil {
		j.failed = fmt.Errorf("journal: compact %s: %w", j.path, err)
		return j.failed
	}
	// The renamed handle IS the new journal; retire the old one.
	_ = j.f.Close()
	j.f = f
	j.size = int64(len(frame))
	j.records = 1
	j.compactions++
	j.lastSync = time.Now()
	return nil
}

// WriteFileAtomic replaces path's contents with data the way Compact
// replaces a journal: write a sibling temp file, fsync it, rename it over
// path, fsync the directory. A crash leaves path holding the old bytes or
// data, never a mix; an error means data may not be durable.
func WriteFileAtomic(path string, data []byte) error {
	var o Options
	f, err := replaceFile(path, path+".tmp", data, o.openAppend, File.Sync)
	if err != nil {
		return fmt.Errorf("journal: replace %s: %w", path, err)
	}
	return f.Close()
}

// replaceFile writes data to tmp (opened by open, flushed by sync), renames
// it over path and fsyncs the directory, returning the handle still open
// on the renamed file. A failure before the rename removes tmp and leaves
// path untouched.
func replaceFile(path, tmp string, data []byte, open func(string) (File, error), sync func(File) error) (File, error) {
	_ = os.Remove(tmp)
	f, err := open(tmp)
	if err != nil {
		return nil, err
	}
	if n, werr := f.Write(data); werr != nil || n != len(data) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		err = werr
	} else if serr := sync(f); serr != nil {
		err = fmt.Errorf("sync: %w", serr)
	} else {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir flushes a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close syncs and closes the file. Under SyncInterval this final sync is
// what makes a clean shutdown loss-free: appends inside the last interval
// window have not hit the disk yet, and skipping the flush here would
// silently demote "clean exit" to "bounded loss". A file whose every byte
// an earlier fsync covered is closed without one. A failed final sync is
// therefore latched into the sticky failure (visible via Err after Close)
// and returned — callers must not report a clean shutdown over it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.failed
	}
	var errs []error
	if j.failed == nil && j.opts.Sync != SyncNever && j.dirty {
		if err := j.syncTimedLocked(j.f); err != nil {
			j.failed = fmt.Errorf("journal: close %s: final sync: %w", j.path, err)
			errs = append(errs, j.failed)
		}
	}
	if err := j.f.Close(); err != nil {
		errs = append(errs, err)
	}
	j.f = nil
	return errors.Join(errs...)
}
