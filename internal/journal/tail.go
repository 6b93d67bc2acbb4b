package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
)

// Tail reads a live journal incrementally, as a replication primary ships
// it: each record once its frame has landed whole and passed the checks
// Open makes, handed out as the payload bytes it was written with (only a
// file's head is decoded, to tell a snapshot). Records are numbered as the
// stream numbers them: from 1 at the engine's birth, while a snapshot head
// takes no number and stands for every record through its stamped cursor.
// When compaction renames a new file over the path, the Tail finishes the
// old file and resumes after the new head, which it hands out only if its
// consumer — holding every record before the seq the Tail was opened at —
// lacks records the snapshot covers.
type Tail struct {
	path  string
	want  int64    // the next sequence number the consumer lacks
	seq   int64    // the number of the last record passed in f
	f     *os.File // the file being read; nil until the path names one
	buf   []byte   // f's bytes from off-pos to its end, as last read
	pos   int      // buf's index of the next unread frame
	off   int64    // f's offset of the next unread frame; 0 before the magic
	stale bool     // the path names a newer file than f, so f is final
}

// Entry is what a Tail hands out: a record's payload, byte for byte what
// AppendRecord wrote, and its sequence number; or, with Snap set, a head
// snapshot's payload and the cursor it covers through. Payload aliases the
// Tail's buffer until the next call to Next.
type Entry struct {
	Payload []byte
	Seq     int64
	Snap    bool
}

// OpenTail returns a Tail over the journal at path for a consumer holding
// every record before sequence number from. Nothing is read until Next.
func OpenTail(path string, from int64) *Tail {
	return &Tail{path: path, want: from}
}

// Next returns the next entry the consumer lacks, once the file holds it
// whole and its sequence number (a snapshot's cursor) is at most limit.
// ok is false while there is none.
func (t *Tail) Next(limit int64) (e Entry, ok bool, err error) {
	for {
		payload, err := t.frame()
		if err != nil {
			return Entry{}, false, fmt.Errorf("journal: %s at offset %d: %w", t.path, t.off, err)
		}
		if payload == nil {
			if !t.stale {
				return Entry{}, false, nil
			}
			t.Close() // read to its end after the rename: move on
			continue
		}
		e := Entry{Payload: payload, Seq: t.seq + 1}
		if t.off == int64(len(magic)) {
			head, err := decodeRecord(payload)
			if err != nil {
				return Entry{}, false, fmt.Errorf("journal: %s: %w: offset %d (record 0): %v", t.path, ErrCorrupt, t.off, err)
			}
			if head.Type == TypeSnap {
				if head.Seq < 1 {
					// The records it subsumed cannot be numbered, so no
					// consumer can be brought up to date from it.
					return Entry{}, false, fmt.Errorf("journal: %s is headed by a snapshot without a replication cursor (compacted by a pre-replication build); the next compaction re-stamps it, or move the journal away to start fresh", t.path)
				}
				e = Entry{Payload: payload, Seq: head.Seq, Snap: true}
			}
		}
		if e.Seq > limit {
			return Entry{}, false, nil
		}
		t.pos += headerLen + len(payload)
		t.off += int64(headerLen + len(payload))
		t.seq = e.Seq
		if e.Seq >= t.want {
			t.want = e.Seq + 1
			return e, true, nil
		}
	}
}

// Close releases the file; a later Next reopens the path.
func (t *Tail) Close() {
	if t.f != nil {
		_ = t.f.Close()
	}
	t.f, t.stale = nil, false
}

// frame returns the payload of the complete frame at off, rereading f from
// off to its end when the buffer holds none; nil while f holds none there.
// Unconsumed bytes are read again, never kept: they may be a torn tail that
// a restart truncated and rewrote in place. The path is checked before the
// read: if compaction had renamed a new file into place by then, the read
// saw all f will ever hold, and f is stale.
func (t *Tail) frame() ([]byte, error) {
	if t.f == nil {
		f, err := os.Open(t.path)
		if err != nil {
			return nil, err
		}
		t.f, t.buf, t.pos, t.off, t.seq = f, t.buf[:0], 0, 0, 0
	}
	if p, err := frameAt(t.buf, int64(t.pos)); p != nil || err != nil {
		return p, err
	}
	cur, cerr := os.Stat(t.path)
	fi, err := t.f.Stat()
	if err != nil {
		return nil, err
	}
	t.stale = cerr == nil && !os.SameFile(cur, fi)
	n := int(max(fi.Size()-t.off, 0))
	if cap(t.buf) > 1<<20 && cap(t.buf) > 2*n {
		t.buf = nil // a catch-up's read is done with
	}
	t.buf = slices.Grow(t.buf[:0], n)[:n]
	n, err = t.f.ReadAt(t.buf, t.off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	t.buf, t.pos = t.buf[:n], 0
	if t.off == 0 {
		if n < len(magic) {
			return nil, nil // the header is still being written
		}
		if !bytes.Equal(t.buf[:len(magic)], magic) {
			return nil, fmt.Errorf("%w: header %q", ErrVersion, t.buf[:len(magic)])
		}
		t.pos, t.off = len(magic), int64(len(magic))
	}
	return frameAt(t.buf, int64(t.pos))
}
