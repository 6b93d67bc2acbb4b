// Package replicate streams a primary kradd's committed journal records
// to a warm-standby follower over TCP, so the follower's engines track the
// primary bit-identically and can take over on failure.
//
// The design leans entirely on the determinism the journal already
// guarantees (internal/journal): engine state is a pure function of the
// committed mutation sequence, so replication is record shipping, nothing
// more. The primary (Sender) pushes each shard's records in order, tagged
// with a per-shard sequence number — the 1-based count of mutations since
// the engine's birth. The follower (Receiver) applies them through the
// same replay path a restart uses and journals them itself, which makes
// its WAL a byte-identical prefix of the primary's.
//
// The wire format mirrors the WAL's framing: after an 8-byte stream magic
// in each direction, both sides exchange length-prefixed CRC-checked JSON
// frames:
//
//	"KRADREP\x01" | { uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload }*
//
// A frame cut short by a dying connection is detected by the length
// prefix, a damaged one by the CRC; either way the reader drops the
// connection and the sender reconnects and resumes from the follower's
// acknowledged cursor — the sequence numbers make retransmission
// idempotent to detect (the follower refuses anything but next-expected).
//
// Split-brain safety comes from monotonic epochs: every frame carries the
// sender's epoch, a follower promotes by bumping its epoch, and a primary
// that ever observes a higher epoch fences itself permanently (refuses
// admissions with a located error). Each node's epoch and fence live in an
// EpochFile in its journal directory, so both survive restarts. See
// DESIGN.md §5.4.
package replicate

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"krad/internal/journal"
	"krad/internal/wire"
)

// streamMagic opens each direction of a replication connection. The last
// byte is the protocol version; anything else is rejected as a version
// mismatch rather than guessed at.
var streamMagic = []byte("KRADREP\x01")

const (
	frameHeaderLen = 4 + 4 // payload length + CRC32
	// maxFrameLen bounds a single frame; larger declared lengths are
	// treated as stream damage. Matches the journal's record bound — a
	// frame carries at most a snapshot record plus a small batch.
	maxFrameLen = 128 << 20
)

// ErrStreamVersion reports a peer speaking an unknown protocol version
// (or not a replication peer at all).
var ErrStreamVersion = errors.New("replicate: unknown stream magic (version mismatch or not a replication peer)")

// ErrFrameCorrupt reports a frame whose CRC or payload does not check
// out. Unlike the journal's torn tail, a stream has no benign damage:
// TCP already guarantees ordering, so any mismatch means the connection
// must be dropped and re-established.
var ErrFrameCorrupt = errors.New("replicate: corrupt frame")

// FrameType discriminates replication frames.
type FrameType string

const (
	// FrameHello opens a primary→follower stream: it carries the
	// primary's epoch and fleet shape. The follower answers with
	// FrameHelloAck or FrameFence.
	FrameHello FrameType = "hello"
	// FrameHelloAck is the follower's answer: its epoch, its fleet shape
	// and, per shard, the next sequence number it wants (Next). The
	// primary resumes each shard's stream from exactly there — if the
	// shapes agree; a follower that refuses the primary's shape sends its
	// own so the primary can say why, and hangs up.
	FrameHelloAck FrameType = "hello-ack"
	// FrameRecs carries a batch of consecutive committed records of one
	// shard; Seq is the sequence number of the first.
	FrameRecs FrameType = "recs"
	// FrameSnap carries a single snapshot record of one shard, replacing
	// all records up to and including Seq — the catch-up path when the
	// primary compacted past what the follower has.
	FrameSnap FrameType = "snap"
	// FrameHeartbeat keeps an idle stream's lease alive; the follower
	// answers every heartbeat (and every applied batch) with FrameAck.
	FrameHeartbeat FrameType = "hb"
	// FrameAck reports the follower's applied position: Next holds, per
	// shard, the next sequence number it wants. Acks renew the primary's
	// lease.
	FrameAck FrameType = "ack"
	// FrameFence is the follower's refusal: its epoch exceeds the
	// sender's, so the sender is a deposed primary and must stop writing.
	FrameFence FrameType = "fence"
)

// Frame is one replication protocol message. Which fields are meaningful
// depends on T; Validate pins the per-type shape so a corrupt-but-
// CRC-valid frame is caught at the boundary, exactly like journal
// records.
type Frame struct {
	T FrameType `json:"t"`
	// Epoch is the sender's replication epoch; every frame carries it.
	Epoch int64 `json:"epoch"`
	// Shape is the sender's fleet shape (hello and hello-ack frames); the
	// two sides must agree or replay would diverge.
	Shape *journal.Shape `json:"shape,omitempty"`
	// Shard is the shard index the records belong to (recs/snap frames).
	Shard int `json:"shard,omitempty"`
	// Seq is the sequence number of the first record (recs frames) or the
	// cursor the snapshot covers through (snap frames).
	Seq int64 `json:"seq,omitempty"`
	// Next holds per-shard next-wanted sequence numbers (hello-ack and
	// ack frames).
	Next []int64 `json:"next,omitempty"`
	// Recs carries the records (recs frames: one or more; snap frames:
	// exactly one snap record).
	Recs []journal.Record `json:"recs,omitempty"`
}

// Validate pins the per-type frame shape.
func (f Frame) Validate() error {
	if f.Epoch < 1 {
		return fmt.Errorf("replicate: %s frame carries epoch %d, want ≥ 1", f.T, f.Epoch)
	}
	// The handshake, and nothing else, carries a shape.
	switch handshake := f.T == FrameHello || f.T == FrameHelloAck; {
	case handshake && f.Shape == nil:
		return fmt.Errorf("replicate: %s frame carries no shape", f.T)
	case handshake:
		if err := f.Shape.Validate(); err != nil {
			return fmt.Errorf("replicate: %s frame: %w", f.T, err)
		}
	case f.Shape != nil:
		return fmt.Errorf("replicate: %s frame carries stray fields", f.T)
	}
	switch f.T {
	case FrameHello:
		if f.Shard != 0 || f.Seq != 0 || len(f.Next) != 0 || len(f.Recs) != 0 {
			return fmt.Errorf("replicate: hello frame carries stray fields")
		}
	case FrameHelloAck, FrameAck:
		if len(f.Next) == 0 {
			return fmt.Errorf("replicate: %s frame has no per-shard cursors", f.T)
		}
		for i, n := range f.Next {
			if n < 1 {
				return fmt.Errorf("replicate: %s frame shard %d wants sequence %d, want ≥ 1", f.T, i, n)
			}
		}
		if f.Shard != 0 || f.Seq != 0 || len(f.Recs) != 0 {
			return fmt.Errorf("replicate: %s frame carries stray fields", f.T)
		}
	case FrameRecs:
		if len(f.Recs) == 0 {
			return fmt.Errorf("replicate: recs frame has no records")
		}
		if f.Shard < 0 {
			return fmt.Errorf("replicate: recs frame has negative shard %d", f.Shard)
		}
		if f.Seq < 1 {
			return fmt.Errorf("replicate: recs frame starts at sequence %d, want ≥ 1", f.Seq)
		}
		if len(f.Next) != 0 {
			return fmt.Errorf("replicate: recs frame carries stray fields")
		}
		for i, r := range f.Recs {
			if r.Type == journal.TypeSnap {
				return fmt.Errorf("replicate: recs frame record %d is a snapshot (snapshots travel in snap frames)", i)
			}
		}
	case FrameSnap:
		if len(f.Recs) != 1 || f.Recs[0].Type != journal.TypeSnap {
			return fmt.Errorf("replicate: snap frame must carry exactly one snap record")
		}
		if f.Shard < 0 {
			return fmt.Errorf("replicate: snap frame has negative shard %d", f.Shard)
		}
		if f.Seq != f.Recs[0].Seq {
			return fmt.Errorf("replicate: snap frame cursor %d disagrees with its record's cursor %d", f.Seq, f.Recs[0].Seq)
		}
		if len(f.Next) != 0 {
			return fmt.Errorf("replicate: snap frame carries stray fields")
		}
	case FrameHeartbeat, FrameFence:
		if f.Shard != 0 || f.Seq != 0 || len(f.Next) != 0 || len(f.Recs) != 0 {
			return fmt.Errorf("replicate: %s frame carries stray fields", f.T)
		}
	default:
		return fmt.Errorf("replicate: unknown frame type %q", f.T)
	}
	for i, r := range f.Recs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("replicate: %s frame record %d: %w", f.T, i, err)
		}
	}
	return nil
}

// EncodeFrame validates and serializes a frame payload (the framing —
// length prefix and CRC — is the stream writer's business).
func EncodeFrame(f Frame) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f.appendJSON(nil)
}

// DecodeFrame parses and validates one frame payload. Both directions
// validate, so a corrupt-but-CRC-valid frame (impossible from a cut
// connection, possible from software bugs) is caught at the earliest
// boundary.
func DecodeFrame(payload []byte) (Frame, error) {
	var f Frame
	if err := wire.Decode(payload, f.readJSON); err != nil {
		return Frame{}, fmt.Errorf("%w: decode: %v", ErrFrameCorrupt, err)
	}
	if err := f.Validate(); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	return f, nil
}

// A frame payload is the JSON encoding/json gives Frame, written and read
// by hand like the records it carries, which go through the journal's own
// codec (journal.AppendRecord, Record.ReadJSON): the bytes on the stream
// are the ones json.Marshal wrote.

var frameFields = []string{"t", "epoch", "shape", "shard", "seq", "next", "recs"}

var frameTypes = []FrameType{FrameHello, FrameHelloAck, FrameRecs, FrameSnap, FrameHeartbeat, FrameAck, FrameFence}

func (f *Frame) readJSON(s *wire.Scanner) error {
	return s.Object("frame", func(key []byte) error {
		switch wire.Field(key, frameFields) {
		case "t":
			return wire.ReadString(s, "t", &f.T, frameTypes...)
		case "epoch":
			return wire.ReadInt(s, "epoch", &f.Epoch)
		case "shape":
			return wire.Ptr(s, &f.Shape, (*journal.Shape).ReadJSON)
		case "shard":
			return wire.ReadInt(s, "shard", &f.Shard)
		case "seq":
			return wire.ReadInt(s, "seq", &f.Seq)
		case "next":
			return wire.ReadInts(s, "next", &f.Next)
		case "recs":
			return wire.Array(s, "recs", &f.Recs, (*journal.Record).ReadJSON)
		}
		return s.SkipValue()
	})
}

func (f *Frame) appendJSON(dst []byte) ([]byte, error) {
	dst = f.appendHead(dst)
	for i, r := range f.Recs {
		var err error
		if dst, err = journal.AppendRecord(recSep(dst, i), r); err != nil {
			return nil, fmt.Errorf("replicate: %s frame record %d: %w", f.T, i, err)
		}
	}
	return closeRecs(dst, len(f.Recs)), nil
}

// appendHead appends the frame's fields up to its records. The payload of
// each record may follow, after recSep: encoded by journal.AppendRecord,
// or spliced from a WAL that it wrote. closeRecs ends the frame.
func (f *Frame) appendHead(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = wire.AppendString(dst, string(f.T))
	dst = append(dst, `,"epoch":`...)
	dst = wire.AppendInt(dst, f.Epoch)
	if f.Shape != nil {
		dst = f.Shape.AppendJSON(append(dst, `,"shape":`...))
	}
	dst = wire.AppendIntField(dst, `,"shard":`, int64(f.Shard))
	dst = wire.AppendIntField(dst, `,"seq":`, f.Seq)
	if len(f.Next) != 0 {
		dst = wire.AppendInts(append(dst, `,"next":`...), f.Next)
	}
	return dst
}

// recSep appends what precedes a frame's i-th record.
func recSep(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, `,"recs":[`...)
	}
	return append(dst, ',')
}

// closeRecs ends a frame that holds n records.
func closeRecs(dst []byte, n int) []byte {
	if n != 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// seal fills in the length and CRC of the frame that starts at start of
// buf and runs to its end.
func seal(buf []byte, start int) {
	payload := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
}

// WriteMagic opens a stream direction.
func WriteMagic(w io.Writer) error {
	_, err := w.Write(streamMagic)
	return err
}

// ReadMagic consumes and checks the peer's stream magic.
func ReadMagic(r io.Reader) error {
	var got [8]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if string(got[:]) != string(streamMagic) {
		return fmt.Errorf("%w: header %q", ErrStreamVersion, got[:])
	}
	return nil
}

// WriteFrame frames and writes one message: length prefix, CRC, payload.
func WriteFrame(w io.Writer, f Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	buf, err := f.appendJSON(make([]byte, frameHeaderLen))
	if err != nil {
		return err
	}
	seal(buf, 0)
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame from a stream positioned after the magic. A
// clean close between frames returns io.EOF; a connection cut mid-frame
// returns io.ErrUnexpectedEOF; damage returns ErrFrameCorrupt. In every
// non-nil case the connection is unusable and must be dropped.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// io.EOF here is a clean close between frames; a partial header
		// already comes back as io.ErrUnexpectedEOF.
		return Frame{}, err
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 || length > maxFrameLen {
		return Frame{}, fmt.Errorf("%w: frame length %d", ErrFrameCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Frame{}, fmt.Errorf("%w: bad CRC", ErrFrameCorrupt)
	}
	return DecodeFrame(payload)
}
