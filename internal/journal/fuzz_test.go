package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalDecode feeds arbitrary bytes — seeded with real journals,
// truncations, NUL fill and bit-flips — through the decoder. The
// invariants: never panic, and every record returned must be CRC-valid and
// a strict prefix of the frames actually present (no phantom records
// conjured from noise). The same bytes, appended to a live file in two
// writes split where the fuzzer says, must read alike through a Tail
// (checkTail).
func FuzzJournalDecode(f *testing.F) {
	for i, seed := range decodeSeeds(f) {
		f.Add(seed, uint(i*7))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		checkTail(t, data, int(split%uint(len(data)+1)))
		recs, _, err := decodeAll(data)
		if err != nil {
			return
		}
		// No-error decodes must be explainable: every returned record
		// re-verifies against the frames physically present in data.
		if len(data) < len(magic) && len(recs) != 0 {
			t.Fatalf("decoded %d records from %d bytes", len(recs), len(data))
		}
		off := len(magic)
		for i := range recs {
			if off+headerLen > len(data) {
				t.Fatalf("record %d claimed beyond EOF", i)
			}
			n := binary.LittleEndian.Uint32(data[off:])
			sum := binary.LittleEndian.Uint32(data[off+4:])
			payload := data[off+headerLen : off+headerLen+int(n)]
			if crc32.ChecksumIEEE(payload) != sum {
				t.Fatalf("record %d has bad CRC yet was returned", i)
			}
			if _, err := decodeRecord(payload); err != nil {
				t.Fatalf("record %d returned but does not re-decode: %v", i, err)
			}
			off += headerLen + int(n)
		}
	})
}

// FuzzJournalOpen exercises the full Open path (torn-tail repair included)
// on arbitrary file contents: it must never panic, and when it succeeds
// the repaired journal must reopen cleanly with the same records.
func FuzzJournalOpen(f *testing.F) {
	var b bytes.Buffer
	b.Write(magic)
	payload, err := encodeRecord(StepRecord(7))
	if err != nil {
		f.Fatal(err)
	}
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	b.Write(hdr[:])
	b.Write(payload)
	f.Add(b.Bytes())
	f.Add(b.Bytes()[:b.Len()-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open(path, Options{})
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, recs2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("repaired journal does not reopen: %v", err)
		}
		defer j2.Close()
		if len(recs2) != len(recs) {
			t.Fatalf("reopen after repair: %d records, first open had %d", len(recs2), len(recs))
		}
	})
}
