package replicate

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"krad/internal/journal"
)

// FuzzReplicateFrame feeds arbitrary bytes — seeded with a real frame
// stream, truncations, and bit-flips — through the stream decoder. The
// invariants: never panic, and every frame returned must be CRC-valid,
// re-encodable, and explainable by the bytes physically present (no
// phantom frames conjured from noise).
func FuzzReplicateFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		f.Fatal(err)
	}
	for _, fr := range []Frame{
		{T: FrameHello, Epoch: 1, Shape: &journal.Shape{Caps: []int{2, 1}, Shards: 2, HalfLife: 8}},
		{T: FrameHelloAck, Epoch: 1, Shape: &journal.Shape{Caps: []int{2, 1}, Shards: 2}, Next: []int64{1, 1}},
		{T: FrameHeartbeat, Epoch: 1},
		{T: FrameAck, Epoch: 1, Next: []int64{4, 1}},
		{T: FrameFence, Epoch: 2},
	} {
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:len(streamMagic)])
	f.Add([]byte{})
	f.Add([]byte("KRADREP\x02garbage"))
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, goodLen, err := decodeStream(data)
		if err != nil {
			return
		}
		if goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d beyond %d input bytes", goodLen, len(data))
		}
		if len(data) < len(streamMagic) {
			if len(frames) != 0 || goodLen != 0 {
				t.Fatalf("decoded %d frames (goodLen %d) from %d bytes", len(frames), goodLen, len(data))
			}
			return
		}
		// Re-walk the raw bytes: each decoded frame must sit exactly where
		// the framing says, with a matching CRC, and re-encode cleanly.
		off := int64(len(streamMagic))
		for i, fr := range frames {
			if int64(len(data))-off < frameHeaderLen {
				t.Fatalf("frame %d decoded past the data", i)
			}
			length := int64(binary.LittleEndian.Uint32(data[off:]))
			sum := binary.LittleEndian.Uint32(data[off+4:])
			payload := data[off+frameHeaderLen : off+frameHeaderLen+length]
			if crc32.ChecksumIEEE(payload) != sum {
				t.Fatalf("frame %d accepted with a bad CRC", i)
			}
			if _, err := EncodeFrame(fr); err != nil {
				t.Fatalf("frame %d decoded but does not re-encode: %v", i, err)
			}
			off += frameHeaderLen + length
		}
		if off != goodLen {
			t.Fatalf("frames end at %d but goodLen is %d", off, goodLen)
		}
	})
}
