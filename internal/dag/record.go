package dag

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"krad/internal/wire"
)

// The record form of a Graph is what a journal record carries:
//
//	{"name":"…","k":K,"n":N,"csr":"…"}
//
// with name omitted when empty and csr the unpadded standard base64 of
// unsigned LEB128 varints, written straight from the CSR arrays: every
// task's category and out-degree, task by task, then every task's
// successors in insertion order, each as the zigzag-coded difference from
// the successor before it — from the task itself for its first. A
// generated graph's successors sit near their source and near each other,
// so most varints are one byte, and the record form of kdag_mix's mean
// graph is about a sixth of its JSON form. The reader builds off and adj
// straight from the degrees, with no edge scratch, counting pass or
// scatter, and makes every check the JSON decoder makes, because a
// CRC-checked record is not a trusted one.
//
// The reader accepts exactly the bytes the writer writes: no white space,
// keys in this order, minimal varints, no padding, no line breaks (which
// encoding/base64 would skip) and nothing after the last varint. Decoding
// then encoding gives back the input, which FuzzGraphRecord checks.

var csrEncoding = base64.RawStdEncoding.Strict()

// AppendRecord appends the graph's record form to dst and returns the
// extended slice. The varints are written into dst and base64-encoded
// where they lie, so it allocates nothing but dst's growth (and a copy of
// a name that is not valid UTF-8).
func (g *Graph) AppendRecord(dst []byte) []byte {
	dst = append(dst, '{')
	if g.name != "" {
		dst = append(dst, `"name":`...)
		dst = wire.AppendString(dst, asRead(g.name))
		dst = append(dst, ',')
	}
	dst = append(dst, `"k":`...)
	dst = wire.AppendUint(dst, uint64(g.k))
	dst = append(dst, `,"n":`...)
	dst = wire.AppendUint(dst, uint64(len(g.cats)))
	dst = append(dst, `,"csr":"`...)
	at := len(dst)
	off, adj := g.csr()
	for u, c := range g.cats {
		dst = binary.AppendUvarint(dst, uint64(c))
		dst = binary.AppendUvarint(dst, uint64(off[u+1]-off[u]))
	}
	for u := range g.cats {
		prev := int64(u)
		for _, v := range adj[off[u]:off[u+1]] {
			d := int64(v) - prev
			dst = binary.AppendUvarint(dst, uint64(d<<1^d>>63))
			prev = int64(v)
		}
	}
	return append(encodeInPlace(dst, at), `"}`...)
}

// asRead returns name as either form reads it back: each byte that is not
// part of valid UTF-8 becomes U+FFFD. wire.AppendString would write such
// a byte as the escape \ufffd, which reads back as a name that the reader
// writes, and so wants, as the rune's own bytes.
func asRead(name string) string {
	if utf8.ValidString(name) {
		return name
	}
	var b strings.Builder
	for _, r := range name {
		b.WriteRune(r)
	}
	return b.String()
}

const base64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// encodeInPlace replaces dst[at:] with its unpadded standard base64. It
// works from the end: group i of three bytes becomes the four characters
// at at+4i, past every group before it, so no byte is overwritten before
// it is read.
func encodeInPlace(dst []byte, at int) []byte {
	n := len(dst) - at
	size := csrEncoding.EncodedLen(n)
	dst = slices.Grow(dst, size-n)[:at+size]
	src, out := dst[at:at+n], dst[at:]
	switch full := n / 3 * 3; n - full {
	case 1:
		a := uint(src[full])
		out[size-2], out[size-1] = base64Alphabet[a>>2], base64Alphabet[a<<4&63]
	case 2:
		a := uint(src[full])<<8 | uint(src[full+1])
		out[size-3], out[size-2], out[size-1] = base64Alphabet[a>>10], base64Alphabet[a>>4&63], base64Alphabet[a<<2&63]
	}
	for i := n/3 - 1; i >= 0; i-- {
		a := uint(src[3*i])<<16 | uint(src[3*i+1])<<8 | uint(src[3*i+2])
		o := out[4*i : 4*i+4]
		o[0], o[1], o[2], o[3] = base64Alphabet[a>>18], base64Alphabet[a>>12&63], base64Alphabet[a>>6&63], base64Alphabet[a&63]
	}
	return dst
}

// ReadRecord decodes the record form at s into g and leaves s just past
// it. The graph is checked as UnmarshalJSON checks it and comes out the
// same: compacted, with its height memo filled. On error g is unchanged.
func (g *Graph) ReadRecord(s *wire.Scanner) error {
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	if err := sc.readRecord(g, s); err != nil {
		return fmt.Errorf("dag: decode record: %w", err)
	}
	return nil
}

func (sc *decodeScratch) readRecord(g *Graph, s *wire.Scanner) error {
	if err := s.Literal(`{`); err != nil {
		return err
	}
	var name string
	if s.Literal(`"name":`) == nil {
		at := s.Pos
		if !s.At('"') {
			return s.WrongType("name", "a string")
		}
		if err := wire.ReadString(s, "name", &name); err != nil {
			return err
		}
		sc.raw = wire.AppendString(sc.raw[:0], name)
		if name == "" || !bytes.Equal(sc.raw, s.Data[at:s.Pos]) {
			return fmt.Errorf("name at offset %d is not written as the encoder writes it", at)
		}
		if err := s.Literal(`,`); err != nil {
			return err
		}
	}
	k, err := readCount(s, `"k":`, "k", math.MaxInt)
	if err != nil {
		return err
	}
	if k < 1 {
		return fmt.Errorf("k=%d, need ≥ 1", k)
	}
	n, err := readCount(s, `,"n":`, "n", math.MaxInt32)
	if err != nil {
		return err
	}
	if err := s.Literal(`,"csr":"`); err != nil {
		return err
	}
	at := s.Pos
	end := bytes.IndexByte(s.Data[at:], '"')
	if end < 0 {
		return fmt.Errorf("csr at offset %d is not terminated", at)
	}
	text := s.Data[at : at+end]
	if bytes.IndexByte(text, '\n') >= 0 || bytes.IndexByte(text, '\r') >= 0 {
		return fmt.Errorf("csr at offset %d holds a line break", at)
	}
	if sc.raw, err = csrEncoding.AppendDecode(sc.raw[:0], text); err != nil {
		return fmt.Errorf("csr at offset %d: %w", at, err)
	}
	s.Pos = at + end + 1
	if err := s.Literal(`}`); err != nil {
		return err
	}
	return sc.buildRecord(g, name, k, n)
}

// readCount reads key and the field's value after it, an integer written
// without sign or leading zero and at most limit.
func readCount(s *wire.Scanner, key, field string, limit int) (int, error) {
	if err := s.Literal(key); err != nil {
		return 0, err
	}
	if s.At('-') {
		return 0, s.WrongType(field, "an unsigned integer")
	}
	v, err := s.Int(field, uint64(limit))
	return int(v), err
}

// buildRecord assembles the graph of n tasks whose varints are in sc.raw.
func (sc *decodeScratch) buildRecord(g *Graph, name string, k, n int) error {
	raw := sc.raw
	// Every task takes at least two bytes and every edge one, which bounds
	// what the arrays below may take before they are made.
	if n > len(raw)/2 {
		return fmt.Errorf("%d tasks in %d bytes of varints", n, len(raw))
	}
	cats := make([]Category, n)
	mem := make([]int32, 3*n+1)
	indeg, off, h := mem[:n:n], mem[n:2*n+1:2*n+1], mem[2*n+1:]
	p := 0
	for u := range n {
		var c, d uint64
		if c, p = uvarint(raw, p); p < 0 {
			return fmt.Errorf("task %d: bad category varint", u)
		}
		if c < 1 || c > uint64(k) {
			return fmt.Errorf("task %d category %d out of range [1,%d]", u, c, k)
		}
		if d, p = uvarint(raw, p); p < 0 {
			return fmt.Errorf("task %d: bad out-degree varint", u)
		}
		if d > uint64(len(raw)) {
			return fmt.Errorf("task %d: out-degree %d exceeds the record", u, d)
		}
		cats[u] = Category(c)
		off[u+1] = off[u] + int32(d)
		if int(off[u+1]) > len(raw)-p {
			return fmt.Errorf("%d edges after task %d, more than the %d bytes left", off[u+1], u, len(raw)-p)
		}
	}

	adj := make([]TaskID, off[n])
	sc.size(n)
	stamp := sc.count[:n]
	clear(stamp)
	for u := range n {
		prev := int64(u)
		for e := off[u]; e < off[u+1]; e++ {
			var z uint64
			if z, p = uvarint(raw, p); p < 0 {
				return fmt.Errorf("edge %d: bad successor varint", e)
			}
			v := prev + (int64(z>>1) ^ -int64(z&1))
			switch {
			case v == int64(u):
				return fmt.Errorf("dag: self edge %d in graph %q", u, name)
			case uint64(v) >= uint64(n):
				return fmt.Errorf("dag: task id %d out of range [0,%d) in graph %q", v, n, name)
			case stamp[v] == int32(u)+1:
				return fmt.Errorf("dag: duplicate edge %d→%d in graph %q", u, v, name)
			}
			stamp[v] = int32(u) + 1
			indeg[v]++
			adj[e] = TaskID(v)
			prev = v
		}
	}
	if p != len(raw) {
		return fmt.Errorf("%d bytes after the last varint", len(raw)-p)
	}
	return sc.finish(g, name, k, cats, indeg, off, adj, h)
}

// uvarint reads the minimal varint at raw[p:], of up to 64 bits as a
// category may take, and returns it with the offset after it, or with -1
// if there is none.
func uvarint(raw []byte, p int) (uint64, int) {
	if p < len(raw) && raw[p] < 0x80 {
		return uint64(raw[p]), p + 1
	}
	x, n := binary.Uvarint(raw[p:])
	if n <= 0 || raw[p+n-1] == 0 {
		return 0, -1 // none, one past 64 bits, or a longer form of a shorter one
	}
	return x, p + n
}
