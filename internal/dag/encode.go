package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The wire form of a Graph is the JSON object
//
//	{"name":"…","k":K,"categories":[c0,c1,…],"edges":[[u,v],…]}
//
// with name omitted when empty, categories and edges null when empty, and
// edges listed in (source ID, then insertion) order. Both directions are
// written by hand: a K-DAG is decoded at admission, at restart and on a
// follower, and encoded into every journal record, and the reflective
// encoding/json round trip cost 60–90 ns per byte where a pass over the
// digits costs 3–9. The bytes written are exactly what encoding/json wrote
// for the struct this replaced, and the decoder accepts exactly what it
// accepted (any key order, white space, duplicate keys last-wins,
// case-folded key match, unknown keys skipped) with one exception: an edge
// must be exactly two integers. That struct is graphJSON in
// encode_test.go, kept as the oracle both claims are fuzzed against. Only
// a string that needs escaping, or has escapes, still goes through
// encoding/json: names are short, and its rules are then its own.

// MarshalJSON encodes the graph; see AppendJSON.
func (g *Graph) MarshalJSON() ([]byte, error) {
	// An endpoint has at most as many digits as the task count.
	digits := 1
	for n := len(g.cats); n >= 10; n /= 10 {
		digits++
	}
	size := 64 + len(g.name) + 3*len(g.cats) + (2*digits+4)*g.edges
	return g.AppendJSON(make([]byte, 0, size)), nil
}

// AppendJSON appends the graph's JSON encoding to dst and returns the
// extended slice.
func (g *Graph) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if g.name != "" {
		dst = append(dst, `"name":`...)
		dst = appendJSONString(dst, g.name)
		dst = append(dst, ',')
	}
	dst = append(dst, `"k":`...)
	dst = appendUint(dst, uint64(g.k))
	dst = append(dst, `,"categories":`...)
	if len(g.cats) == 0 {
		dst = append(dst, "null"...)
	} else {
		sep := byte('[')
		for _, c := range g.cats {
			dst = append(dst, sep)
			dst = appendUint(dst, uint64(c))
			sep = ','
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if g.edges == 0 {
		return append(dst, "null}"...)
	}
	sep := byte('[')
	for u, vs := range g.succ {
		for _, v := range vs {
			dst = append(dst, sep, '[')
			dst = appendUint(dst, uint64(u))
			dst = append(dst, ',')
			dst = appendUint(dst, uint64(v))
			dst = append(dst, ']')
			sep = ','
		}
	}
	return append(dst, "]}"...)
}

// appendUint appends n in decimal. Everything a graph encodes is a count
// or an index, and two per edge make strconv.AppendInt's generality most
// of an encode; most indices have three digits or fewer.
func appendUint(dst []byte, n uint64) []byte {
	switch {
	case n < 10:
		return append(dst, byte('0'+n))
	case n < 100:
		return append(dst, byte('0'+n/10), byte('0'+n%10))
	case n < 1000:
		return append(dst, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
	}
	return strconv.AppendUint(dst, n, 10)
}

// appendJSONString quotes s the way encoding/json does. A name of
// printable ASCII without the five characters it escapes is copied; any
// other is handed to encoding/json itself, so what it escapes and how
// (control characters, HTML's <, > and &, U+2028 and U+2029, bytes that are
// not UTF-8) never has to be restated here.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || strings.IndexByte(`"\<>&`, c) >= 0 {
			quoted, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// UnmarshalJSON decodes and validates a graph in one pass over the bytes
// and a few over the edges, so a malformed or cyclic graph is rejected at
// decode time rather than detonating mid-simulation. The adjacency lists
// are cut from one flat array, and the acyclicity check leaves the height
// memo filled, so admission's Span does not sort the graph again. On error
// the receiver is unchanged.
func (g *Graph) UnmarshalJSON(data []byte) error {
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	d := decoder{data: data, sc: sc}
	err := d.document()
	if err == nil {
		err = d.build(g)
	}
	if err != nil {
		return fmt.Errorf("dag: decode: %w", err)
	}
	return nil
}

// decodeScratch is what a decode needs and no decoded graph keeps: the
// fields as parsed, before their final size is known, and the counters and
// queue of the validation passes.
type decodeScratch struct {
	cats  []Category
	edges []TaskID // endpoints in input order: u0, v0, u1, v1, …
	count []int32
	order []TaskID
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

type decoder struct {
	data []byte
	pos  int
	sc   *decodeScratch

	name string
	k    int64
	// catsHi is how far this decode has written sc.cats. encoding/json
	// decodes a repeated key into the slice the first occurrence left, so
	// a null element there keeps a value; see categories.
	catsHi int
}

func (d *decoder) syntax(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.data[d.pos], d.pos, want)
}

// peek skips white space and returns the next byte, 0 at end of input.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// at reports whether the next byte is c, without skipping white space.
func (d *decoder) at(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

// literal consumes lit, or fails without moving.
func (d *decoder) literal(lit string) error {
	end := d.pos + len(lit)
	if end > len(d.data) || string(d.data[d.pos:end]) != lit {
		return fmt.Errorf("invalid literal at offset %d, want %s", d.pos, lit)
	}
	d.pos = end
	return nil
}

// open consumes the opening bracket the caller has seen and reports
// whether an element follows; if none does it consumes end as well.
func (d *decoder) open(end byte) bool {
	d.pos++
	if d.peek() == end {
		d.pos++
		return false
	}
	return true
}

// next consumes the separator after an element and reports whether another
// element follows, leaving the decoder at its first byte.
func (d *decoder) next(end byte) (more bool, err error) {
	switch d.peek() {
	case ',':
		d.pos++
		d.peek()
		return true, nil
	case end:
		d.pos++
		return false, nil
	}
	return false, d.syntax("',' or '" + string(end) + "'")
}

// document parses the whole input into the decoder's fields.
func (d *decoder) document() error {
	d.sc.cats, d.sc.edges = d.sc.cats[:0], d.sc.edges[:0]
	switch d.peek() {
	case 'n':
		// encoding/json leaves a struct untouched by null; k stays 0 and
		// fails build's range check.
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		for more := d.open('}'); more; {
			key, err := d.key()
			if err == nil {
				err = d.member(key)
			}
			if err == nil {
				more, err = d.next('}')
			}
			if err != nil {
				return err
			}
		}
	default:
		return d.syntax("an object")
	}
	if d.peek(); d.pos < len(d.data) {
		return d.syntax("end of input")
	}
	return nil
}

// key consumes an object key and its colon and returns the key, leaving
// the decoder at the first byte of the value.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("an object key")
	}
	key, err := d.stringToken()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.syntax("':'")
	}
	d.pos++
	d.peek()
	if bytes.IndexByte(key, '\\') < 0 {
		return key[1 : len(key)-1], nil
	}
	s, err := unquote(key)
	return []byte(s), err
}

var fieldNames = [...]string{"name", "k", "categories", "edges"}

// fieldFor maps a key to a field name the way encoding/json does: under
// Unicode simple case folding, so "K", "Edges" and "edgeſ" all match.
func fieldFor(key []byte) string {
	for _, f := range fieldNames {
		if len(key) >= len(f) && bytes.EqualFold(key, []byte(f)) {
			return f
		}
	}
	return ""
}

// member parses one value into the field its key names, or skips it.
func (d *decoder) member(key []byte) error {
	field := fieldFor(key)
	if field != "" && d.at('n') {
		// null empties a slice and leaves a scalar as it was.
		switch field {
		case "categories":
			d.sc.cats, d.catsHi = d.sc.cats[:0], 0
		case "edges":
			d.sc.edges = d.sc.edges[:0]
		}
		return d.literal("null")
	}
	var err error
	switch field {
	case "name":
		if !d.at('"') {
			return d.wrongType("name", "a string")
		}
		var token []byte
		if token, err = d.stringToken(); err == nil {
			d.name, err = unquote(token)
		}
	case "k":
		d.k, err = d.integer("k", math.MaxInt)
	case "categories":
		err = d.categories()
	case "edges":
		err = d.edgeList()
	default:
		err = d.skipValue(1)
	}
	return err
}

// wrongType reports a value that is not what its field takes.
func (d *decoder) wrongType(field, want string) error {
	return fmt.Errorf("%s at offset %d is not %s", field, d.pos, want)
}

// integer parses a JSON number that must be an integer of magnitude at
// most limit (one more when negative), the way strconv.ParseInt reads it:
// a fraction or an exponent is refused whatever its value.
func (d *decoder) integer(field string, limit uint64) (int64, error) {
	at := d.pos
	neg := d.at('-')
	if neg {
		d.pos++
		limit++
	}
	first := d.pos
	var n uint64
	over := false
	for ; d.pos < len(d.data) && d.data[d.pos]-'0' <= 9; d.pos++ {
		over = over || n > math.MaxInt64/10
		n = n*10 + uint64(d.data[d.pos]-'0')
	}
	switch {
	case d.pos == first, d.data[first] == '0' && d.pos > first+1, d.at('.'), d.at('e'), d.at('E'):
		d.pos = at
		return 0, d.wrongType(field, "an integer")
	case over || n > limit:
		return 0, fmt.Errorf("%s %s at offset %d overflows", field, d.data[at:d.pos], at)
	case neg:
		return -int64(n), nil
	}
	return int64(n), nil
}

// categories parses the categories array into the scratch slice.
func (d *decoder) categories() error {
	if !d.at('[') {
		return d.wrongType("categories", "an array")
	}
	cats := d.sc.cats[:0]
	more := d.open(']')
	if !more {
		// encoding/json replaces the slice on an empty array.
		d.catsHi = 0
	}
	for more {
		if d.at('n') {
			if err := d.literal("null"); err != nil {
				return err
			}
			// A null element keeps what an earlier "categories" key of
			// this object left at its index, 0 if none did.
			if len(cats) < d.catsHi {
				cats = cats[:len(cats)+1]
			} else {
				cats = append(cats, 0)
			}
		} else {
			c, err := d.integer("category", math.MaxInt)
			if err != nil {
				return err
			}
			cats = append(cats, Category(c))
		}
		var err error
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	d.sc.cats, d.catsHi = cats, max(d.catsHi, len(cats))
	return nil
}

// edgeList parses the edges array into the scratch slice. Nearly every
// byte of a graph is here, in the form the encoder writes, which
// compactEdges reads without a call per token; whatever it stops at goes
// the long way through edge.
func (d *decoder) edgeList() error {
	if !d.at('[') {
		return d.wrongType("edges", "an array")
	}
	edges := d.sc.edges[:0]
	for more := d.open(']'); more; {
		edges, d.pos = compactEdges(d.data, d.pos, edges)
		d.peek()
		u, v, err := d.edge(len(edges) / 2)
		if err != nil {
			return err
		}
		edges = append(edges, u, v)
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	d.sc.edges = edges
	return nil
}

// compactEdges appends the run of edges at pos that are written the way
// the encoder writes them — [u,v], with no white space, sign or leading
// zero, at most nine digits, and a comma after — and returns the offset of
// the first element that is not: the last one, if nothing else.
func compactEdges(data []byte, pos int, edges []TaskID) ([]TaskID, int) {
	for pos < len(data) && data[pos] == '[' {
		u, p := compactID(data, pos+1)
		if p >= len(data) || data[p] != ',' {
			break
		}
		v, q := compactID(data, p+1)
		if q+1 >= len(data) || data[q] != ']' || data[q+1] != ',' {
			break
		}
		edges = append(edges, u, v)
		pos = q + 2
	}
	return edges, pos
}

// compactID reads the one to nine digits at p and returns them with the
// offset after them, or with len(data) if that is not what is there.
func compactID(data []byte, p int) (TaskID, int) {
	n, q := 0, p
	for ; q < len(data) && data[q]-'0' <= 9; q++ {
		n = n*10 + int(data[q]-'0')
	}
	if q == p || q > p+9 || data[p] == '0' && q > p+1 {
		return 0, len(data)
	}
	return TaskID(n), q
}

// edge parses edge i, which must be exactly two integers: encoding/json
// decoded an edge into a [2]int32, which reads [1] as 1→0, [0,1,7] as 0→1
// and null as whatever the slot held.
func (d *decoder) edge(i int) (u, v TaskID, err error) {
	if !d.at('[') {
		if d.at('n') && d.literal("null") == nil {
			return 0, 0, fmt.Errorf("edge %d is null, want [u,v]", i)
		}
		return 0, 0, d.wrongType(fmt.Sprintf("edge %d", i), "an array")
	}
	var uv [2]int64
	n := 0
	for more := d.open(']'); more; n++ {
		switch {
		case n >= 2:
			err = d.skipValue(3) // counted for the message, not kept
		case d.at('n') && d.literal("null") == nil:
			err = fmt.Errorf("edge %d has a null endpoint", i)
		default:
			uv[n], err = d.integer("edge endpoint", math.MaxInt32)
		}
		if err == nil {
			more, err = d.next(']')
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if n != 2 {
		return 0, 0, fmt.Errorf("edge %d has %d elements, want 2", i, n)
	}
	return TaskID(uv[0]), TaskID(uv[1]), nil
}

// stringToken consumes the string whose opening quote is next and returns
// it, quotes included, its escapes checked but not resolved.
func (d *decoder) stringToken() ([]byte, error) {
	start := d.pos
	for d.pos++; d.pos < len(d.data); {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start:d.pos], nil
		case c < ' ':
			return nil, d.syntax("no control character in a string")
		case c != '\\':
			d.pos++
		default:
			d.pos++
			switch {
			case d.at('u'):
				d.pos++
				for end := d.pos + 4; d.pos < end; d.pos++ {
					if d.pos >= len(d.data) || !isHex(d.data[d.pos]) {
						return nil, d.syntax("four hex digits")
					}
				}
			case d.pos < len(d.data) && strings.IndexByte(`"\/bfnrt`, d.data[d.pos]) >= 0:
				d.pos++
			default:
				return nil, d.syntax("an escape")
			}
		}
	}
	return nil, d.syntax("'\"'")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f'
}

// unquote returns the string a token stringToken accepted stands for. One
// with an escape, or with bytes that are not UTF-8 (which encoding/json
// replaces by U+FFFD), is resolved by encoding/json itself.
func unquote(token []byte) (string, error) {
	body := token[1 : len(token)-1]
	if bytes.IndexByte(body, '\\') < 0 && utf8.Valid(body) {
		return string(body), nil
	}
	var s string
	err := json.Unmarshal(token, &s)
	return s, err
}

// skipValue checks the syntax of one JSON value of any shape and consumes
// it. depth is the number of containers the value sits in.
func (d *decoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		_, err := d.stringToken()
		return err
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return fmt.Errorf("nesting deeper than %d at offset %d", maxDepth, d.pos)
		}
		end := c + 2 // '}' and ']' in ASCII
		for more := d.open(end); more; {
			var err error
			if c == '{' {
				_, err = d.key()
			}
			if err == nil {
				err = d.skipValue(depth + 1)
			}
			if err == nil {
				more, err = d.next(end)
			}
			if err != nil {
				return err
			}
		}
		return nil
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.syntax("a value")
}

// number consumes a JSON number of any form.
func (d *decoder) number() error {
	digits := func() bool {
		start := d.pos
		for d.pos < len(d.data) && d.data[d.pos]-'0' <= 9 {
			d.pos++
		}
		return d.pos > start
	}
	if d.at('-') {
		d.pos++
	}
	if d.at('0') {
		d.pos++
	} else if !digits() {
		return d.syntax("a digit")
	}
	if d.at('.') {
		d.pos++
		if !digits() {
			return d.syntax("a digit")
		}
	}
	if d.at('e') || d.at('E') {
		d.pos++
		if d.at('+') || d.at('-') {
			d.pos++
		}
		if !digits() {
			return d.syntax("a digit")
		}
	}
	return nil
}

// build validates the parsed fields and assembles them into g. Categories
// are checked first, then every edge in input order for a self edge or an
// endpoint out of range, then duplicates, then cycles, each reported in
// the words AddEdge and TopoOrder use.
func (d *decoder) build(g *Graph) error {
	k, n, edges := int(d.k), len(d.sc.cats), d.sc.edges
	if k < 1 {
		return fmt.Errorf("k=%d, need ≥ 1", k)
	}
	for i, c := range d.sc.cats {
		if c < 1 || int(c) > k {
			return fmt.Errorf("task %d category %d out of range [1,%d]", i, c, k)
		}
	}

	// Degrees first, so that each task's lists can be cut to size.
	if cap(d.sc.count) < 2*n {
		d.sc.count = make([]int32, 2*n)
		d.sc.order = make([]TaskID, n)
	}
	count := d.sc.count[:2*n] // [:n] by source, [n:] by target
	clear(count)
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		if u == v {
			return fmt.Errorf("dag: self edge %d in graph %q", u, d.name)
		}
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			if uint(u) < uint(n) {
				u = v
			}
			return fmt.Errorf("dag: task id %d out of range [0,%d) in graph %q", u, n, d.name)
		}
		count[u]++
		count[n+int(v)]++
	}

	// Every list is a window of one array with its capacity cut to its
	// length, so AddEdge's append on a decoded graph moves the list
	// instead of writing into its neighbour's. The counts become cursors.
	lists := make([][]TaskID, 2*n)
	flat := make([]TaskID, len(edges))
	at := int32(0)
	for i, deg := range count {
		if deg > 0 {
			lists[i] = flat[at : at+deg : at+deg]
		}
		count[i] = at
		at += deg
	}
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		flat[count[u]] = v
		count[u]++
		flat[count[n+int(v)]] = u
		count[n+int(v)]++
	}
	succ, pred := lists[:n:n], lists[n:]

	// A duplicate is a successor reached twice from one source: stamp
	// each task with the source that last reached it.
	stamp, indeg := count[:n], count[n:]
	clear(stamp)
	for u, vs := range succ {
		for _, v := range vs {
			if stamp[v] == int32(u)+1 {
				return fmt.Errorf("dag: duplicate edge %d→%d in graph %q", u, v, d.name)
			}
			stamp[v] = int32(u) + 1
		}
	}

	for v := range indeg {
		indeg[v] = int32(len(pred[v]))
	}
	order := topoSort(succ, indeg, d.sc.order[:0])
	if len(order) != n {
		return cycleError(d.name, indeg)
	}

	g.name, g.k, g.cats = d.name, k, append([]Category(nil), d.sc.cats...)
	g.succ, g.pred, g.durs = succ, pred, nil
	g.edges = len(edges) / 2
	g.hmemo.Store(&heightsResult{h: heightsOver(succ, order)})
	return nil
}
