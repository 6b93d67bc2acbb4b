package dag

import (
	"fmt"
	"math"
	"sync"

	"krad/internal/wire"
)

// The wire form of a Graph is the JSON object
//
//	{"name":"…","k":K,"categories":[c0,c1,…],"edges":[[u,v],…]}
//
// with name omitted when empty, categories and edges null when empty, and
// edges listed in (source ID, then insertion) order. Both directions are
// written by hand on internal/wire's scanner: a K-DAG is decoded at
// admission, at restart and on a follower, and encoded into every journal
// record, and the reflective encoding/json round trip cost 60–90 ns per
// byte where a pass over the digits costs 3–9. The bytes written are
// exactly what encoding/json wrote for the struct this replaced, and the
// decoder accepts exactly what it accepted (any key order, white space,
// duplicate keys last-wins, case-folded key match, unknown keys skipped)
// with one exception: an edge must be exactly two integers. That struct is
// graphJSON in encode_test.go, kept as the oracle both claims are fuzzed
// against.

// MarshalJSON encodes the graph; see AppendJSON.
func (g *Graph) MarshalJSON() ([]byte, error) {
	// An endpoint has at most as many digits as the task count.
	digits := 1
	for n := len(g.cats); n >= 10; n /= 10 {
		digits++
	}
	size := 64 + len(g.name) + 3*len(g.cats) + (2*digits+4)*g.NumEdges()
	return g.AppendJSON(make([]byte, 0, size)), nil
}

// AppendJSON appends the graph's JSON encoding to dst and returns the
// extended slice.
func (g *Graph) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if g.name != "" {
		dst = append(dst, `"name":`...)
		dst = wire.AppendString(dst, g.name)
		dst = append(dst, ',')
	}
	dst = append(dst, `"k":`...)
	dst = wire.AppendUint(dst, uint64(g.k))
	dst = append(dst, `,"categories":`...)
	if len(g.cats) == 0 {
		dst = append(dst, "null"...)
	} else {
		sep := byte('[')
		for _, c := range g.cats {
			dst = append(dst, sep)
			dst = wire.AppendUint(dst, uint64(c))
			sep = ','
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	off, adj := g.csr()
	if len(adj) == 0 {
		return append(dst, "null}"...)
	}
	sep := byte('[')
	for u := range g.cats {
		for _, v := range adj[off[u]:off[u+1]] {
			dst = append(dst, sep, '[')
			dst = wire.AppendUint(dst, uint64(u))
			dst = append(dst, ',')
			dst = wire.AppendUint(dst, uint64(v))
			dst = append(dst, ']')
			sep = ','
		}
	}
	return append(dst, "]}"...)
}

// UnmarshalJSON decodes and validates a graph that is the whole of data
// in one pass over the bytes and a few over the edges, so a malformed or
// cyclic graph is rejected at decode time rather than detonating
// mid-simulation. The graph is written compacted (see csr), and the
// acyclicity check leaves the height memo filled, so admission's Span does
// not sort the graph again. On error the receiver is unchanged.
func (g *Graph) UnmarshalJSON(data []byte) error {
	s := wire.NewScanner(data)
	return g.read(&s, true)
}

// ReadJSON decodes the graph at s — one value inside a larger document: a
// request body, a journal record — as UnmarshalJSON does, and leaves s
// just past it.
func (g *Graph) ReadJSON(s *wire.Scanner) error { return g.read(s, false) }

func (g *Graph) read(s *wire.Scanner, whole bool) error {
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	// The decoder holds a copy of the scanner, not a pointer to it: escape
	// analysis does not tell a struct's fields apart, so a pointer in it
	// would follow the name build keeps onto the heap.
	d := decoder{Scanner: *s, sc: sc}
	err := d.value()
	if err == nil && whole {
		err = d.End()
	}
	if err == nil {
		err = sc.build(g, d.name, d.k)
	}
	*s = d.Scanner
	if err != nil {
		return fmt.Errorf("dag: decode: %w", err)
	}
	return nil
}

// decodeScratch is what a decode needs and no decoded graph keeps: the
// fields as parsed, before their final size is known, the counters and
// queue of the validation passes, and a record form's varint bytes.
type decodeScratch struct {
	cats  []Category
	edges []TaskID // endpoints in input order: u0, v0, u1, v1, …
	count []int32
	order []TaskID
	raw   []byte
}

// size makes room for the counters and queue of an n-task graph.
func (sc *decodeScratch) size(n int) {
	if cap(sc.count) < 2*n {
		sc.count = make([]int32, 2*n)
		sc.order = make([]TaskID, n)
	}
}

// finish checks that the graph with these successors and in-degrees is
// acyclic and, if it is, makes g that graph with its height memo filled
// into h. The scratch must be sized for the graph's tasks.
func (sc *decodeScratch) finish(g *Graph, name string, k int, cats []Category, indeg, off []int32, adj []TaskID, h []int32) error {
	work := sc.count[len(indeg) : 2*len(indeg)]
	copy(work, indeg)
	order := topoSort(off, adj, work, sc.order[:0])
	if len(order) != len(indeg) {
		return cycleError(name, work)
	}
	g.name, g.k, g.cats = name, k, cats
	g.off, g.adj, g.build, g.indeg, g.durs = off, adj, nil, indeg, nil
	g.hmemo.Store(&heightsResult{h: heightsOver(off, adj, order, h)})
	return nil
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

type decoder struct {
	wire.Scanner
	sc *decodeScratch

	name string
	k    int64
	// catsHi is how far this decode has written sc.cats. encoding/json
	// decodes a repeated key into the slice the first occurrence left, so
	// a null element there keeps a value; see categories.
	catsHi int
}

// value parses the graph's object into the decoder's fields.
func (d *decoder) value() error {
	d.sc.cats, d.sc.edges = d.sc.cats[:0], d.sc.edges[:0]
	switch d.Peek() {
	case 'n':
		// encoding/json leaves a struct untouched by null; k stays 0 and
		// fails build's range check.
		return d.Literal("null")
	case '{':
		for more := d.Open('}'); more; {
			key, err := d.Key()
			if err == nil {
				err = d.member(key)
			}
			if err == nil {
				more, err = d.Next('}')
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return d.Syntax("an object")
}

var fieldNames = []string{"name", "k", "categories", "edges"}

// member parses one value into the field its key names, or skips it.
func (d *decoder) member(key []byte) error {
	field := wire.Field(key, fieldNames)
	if field != "" && d.Null() {
		// null empties a slice and leaves a scalar as it was.
		switch field {
		case "categories":
			d.sc.cats, d.catsHi = d.sc.cats[:0], 0
		case "edges":
			d.sc.edges = d.sc.edges[:0]
		}
		return nil
	}
	var err error
	switch field {
	case "name":
		err = wire.ReadString(&d.Scanner, "name", &d.name)
	case "k":
		d.k, err = d.Int("k", math.MaxInt)
	case "categories":
		err = d.categories()
	case "edges":
		err = d.edgeList()
	default:
		err = d.SkipValue()
	}
	return err
}

// categories parses the categories array into the scratch slice.
func (d *decoder) categories() error {
	if !d.At('[') {
		return d.WrongType("categories", "an array")
	}
	cats := d.sc.cats[:0]
	more := d.Open(']')
	if !more {
		// encoding/json replaces the slice on an empty array.
		d.catsHi = 0
	}
	for more {
		if d.Null() {
			// A null element keeps what an earlier "categories" key of
			// this object left at its index, 0 if none did.
			if len(cats) < d.catsHi {
				cats = cats[:len(cats)+1]
			} else {
				cats = append(cats, 0)
			}
		} else {
			c, err := d.Int("category", math.MaxInt)
			if err != nil {
				return err
			}
			cats = append(cats, Category(c))
		}
		var err error
		if more, err = d.Next(']'); err != nil {
			return err
		}
	}
	d.sc.cats, d.catsHi = cats, max(d.catsHi, len(cats))
	return nil
}

// edgeList parses the edges array into the scratch slice. Nearly every
// byte of a graph is here, in the form the encoder writes, which
// compactEdges reads without a call per token; whatever it stops at goes
// the long way through the scanner's Pair.
func (d *decoder) edgeList() error {
	if !d.At('[') {
		return d.WrongType("edges", "an array")
	}
	edges := d.sc.edges[:0]
	for more := d.Open(']'); more; {
		edges, d.Pos = compactEdges(d.Data, d.Pos, edges)
		d.Peek()
		u, v, err := d.Pair(len(edges)/2, math.MaxInt32)
		if err != nil {
			return err
		}
		edges = append(edges, TaskID(u), TaskID(v))
		if more, err = d.Next(']'); err != nil {
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

// build validates the parsed fields and assembles them into g. Categories
// are checked first, then every edge in input order for a self edge or an
// endpoint out of range, then duplicates, then cycles, each reported in
// the words AddEdge and TopoOrder use.
func (sc *decodeScratch) build(g *Graph, name string, k64 int64) error {
	k, n, edges := int(k64), len(sc.cats), sc.edges
	if k < 1 {
		return fmt.Errorf("k=%d, need ≥ 1", k)
	}
	for i, c := range sc.cats {
		if c < 1 || int(c) > k {
			return fmt.Errorf("task %d category %d out of range [1,%d]", i, c, k)
		}
	}

	// The graph's in-degrees, successor offsets and height memo share one
	// allocation. Degrees first: out-degrees into the offsets, shifted by
	// one, and in-degrees.
	mem := make([]int32, 3*n+1)
	indeg, off, h := mem[:n:n], mem[n:2*n+1:2*n+1], mem[2*n+1:]
	sc.size(n)
	next := sc.count[:n] // fill cursors
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		if u == v {
			return fmt.Errorf("dag: self edge %d in graph %q", u, name)
		}
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			if uint(u) < uint(n) {
				u = v
			}
			return fmt.Errorf("dag: task id %d out of range [0,%d) in graph %q", u, n, name)
		}
		off[u+1]++
		indeg[v]++
	}
	for u := range n {
		off[u+1] += off[u]
	}
	copy(next, off)
	adj := make([]TaskID, len(edges)/2)
	for i := 0; i < len(edges); i += 2 {
		u := edges[i]
		adj[next[u]] = edges[i+1]
		next[u]++
	}

	// A duplicate is a successor reached twice from one source: stamp
	// each task with the source that last reached it.
	stamp := next
	clear(stamp)
	for u := range n {
		for _, v := range adj[off[u]:off[u+1]] {
			if stamp[v] == int32(u)+1 {
				return fmt.Errorf("dag: duplicate edge %d→%d in graph %q", u, v, name)
			}
			stamp[v] = int32(u) + 1
		}
	}
	return sc.finish(g, name, k, append([]Category(nil), sc.cats...), indeg, off, adj, h)
}
