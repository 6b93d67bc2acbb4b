package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"krad/internal/wire"
)

// graphJSON is the struct encoding/json used to encode and decode a Graph
// before the codec in encode.go was written by hand. It and the two
// functions below are the oracle: what they produce and accept is what the
// codec must, edge shape aside (see edgeShapeOnly).
type graphJSON struct {
	Name  string     `json:"name,omitempty"`
	K     int        `json:"k"`
	Cats  []Category `json:"categories"`
	Edges [][2]int32 `json:"edges"`
}

func oracleMarshal(g *Graph) []byte {
	ej := graphJSON{Name: g.name, K: g.k, Cats: g.cats}
	for u := range g.cats {
		for _, v := range g.Successors(TaskID(u)) {
			ej.Edges = append(ej.Edges, [2]int32{int32(u), int32(v)})
		}
	}
	out, err := json.Marshal(ej)
	if err != nil {
		panic(err)
	}
	return out
}

func oracleUnmarshal(data []byte) (*Graph, error) {
	var ej graphJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	if ej.K < 1 {
		return nil, fmt.Errorf("dag: decode: k=%d, need ≥ 1", ej.K)
	}
	ng := New(ej.K).Named(ej.Name)
	for i, c := range ej.Cats {
		if c < 1 || int(c) > ej.K {
			return nil, fmt.Errorf("dag: decode: task %d category %d out of range [1,%d]", i, c, ej.K)
		}
		ng.AddTask(c)
	}
	for _, e := range ej.Edges {
		if err := ng.AddEdge(TaskID(e[0]), TaskID(e[1])); err != nil {
			return nil, fmt.Errorf("dag: decode: %w", err)
		}
	}
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	return ng, nil
}

// edgeShapeOnly reports whether err is the codec refusing an edge that is
// not exactly two integers — the one input class it and the oracle may
// disagree on, since [2]int32 pads, truncates and null-skips silently.
func edgeShapeOnly(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "dag: decode: edge ")
}

// sameGraph fails unless got and want agree on everything the package
// exposes, neighbour order included, and re-encode to the same bytes.
func sameGraph(t testing.TB, got, want *Graph) {
	t.Helper()
	if got.Name() != want.Name() || got.K() != want.K() ||
		got.NumTasks() != want.NumTasks() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := 0; i < want.NumTasks(); i++ {
		id := TaskID(i)
		if got.Category(id) != want.Category(id) {
			t.Fatalf("task %d: category %d, want %d", id, got.Category(id), want.Category(id))
		}
		if !slices.Equal(got.Successors(id), want.Successors(id)) {
			t.Fatalf("task %d: successors %v, want %v", id, got.Successors(id), want.Successors(id))
		}
		if !slices.Equal(got.Predecessors(id), want.Predecessors(id)) {
			t.Fatalf("task %d: predecessors %v, want %v", id, got.Predecessors(id), want.Predecessors(id))
		}
	}
	if a, b := got.AppendJSON(nil), oracleMarshal(want); !bytes.Equal(a, b) {
		t.Fatalf("re-encoded\n%s\nwant\n%s", a, b)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded graph does not validate: %v", err)
	}
	if got.Span() != want.Span() {
		t.Fatalf("span %d, want %d", got.Span(), want.Span())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Figure1()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	sameGraph(t, &back, orig)
	// The heights the decoder memoized are the ones a fresh sort computes.
	memo, _ := back.heights()
	fresh, err := back.computeHeights()
	if err != nil || !slices.Equal(memo, fresh) {
		t.Errorf("memoized heights %v, computed %v (%v)", memo, fresh, err)
	}
}

func TestJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		in, want string // want "" = whatever the oracle says, verbatim
	}{
		{`{"k":0,"categories":[],"edges":[]}`, ""},
		{`null`, ""},
		{`{"k":2,"categories":[3],"edges":[]}`, ""},
		{`{"k":1,"categories":[1,1],"edges":[[0,0]]}`, ""},
		{`{"k":1,"categories":[1,1],"edges":[[5,5]]}`, ""},
		{`{"k":1,"categories":[1,1],"edges":[[0,5]]}`, ""},
		{`{"k":1,"categories":[1,1],"edges":[[-1,0]]}`, ""},
		{`{"k":1,"categories":[1,1],"edges":[[0,1],[0,1]]}`, ""},
		{`{"k":1,"categories":[1,1,1],"edges":[[0,1],[1,2],[2,0]]}`, ""},
		{`{"k":1,"categories":[1,1,1,1],"edges":[[0,1],[2,3],[3,2]]}`, ""},
		// Malformed edges, which the oracle admits as 1→0, 0→1 and 0→0.
		{`{"k":1,"categories":[1,1],"edges":[[1]]}`, "dag: decode: edge 0 has 1 elements, want 2"},
		{`{"k":1,"categories":[1,1],"edges":[[0,1,7]]}`, "dag: decode: edge 0 has 3 elements, want 2"},
		{`{"k":1,"categories":[1,1],"edges":[[0,1],null]}`, "dag: decode: edge 1 is null, want [u,v]"},
		{`{"k":1,"categories":[1,1],"edges":[[0,1],[]]}`, "dag: decode: edge 1 has 0 elements, want 2"},
		{`{"k":1,"categories":[1,1],"edges":[[null,1]]}`, "dag: decode: edge 0 has a null endpoint"},
		{`{"k":1,"categories":[1,1],"edges":[[0,1,{"x":[1.5e3,"y"]},4]]}`, "dag: decode: edge 0 has 4 elements, want 2"},
		// Not integers, or not int32.
		{`{"k":1.0,"categories":[1]}`, "k at offset 5 is not an integer"},
		{`{"k":1e0,"categories":[1]}`, "k at offset 5 is not an integer"},
		{`{"k":"1","categories":[1]}`, "k at offset 5 is not an integer"},
		{`{"k":1,"categories":[1.0]}`, "category at offset 21 is not an integer"},
		{`{"k":1,"categories":[1,1],"edges":[[0,1.0]]}`, "not an integer"},
		{`{"k":1,"categories":[1,1],"edges":[[0,2147483648]]}`, "overflows"},
		{`{"k":1,"categories":[1,1],"edges":[[-2147483649,0]]}`, "overflows"},
		{`{"k":9223372036854775808,"categories":[1]}`, "overflows"},
		{`{"k":1,"categories":[1],"name":7}`, "name at offset 31 is not a string"},
		{`{"k":1,"categories":{"a":1}}`, "categories at offset 20 is not an array"},
		{`{"k":1,"categories":[1],"edges":7}`, "edges at offset 32 is not an array"},
		{`{"k":1,"categories":[1],"edges":[7]}`, "edge 0 at offset 33 is not an array"},
		// Not JSON.
		{`not json`, "invalid literal at offset 0, want null"},
		{`json`, "invalid character 'j' at offset 0, want an object"},
		{``, "unexpected end of input"},
		{`[]`, "want an object"},
		{`{"k":1,"categories":[1]} x`, "want end of input"},
		{`{"k":1,"categories":[1],}`, "want an object key"},
		{`{"k":1,"categories":[1,]}`, "category at offset 23 is not an integer"},
		{`{"k":01,"categories":[1]}`, "k at offset 5 is not an integer"},
		{`{"k":-,"categories":[1]}`, "k at offset 5 is not an integer"},
		{`{"k":1,"categories":[1,1],"edges":[[00,1]]}`, "edge endpoint at offset 36 is not an integer"},
		{`{"k":1,"categories":[1,1],"edges":[[0,01],[0,1]]}`, "edge endpoint at offset 38 is not an integer"},
		{`{"k":1,"categories":[1,1],"edges":[[0,1234567890],[0,1]]}`, "out of range"},
		{`{"k":1,"categories":[1],"name":"a` + "\n" + `b"}`, "control character"},
		{`{"k":1,"categories":[1],"name":"\x"}`, "want an escape"},
		{`{"k":1,"categories":[1],"name":"\u12g4"}`, "want four hex digits"},
		{`{"k":1,"categories":[1],"x":tru}`, "want true"},
		{`{"k":1,"categories":[1],"x":1.}`, "want a digit"},
		{`{"k":1,"categories":[1],"x":[1 2]}`, "want ',' or ']'"},
		{`{"k":1,"categories":[1],"x":{"a" 1}}`, "want ':'"},
		{`{"k":1,"categories":[1],"x":` + strings.Repeat("[", wire.MaxDepth) + strings.Repeat("]", wire.MaxDepth) + `}`, "nesting deeper than 10000"},
	}
	for _, c := range cases {
		var g Graph
		err := g.UnmarshalJSON([]byte(c.in))
		if err == nil {
			t.Errorf("accepted %s", c.in)
			continue
		}
		_, oerr := oracleUnmarshal([]byte(c.in))
		switch {
		case c.want == "" && (oerr == nil || err.Error() != oerr.Error()):
			t.Errorf("%s:\n  got    %v\n  oracle %v", c.in, err, oerr)
		case !strings.HasPrefix(err.Error(), "dag: decode: ") || !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q, want it to contain %q", c.in, err, c.want)
		case oerr == nil && !edgeShapeOnly(err):
			t.Errorf("%s: rejected (%v) but the oracle accepts it", c.in, err)
		}
		if g.k != 0 || g.cats != nil {
			t.Errorf("%s: a failed decode wrote the receiver: %v", c.in, &g)
		}
	}
}

// TestJSONAcceptsWhatEncodingJSONDid walks the corners of encoding/json's
// struct decoding that the hand-written scanner reproduces.
func TestJSONAcceptsWhatEncodingJSONDid(t *testing.T) {
	cases := []string{
		`{"k":2,"categories":[1,2],"edges":[[0,1]]}`,
		`{"edges":[[0,1]],"categories":[1,2],"name":"x","k":2}`,
		" {\t\"k\" : 2 ,\r\n \"categories\" : [ 1 , 2 ] , \"edges\" : [ [ 0 , 1 ] ] } \n",
		`{"k":1,"categories":[1,1,1,1],"edges":[[0,1], [1,2],[2,3],	[0,2],[0,3] ,[1,3]]}`,
		`{"K":2,"Categories":[1,2],"EDGES":[[0,1]],"NaMe":"n"}`,
		`{"\u006b":2,"categorie\u017f":[1,2],"edge\u017F":[[0,1]],"` + "\u212a" + `":1,"k":2}`,
		`{"k":2,"categories":[1,2],"edges":[[0,1]],"extra":{"a":[1,2.5e-3,{"b":null}],"c":"\ud83d\ude00"},"t":true,"f":false}`,
		`{"k":1,"k":2,"categories":[2,2,2],"categories":[1,2],"edges":[[1,0]],"edges":[[0,1]]}`,
		`{"k":2,"k":null,"name":"a","name":null,"categories":[1,2],"edges":null}`,
		`{"k":2,"categories":[1,2],"categories":null}`,
		`{"k":2,"categories":[1,2],"categories":[]}`,
		`{"k":2,"categories":null,"edges":null}`,
		`{"k":2}`,
		`{"k":12345678901,"categories":[12345678901,1]}`,
		`{"k":1,"categories":[1,1],"edges":[[-0,1]]}`,
		`{"k":9223372036854775807,"categories":[9223372036854775807]}`,
		// A null element keeps what an earlier key left in the slice.
		`{"k":2,"categories":[1,2],"categories":[null]}`,
		`{"k":2,"categories":[1,2],"categories":[2],"categories":[null,null]}`,
		`{"k":2,"categories":[1,2,1],"categories":[],"categories":[2]}`,
		// Names: every escape, surrogates paired and not, bad UTF-8.
		`{"k":1,"name":"\"\\\/\b\f\n\r\t\u0041\u00e9\u2028<>&"}`,
		`{"k":1,"name":"\ud83d\ude00 \ud83d \ude00 \ud83dx \ud83d\u0041"}`,
		"{\"k\":1,\"name\":\"a\xffb\xc3\"}",
		`{"k":1,"x":` + strings.Repeat("[", wire.MaxDepth-1) + strings.Repeat("]", wire.MaxDepth-1) + `}`,
	}
	for _, c := range cases {
		want, err := oracleUnmarshal([]byte(c))
		if err != nil {
			t.Fatalf("%.80s: the oracle rejects it: %v", c, err)
		}
		var got Graph
		if err := got.UnmarshalJSON([]byte(c)); err != nil {
			t.Errorf("%.80s: %v", c, err)
			continue
		}
		sameGraph(t, &got, want)
	}
}

func TestJSONDeterministic(t *testing.T) {
	g := MapReduce(2, 4, 2, 1, 1, 2, 2)
	a, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("encoding not deterministic")
	}
}

// TestGraphDecodeAllocs pins the decode's allocation count as a constant:
// the name, the categories, the successor list headers, the flat endpoint
// array, the in-degrees and heights (one array) and the memo — however
// many tasks and edges there are. It
// takes the least of several decodes: one that finds the scratch pool
// empty (as sync.Pool arranges at random under the race detector) sizes
// new scratch on top.
func TestGraphDecodeAllocs(t *testing.T) {
	for _, n := range []int{50, 400, 4000} {
		data := ForkJoin(3, n-2, 1, 2, 3).AppendJSON(nil)
		least := 1e9
		for i := 0; i < 20; i++ {
			least = min(least, testing.AllocsPerRun(1, func() {
				var g Graph
				if err := g.UnmarshalJSON(data); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if least > 12 {
			t.Errorf("%d tasks: %v allocations per decode, want ≤ 12", n, least)
		}
	}
}

// TestDecodedGraphAddEdgeDoesNotAlias: a decoded graph's lists are windows
// of one array, so growing one must move it, not overwrite the next.
func TestDecodedGraphAddEdgeDoesNotAlias(t *testing.T) {
	orig := Figure1()
	var g Graph
	if err := g.UnmarshalJSON(orig.AppendJSON(nil)); err != nil {
		t.Fatal(err)
	}
	want := orig.Clone() // a clone is cut from one array too
	for _, h := range []*Graph{&g, want, orig} {
		x := h.AddTask(2)
		h.MustEdge(0, 5) // grows succ[0], whose window abuts succ[1]'s
		h.MustEdge(4, x) // and succ[4], to a task whose in-degree is new
		h.MustEdge(3, 8) // and succ[3], mid-array, raising 8's in-degree
	}
	sameGraph(t, &g, orig)
	sameGraph(t, want, orig)
}

// TestGraphDecodeBytes pins what a decode of kdag_mix's mean graph
// allocates, taking the least of several decodes as TestGraphDecodeAllocs
// does: the edges are kept forward only in CSR form, one endpoint per edge
// and one offset per task, in the array that holds the in-degrees and the
// heights.
func TestGraphDecodeBytes(t *testing.T) {
	data := benchGraphs[1].g.AppendJSON(nil) // mix212
	var before, after runtime.MemStats
	leastBytes, leastAllocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		g := new(Graph)
		err := g.UnmarshalJSON(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		leastBytes = min(leastBytes, after.TotalAlloc-before.TotalAlloc)
		leastAllocs = min(leastAllocs, after.Mallocs-before.Mallocs)
	}
	if leastBytes > 14500 {
		t.Errorf("a decode of mix212 allocates %d B, want ≤ 14,500", leastBytes)
	}
	if leastAllocs != 6 {
		t.Errorf("a decode of mix212 makes %d allocations, want 6", leastAllocs)
	}
}

var benchGraphs = []struct {
	name string
	g    *Graph
}{
	{"chain7", UniformChain(1, 7, 1)},
	// kdag_mix's mean graph: 212 tasks, ~2,200 edges, ~20 KB.
	{"mix212", MapReduce(3, 200, 10, 1, 2, 3, 1)},
	// One task with 3,998 successors and one with 3,998 predecessors: the
	// shape on which a per-edge scan of either end's neighbours — the
	// source's successors for a duplicate, the target's predecessors — is
	// quadratic.
	{"fanin4000", ForkJoin(3, 3998, 1, 2, 3)},
}

var benchSink []byte

func BenchmarkGraphJSON(b *testing.B) {
	for _, c := range benchGraphs {
		data, err := json.Marshal(c.g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var g Graph
				if err := g.UnmarshalJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				out, err := c.g.MarshalJSON()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}
