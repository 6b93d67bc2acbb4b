package dag

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"krad/internal/wire"
)

// readRecord decodes data as one record form and nothing else, not even
// white space.
func readRecord(data []byte) (*Graph, error) {
	g := new(Graph)
	s := wire.NewScanner(data)
	if err := g.ReadRecord(&s); err != nil {
		return nil, err
	}
	if s.Pos != len(data) {
		return nil, fmt.Errorf("dag: decode record: %d bytes after the record", len(data)-s.Pos)
	}
	return g, nil
}

// sameThroughRecord fails unless g's record form reads back as a graph
// that agrees with g on everything sameGraph checks, writes the same JSON
// and record bytes, and has the same heights and topological order.
func sameThroughRecord(t testing.TB, g *Graph) {
	t.Helper()
	rec := g.AppendRecord(nil)
	back, err := readRecord(rec)
	if err != nil {
		t.Fatalf("own record form rejected: %v\n%s", err, rec)
	}
	sameGraph(t, back, g)
	if again := back.AppendRecord(nil); !bytes.Equal(again, rec) {
		t.Fatalf("record form re-encoded\n%s\nwant\n%s", again, rec)
	}
	wantH, werr := g.heights()
	gotH, gerr := back.heights()
	if (werr == nil) != (gerr == nil) || !slices.Equal(gotH, wantH) {
		t.Fatalf("heights %v (%v), want %v (%v)", gotH, gerr, wantH, werr)
	}
	wantO, _ := g.TopoOrder()
	if gotO, _ := back.TopoOrder(); !slices.Equal(gotO, wantO) {
		t.Fatalf("topological order %v, want %v", gotO, wantO)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	graphs := []*Graph{
		New(3),
		New(2).Named("empty but named"),
		Singleton(2, 1),
		Figure1(),
		UniformChain(4, 9, 3).Named("a \"chain\" <&>   é"),
		MapReduce(3, 200, 10, 1, 2, 3, 1),
		ForkJoin(3, 3998, 1, 2, 3),
		Stencil2D(2, 6, 8, 2, 1, 2),
		DivideAndConquer(3, 3, 3, 1, 2, 3),
	}
	// Successors out of ID order, so some deltas are negative.
	shuffled := New(2)
	shuffled.AddTasks(1, 300)
	shuffled.AddTask(2)
	for _, v := range []TaskID{300, 7, 299, 8, 150, 1} {
		shuffled.MustEdge(0, v)
	}
	shuffled.MustEdge(299, 3)
	graphs = append(graphs, shuffled)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		graphs = append(graphs, randomGraph(rng.Int63()))
	}
	// A category past 35 bits, which the JSON form reads too.
	wide := New(1 << 40)
	wide.AddTask(1 << 35)
	wide.AddTask(1<<40 - 1)
	wide.MustEdge(0, 1)
	graphs = append(graphs, wide)
	for _, g := range graphs {
		sameThroughRecord(t, g)
	}

	// A name that is not UTF-8 reads back from the record form as it does
	// from the JSON form, with U+FFFD for each stray byte, and from then
	// on round-trips.
	bad := New(1).Named("bad-utf8 \xff\xc3 \xe2\x80")
	bad.AddTask(1)
	back, err := readRecord(bad.AppendRecord(nil))
	if err != nil {
		t.Fatalf("own record form of a name that is not UTF-8 rejected: %v", err)
	}
	var viaJSON Graph
	if err := viaJSON.UnmarshalJSON(bad.AppendJSON(nil)); err != nil {
		t.Fatal(err)
	}
	sameGraph(t, back, &viaJSON)
	sameThroughRecord(t, back)
}

// TestRecordBytes pins the record form of a small graph, byte for byte.
func TestRecordBytes(t *testing.T) {
	g := New(2).Named("d")
	g.AddTask(1)
	g.AddTask(2)
	g.AddTask(1)
	g.MustEdge(0, 2)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	// Varints 1 2 | 2 1 | 1 0, then 0→2: +2, 0→1: -1, 1→2: +1 zigzagged
	// to 4 1 2: AQICAQEABAEC.
	want := `{"name":"d","k":2,"n":3,"csr":"AQICAQEABAEC"}`
	if got := g.AppendRecord(nil); string(got) != want {
		t.Fatalf("wrote %s, want %s", got, want)
	}
	one := New(2)
	one.AddTask(1)
	if got := one.AppendRecord(nil); string(got) != `{"k":2,"n":1,"csr":"AQA"}` {
		t.Fatalf("one task wrote %s", got)
	}
}

func TestRecordRejectsMalformed(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"k":2,"n":1,"csr":"AQA="}`, "illegal base64"},
		{`{"k":2,"n":1,"csr":"AQB"}`, "illegal base64"}, // stray low bits
		{"{\"k\":2,\"n\":1,\"csr\":\"AQ\nA\"}", "line break"},
		{`{"k":2,"n":1,"csr":"AQA"} `, "1 bytes after the record"},
		{`{ "k":2,"n":1,"csr":"AQA"}`, "invalid literal"},
		{`{"n":1,"k":2,"csr":"AQA"}`, "invalid literal"},
		{`{"k":2,"n":1,"csr":"AQA","x":1}`, "invalid literal"},
		{`{"k":2,"n":1,"csr":"AQA`, "not terminated"},
		{`{"name":"","k":2,"n":0,"csr":""}`, "not written as the encoder writes it"},
		{`{"name":"\u0064","k":2,"n":0,"csr":""}`, "not written as the encoder writes it"},
		{`{"name":null,"k":2,"n":0,"csr":""}`, "name at offset 8 is not a string"},
		{`{"k":0,"n":0,"csr":""}`, "k=0"},
		{`{"k":-1,"n":0,"csr":""}`, "k at offset 5 is not an unsigned integer"},
		{`{"k":2,"n":-0,"csr":""}`, "n at offset 11 is not an unsigned integer"},
		{`{"k":02,"n":0,"csr":""}`, "not an integer"},
		{`{"k":2,"n":1.0,"csr":""}`, "not an integer"},
		{`{"k":2,"n":2147483648,"csr":""}`, "overflows"},
		{`{"k":2,"n":2,"csr":"AQA"}`, "2 tasks in 2 bytes"},
		{`{"k":2,"n":1,"csr":"AwA"}`, "task 0 category 3 out of range [1,2]"},
		{`{"k":2,"n":1,"csr":"gQA"}`, "bad category varint"},             // 0x81 0x00
		{`{"k":2,"n":1,"csr":"AYAA"}`, "bad out-degree varint"},          // 0x01 0x80 0x00
		{`{"k":2,"n":1,"csr":"////////////AgA"}`, "bad category varint"}, // past 64 bits
		{`{"k":2,"n":1,"csr":"////////////AQA"}`, "category 18446744073709551615 out of range"},
		{`{"k":2,"n":1,"csr":"AQAA"}`, "1 bytes after the last varint"},
		{`{"k":2,"n":1,"csr":"AQEA"}`, "dag: self edge 0"},
		{`{"k":2,"n":1,"csr":"AQEC"}`, "dag: task id 1 out of range [0,1)"},
		{`{"k":2,"n":1,"csr":"AQED"}`, "dag: task id -2 out of range [0,1)"},
		{`{"k":2,"n":2,"csr":"AQIBAAIA"}`, "dag: duplicate edge 0→1"},
		{`{"k":2,"n":2,"csr":"AQEBAQIB"}`, "dag: graph \"\" has a cycle through task 0"},
		{`{"k":2,"n":1,"csr":"AQP/"}`, "3 edges after task 0"},
		{`{"k":2,"n":2,"csr":"AQEBAA"}`, "more than the 0 bytes left"},
	} {
		_, err := readRecord([]byte(c.in))
		if err == nil || !strings.HasPrefix(err.Error(), "dag: decode record: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.in, err, c.want)
		}
	}
}

// TestRecordAppendAllocs: the varints are encoded where they are written,
// so writing a graph's record form into a buffer with room allocates
// nothing.
func TestRecordAppendAllocs(t *testing.T) {
	for _, c := range benchGraphs {
		buf := c.g.AppendRecord(nil)
		if avg := testing.AllocsPerRun(100, func() { buf = c.g.AppendRecord(buf[:0]) }); avg != 0 {
			t.Errorf("%s: %v allocations per append, want 0", c.name, avg)
		}
	}
}

// TestRecordDecodeBytes pins what a record decode of kdag_mix's mean graph
// allocates, taking the least of several decodes as TestGraphDecodeBytes
// does: the graph, its name, its categories, the in-degrees, offsets and
// heights in one array, the successors and the height memo — what the
// JSON decode keeps, with no more scratch.
func TestRecordDecodeBytes(t *testing.T) {
	g0 := benchGraphs[1].g.Clone().Named("mix212")
	data := g0.AppendRecord(nil)
	var before, after runtime.MemStats
	leastBytes, leastAllocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		_, err := readRecord(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		leastBytes = min(leastBytes, after.TotalAlloc-before.TotalAlloc)
		leastAllocs = min(leastAllocs, after.Mallocs-before.Mallocs)
	}
	if leastBytes > 14500 {
		t.Errorf("a record decode of mix212 allocates %d B, want ≤ 14,500", leastBytes)
	}
	if leastAllocs != 6 {
		t.Errorf("a record decode of mix212 makes %d allocations, want 6", leastAllocs)
	}
}

// FuzzGraphRecord holds the record form to two claims. Arbitrary bytes
// never panic its reader, and whatever it accepts encodes back to exactly
// those bytes. And every graph the JSON decoder accepts goes through the
// record form and comes back the same graph: the same JSON bytes, heights
// and topological order (sameThroughRecord).
func FuzzGraphRecord(f *testing.F) {
	for _, g := range []*Graph{New(1), Singleton(2, 1), Figure1(), UniformChain(2, 5, 1).Named("c"), randomGraph(3)} {
		f.Add(g.AppendRecord(nil))
		f.Add(g.AppendJSON(nil))
	}
	for _, seed := range []string{
		`{"k":2,"n":1,"csr":"AQA="}`,
		`{"k":2,"n":2,"csr":"AQEBAQIB"}`,
		`{"k":2,"n":1,"csr":"gQA"}`,
		`{"name":"d","k":2,"n":0,"csr":""}`,
		`{"k":1,"categories":[1,1,1],"edges":[[0,2],[0,1],[1,2]]}`,
		`{"edges":[[1,0]],"name":"shuffled","categories":[2,1],"k":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := readRecord(data); err == nil {
			if again := g.AppendRecord(nil); !bytes.Equal(again, data) {
				t.Fatalf("accepted\n%q\nwhich re-encodes as\n%q", data, again)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted graph does not validate: %v", err)
			}
		}
		var g Graph
		if g.UnmarshalJSON(data) == nil {
			sameThroughRecord(t, &g)
		}
	})
}

func BenchmarkGraphRecord(b *testing.B) {
	for _, c := range benchGraphs {
		data := c.g.AppendRecord(nil)
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := readRecord(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			buf := make([]byte, 0, len(data))
			for i := 0; i < b.N; i++ {
				buf = c.g.AppendRecord(buf[:0])
			}
			benchSink = buf
		})
	}
}
