package dag_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"krad/internal/dag"
	"krad/internal/workload"
)

// TestGraphJSONGolden pins the hand-written encoder byte for byte against
// what encoding/json wrote for the struct it replaced: journal records,
// replication frames and the benchmark's pinned digests all hold these
// bytes. Every shape decodes back to a graph that encodes the same way.
func TestGraphJSONGolden(t *testing.T) {
	noEdges := dag.New(2).Named("no-edges")
	noEdges.AddTasks(1, 3)
	// Everything encoding/json escapes: quote, backslash, controls, HTML's
	// three, U+2028 and U+2029 — and bytes that are not UTF-8, which do not
	// survive a round trip (they come back as U+FFFD) in either codec.
	escapes := dag.New(1).Named("a<b>&c \"q\" \\ / \b\f\n\r\t\x01\x7f \u00e9 \xe2\x80\xa8\xe2\x80\xa9 \U0001F600")
	escapes.AddTask(1)
	const badUTF8 = "bad-utf8 \xff\xc3 \xe2\x80"
	graphs := map[string]*dag.Graph{
		"singleton": dag.Singleton(3, 2),
		"figure1":   dag.Figure1(),
		"empty":     dag.New(2),
		"no-edges":  noEdges,
		"escapes":   escapes,
		badUTF8:     dag.New(1).Named(badUTF8),
	}
	for _, shape := range workload.AllShapes {
		for _, size := range []int{50, 400} {
			specs, err := workload.Mix{
				K: 3, Jobs: 1, Shapes: []workload.Shape{shape},
				MinSize: size, MaxSize: size, Seed: int64(size),
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			graphs[fmt.Sprintf("%s-%d", shape, size)] = specs[0].Graph
		}
	}
	for name, g := range graphs {
		want := dag.OracleMarshal(g)
		if got := g.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON wrote\n%.300s\nwant\n%.300s", name, got, want)
		}
		// Through encoding/json, as the journal and the wire reach it.
		if got, err := json.Marshal(g); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: json.Marshal wrote\n%.300s\nwant\n%.300s (%v)", name, got, want, err)
		}
		if name == badUTF8 {
			continue
		}
		var back dag.Graph
		if err := json.Unmarshal(want, &back); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if got := back.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: decoded and re-encoded to\n%.300s\nwant\n%.300s", name, got, want)
		}
	}
}
