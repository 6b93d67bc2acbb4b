package dag

import "testing"

// FuzzGraphJSON runs the hand-written decoder against the encoding/json
// one it replaced (oracleUnmarshal): decode is the trust boundary for
// submitted jobs, journal records, replication frames and kradsim -load,
// and must accept and reject exactly what it did, build the same graph —
// neighbour order included — and re-encode it to the same bytes. The one
// licensed disagreement is an edge that is not exactly two integers, which
// the oracle pads, truncates or skips and the decoder refuses.
func FuzzGraphJSON(f *testing.F) {
	f.Add(Figure1().AppendJSON(nil))
	for _, seed := range []string{
		`{"k":2,"categories":[1,2],"edges":[[0,1]]}`,
		`{"k":1,"categories":[1,1,1],"edges":[[0,1],[1,2],[2,0]]}`,
		`{"k":-1}`,
		`[]`,
		`{`,
		`null`,
		`{"edges":[[1,0]],"name":"shuffled","categories":[2,1],"k":2}`,
		"{ \"k\" :\t2 ,\n\"categories\" : [ 1 , 2 ] ,\r\"edges\" : [ [ 0 , 1 ] ] } ",
		`{"k":1,"categories":[1,1,1],"edges":[[0,1], [1,2],[0,2] ,[0,1]]}`,
		`{"k":1,"categories":[1,1,1],"edges":[[2,1],[0,1]]}`,
		`{"k":2,"meta":{"owner":{"id":[1,2,{"x":null}]},"tags":["a","b"]},"categories":[1,2],"edges":[[0,1]]}`,
		`{"k":1,"k":2,"categories":[1],"categories":[1,2],"edges":[[1,0]],"edges":[[0,1]]}`,
		`{"K":2,"CATEGORIES":[1,2],"Edges":[[0,1]],"NAME":"upper"}`,
		`{"k":2,"name":null,"categories":null,"edges":null}`,
		`{"k":2,"categories":[1,2],"categories":[null,null]}`,
		`{"k":12345678901,"categories":[12345678901]}`,
		`{"k":1,"categories":[1,1],"edges":[[0,12345678901]]}`,
		`{"k":1.0,"categories":[1]}`,
		`{"k":1e0,"categories":[1]}`,
		`{"k":1,"categories":[1,1],"edges":[[1]]}`,
		`{"k":1,"categories":[1,1],"edges":[[0,1,7]]}`,
		`{"k":1,"categories":[1,1],"edges":[[0,1],null]}`,
		`{"k":1,"categories":[1,1],"edges":[[0,1]],"edges":[[null,1]]}`,
		`{"k":1,"name":"\u003c\ud83d\ude00\ud83d\"\\"}`,
		"{\"k\":1,\"name\":\"\xff\xe2\x80\xa8\"}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		err := g.UnmarshalJSON(data)
		want, oerr := oracleUnmarshal(data)
		switch {
		case err != nil && oerr != nil:
			return // both reject
		case edgeShapeOnly(err):
			return // the licensed disagreement
		case err != nil:
			t.Fatalf("rejected what the oracle accepts: %v", err)
		case oerr != nil:
			t.Fatalf("accepted what the oracle rejects: %v", oerr)
		}
		sameGraph(t, &g, want)
		// Accepted graphs must support the whole metric surface (k is
		// whatever the input said: WorkVector allocates k counters).
		if g.K() <= 1<<16 {
			_ = g.WorkVector()
		}
		if _, err := g.TopoOrder(); err != nil {
			t.Fatalf("accepted graph has no topo order: %v", err)
		}
		// What the encoder writes, both decoders read back alike. (Not as
		// g: edges are written by source, so predecessor order is the
		// input's only if the input was sorted that way.)
		encoded := g.AppendJSON(nil)
		var back Graph
		if err := back.UnmarshalJSON(encoded); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if want, err = oracleUnmarshal(encoded); err != nil {
			t.Fatalf("oracle rejects the encoding: %v", err)
		}
		sameGraph(t, &back, want)
	})
}

// FuzzInstanceExecution drives a runtime instance with arbitrary
// allotment sequences and checks it can never execute a task twice, exceed
// the graph's task count, or break precedence.
func FuzzInstanceExecution(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 3, 0, 5})
	f.Add(int64(42), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, allots []byte) {
		g := randomGraph(seed)
		policy := PickPolicy(((int(seed) % 5) + 5) % 5)
		in := NewInstance(g, policy, seed)
		seen := make(map[TaskID]bool)
		step := make(map[TaskID]int)
		for i, b := range allots {
			if in.Done() {
				break
			}
			for c := 1; c <= g.K(); c++ {
				n := int(b) % 5
				for _, id := range in.Execute(Category(c), n) {
					if seen[id] {
						t.Fatalf("task %d executed twice", id)
					}
					seen[id] = true
					step[id] = i
				}
			}
			in.Advance()
		}
		if in.Executed() != len(seen) {
			t.Fatalf("Executed()=%d but %d unique tasks ran", in.Executed(), len(seen))
		}
		for u := range seen {
			for _, v := range g.Successors(u) {
				if seen[v] && step[v] <= step[u] {
					t.Fatalf("edge %d→%d violated", u, v)
				}
			}
		}
	})
}
