package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
)

// encodeRecord returns a record's payload in a buffer of its own.
func encodeRecord(r Record) ([]byte, error) { return AppendRecord(nil, r) }

// oracleDecode is decodeRecord as it was before the codec was written by
// hand — encoding/json over the struct, then validation — and
// oracleEncode the encoder it replaced. They are what the codec is held
// to, byte for byte and value for value.
func oracleDecode(payload []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, err
	}
	return r, r.Validate()
}

func oracleEncode(r Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// moldEdgeShape reports the one licensed disagreement: a moldable edge
// that is not exactly two integers, which [][2]int padded, truncated or
// read as whatever the slot held. (A graph's edge is read by the same
// dag decoder on both sides.)
func moldEdgeShape(err error) bool {
	return err != nil && strings.Contains(err.Error(), "moldable: decode: edge ")
}

// sameRecord fails unless got and want hold the same values, graphs
// compared by k, name, categories and adjacency order.
func sameRecord(t testing.TB, got, want Record) {
	t.Helper()
	if len(got.Jobs) != len(want.Jobs) || (got.Jobs == nil) != (want.Jobs == nil) {
		t.Fatalf("jobs %+v, want %+v", got.Jobs, want.Jobs)
	}
	g, w := got, want
	g.Jobs, w.Jobs = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("record\n %+v\nwant\n %+v", g, w)
	}
	for i := range got.Jobs {
		gj, wj := got.Jobs[i], want.Jobs[i]
		if (gj.Graph == nil) != (wj.Graph == nil) {
			t.Fatalf("job %d: graph %v, want %v", i, gj.Graph, wj.Graph)
		}
		if gj.Graph != nil {
			sameGraph(t, gj.Graph, wj.Graph)
		}
		gj.Graph, wj.Graph = nil, nil
		if !reflect.DeepEqual(gj, wj) {
			t.Fatalf("job %d:\n %+v\nwant\n %+v", i, gj, wj)
		}
	}
}

// csrForm reports whether r's graphs are in the record form, which
// encoding/json can neither write nor read: it skips the form's keys and
// reads an edgeless graph of the same name and K. Such a record is held
// to the oracle in outline only, and its graphs to their JSON form by
// internal/dag's FuzzGraphRecord.
func csrForm(r Record) bool {
	return r.V >= csrVersion && slices.ContainsFunc(r.Jobs, func(j JobRecord) bool { return j.Graph != nil })
}

// outline returns r with each graph cut down to the name and K that
// encoding/json reads of its record form.
func outline(r Record) Record {
	r.Jobs = slices.Clone(r.Jobs)
	for i, j := range r.Jobs {
		if j.Graph != nil {
			r.Jobs[i].Graph = dag.New(j.Graph.K()).Named(j.Graph.Name())
		}
	}
	return r
}

// checkCSRRecord is the check for a record in the record form that the
// codec accepted as got and encoding/json as want: the two agree but for
// the graphs' tasks and edges, and got encodes to bytes that decode to
// got again and encode to themselves.
func checkCSRRecord(t testing.TB, got, want Record) {
	t.Helper()
	sameRecord(t, outline(got), outline(want))
	payload, err := encodeRecord(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	back, err := decodeRecord(payload)
	if err != nil {
		t.Fatalf("own encoding rejected: %v\n%s", err, payload)
	}
	sameRecord(t, back, got)
	if again, _ := encodeRecord(back); !bytes.Equal(again, payload) {
		t.Fatalf("decode∘encode wrote\n %s\nwant\n %s", again, payload)
	}
}

// versionAfterJobs reports whether a record's keys name a version after
// jobs that carry a graph. The codec reads a graph in the form the version
// before it names, encoding/json in none, and each writes it in the form
// the last version names; the record is malformed either way, as the
// writer puts the version first, and the two may judge it differently.
// A version after jobs with no graph is held to the oracle like any other.
func versionAfterJobs(data []byte) bool {
	d := json.NewDecoder(bytes.NewReader(data))
	if t, err := d.Token(); err != nil || t != json.Delim('{') {
		return false
	}
	graph := false
	for d.More() {
		t, err := d.Token()
		if err != nil {
			return false
		}
		var value json.RawMessage
		if d.Decode(&value) != nil {
			return false
		}
		switch key, _ := t.(string); {
		case strings.EqualFold(key, "jobs"):
			graph = graph || holdsGraph(value)
		case strings.EqualFold(key, "v") && graph:
			return true
		}
	}
	return false
}

// holdsGraph reports whether a jobs value has a job with a graph key, in
// any case, whose value is not null.
func holdsGraph(jobs json.RawMessage) bool {
	var list []map[string]json.RawMessage
	if json.Unmarshal(jobs, &list) != nil {
		return false
	}
	for _, job := range list {
		for key, v := range job {
			if strings.EqualFold(key, "graph") && string(v) != "null" {
				return true
			}
		}
	}
	return false
}

// graphFormError reports whether err is a graph's record-form reader
// refusing what it read: the one thing the codec may refuse in a record
// that encoding/json accepts with a graph at the record form's version.
func graphFormError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "dag: decode record: ")
}

func sameGraph(t testing.TB, got, want *dag.Graph) {
	t.Helper()
	if got.K() != want.K() || got.Name() != want.Name() || got.NumTasks() != want.NumTasks() {
		t.Fatalf("graph %v, want %v", got, want)
	}
	for i := 0; i < want.NumTasks(); i++ {
		v := dag.TaskID(i)
		if got.Category(v) != want.Category(v) ||
			!slices.Equal(got.Successors(v), want.Successors(v)) ||
			!slices.Equal(got.Predecessors(v), want.Predecessors(v)) {
			t.Fatalf("graph task %d differs: %v", v, got)
		}
	}
}

// curveSpecs covers encoding/json's float forms: the %e cutoff below 1e-6
// with its exponent's leading zero dropped, a fraction, a whole number,
// and a zero that is omitted.
func curveSpecs() moldable.Spec {
	sp := moldable.Spec{K: 2, Name: "curves"}
	for _, c := range []moldable.CurveSpec{
		{Type: moldable.CurvePowerLaw, Alpha: 1e-7},
		{Type: moldable.CurvePowerLaw, Alpha: 0.8},
		{Type: moldable.CurvePowerLaw, Alpha: 1},
		{Type: moldable.CurveAmdahl, Serial: 0},
		{Type: moldable.CurveAmdahl, Serial: 0.25},
	} {
		sp.Tasks = append(sp.Tasks, moldable.TaskSpec{Cat: 1 + len(sp.Tasks)%2, Work: 5, Max: 3, Curve: c})
	}
	sp.Edges = [][2]int{{0, 1}, {1, 2}, {0, 4}}
	return sp
}

// goldenRecords is one record of every type, and of every shape an admit
// takes: graph, rigid, mold, a mixed batch, steal-tagged and tenant-tagged.
func goldenRecords(t testing.TB) map[string]Record {
	t.Helper()
	mold := curveSpecs()
	rigid := profile.MustNewRigid(2, "r<&>\"", 2, 3, 4)
	mj, err := moldable.FromSpec(moldSpec("m", 3))
	if err != nil {
		t.Fatal(err)
	}
	mixed := []sim.JobSpec{
		{Graph: dag.Figure1(), Release: 3},
		{Source: rigid},
		{Source: mj, Release: 9},
	}
	tenant := must(AdmitRecord(7, []sim.JobSpec{{Graph: dag.Singleton(2, 1)}}))
	tenant.Tenant = "acme/ml"
	fair := FairState{V: 1, HalfLife: 64,
		Usage: map[string]fairshare.Usage{"acme/ml": {V: 12.5, AsOf: 40}, "b": {V: 1e-9, AsOf: 2}},
		Jobs:  map[int]string{3: "acme/ml", 4: "b"}}
	return map[string]Record{
		"admit-graph":  must(AdmitRecord(3, []sim.JobSpec{{Graph: dag.MapReduce(2, 6, 3, 1, 2, 1, 2), Release: 2}})),
		"admit-rigid":  must(AdmitRecord(0, []sim.JobSpec{{Source: rigid}})),
		"admit-mold":   {Type: TypeAdmit, V: recordVersion, Jobs: []JobRecord{{Fam: "moldable", Mold: &mold}}},
		"batch-mixed":  must(AdmitRecord(11, mixed)),
		"admit-steal":  stealAdmit(5, mixed[:2], []int{1<<32 | 7, 9}, nil),
		"admit-tenant": tenant,
		"cancel":       CancelRecord(4),
		"step":         StepsRecord(1, 17),
		"steps":        StepsRecord(6, 23),
		"steal":        StealRecord([]int{2, 5, 8}, 3, 40),
		"fair":         {Type: TypeFair, Fair: &fair},
		"snap": {Type: TypeSnap, Seq: 12, Fair: &fair,
			Snap:  &sim.EngineCheckpoint{Now: 7, Makespan: 7, ExecTotal: []int64{3, 4}, SchedState: []byte(`{"x":1}`), NextID: 3},
			Steal: &StealState{V: 1, In: 2, Redirects: map[int]int{1: 1<<32 | 4}}},
	}
}

// stealAdmit builds the thief half of a steal as the server does.
func stealAdmit(base int, specs []sim.JobSpec, from []int, tenants []string) Record {
	var rec Record
	if err := AdmitRecordInto(&rec, base, specs, from, tenants); err != nil {
		panic(err)
	}
	return rec
}

// codecRecords is goldenRecords plus the shapes a steal beside fair share
// writes, which testdata/golden.wal predates: a steal admission naming its
// jobs' tenants, and a snap whose steal state names the pairs it settled;
// and the graph admissions at the versions before csrVersion, which are
// written as they were, with their graphs in the JSON form.
func codecRecords(t testing.TB) map[string]Record {
	recs := goldenRecords(t)
	rigid := profile.MustNewRigid(2, "r", 1, 2, 3)
	recs["admit-steal-tenants"] = stealAdmit(5, []sim.JobSpec{{Graph: dag.Figure1(), Release: 3}, {Source: rigid}},
		[]int{1<<32 | 7, 9}, []string{"acme/ml", ""})
	recs["snap-origins"] = Record{Type: TypeSnap, Seq: 30,
		Snap:  &sim.EngineCheckpoint{Now: 9, Makespan: 9, ExecTotal: []int64{1, 2}, NextID: 4},
		Steal: &StealState{V: 1, In: 2, Origins: map[int]int{2: 1<<32 | 7, 3: 9}}}
	for name, v := range map[string]int{"admit-graph": 0, "admit-tenant": 0, "batch-mixed": recordVersion,
		"admit-steal": recordVersion, "admit-steal-tenants": tenantsVersion} {
		rec := recs[name]
		rec.V = v
		recs[name+"-v"+strconv.Itoa(v)] = rec
	}
	return recs
}

// TestRecordGolden pins the hand-written record codec against
// encoding/json: every record encodes to json.Marshal's bytes, and those
// bytes decode to the value json.Unmarshal reads. A record in the record
// form is held to the oracle in outline (checkCSRRecord) and its graphs
// to the ones it was built from.
func TestRecordGolden(t *testing.T) {
	for name, rec := range codecRecords(t) {
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if csrForm(rec) {
			back, err := decodeRecord(got)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameRecord(t, back, rec)
			oracle, err := oracleDecode(got)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			checkCSRRecord(t, back, oracle)
			continue
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote\n %s\nwant\n %s", name, got, want)
			continue
		}
		back, err := decodeRecord(got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle, err := oracleDecode(got)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		sameRecord(t, back, oracle)
		if again, _ := encodeRecord(back); !bytes.Equal(again, want) {
			t.Errorf("%s: decode∘encode wrote\n %s\nwant\n %s", name, again, want)
		}
	}
	if _, err := encodeRecord(Record{Type: TypeAdmit, V: recordVersion, Jobs: []JobRecord{{Fam: "moldable", Mold: &moldable.Spec{
		K: 1, Tasks: []moldable.TaskSpec{{Curve: moldable.CurveSpec{Alpha: math.Inf(1)}}},
	}}}}); err == nil {
		t.Error("an infinite alpha encoded")
	}
}

// recordSeeds are raw payloads from the tests above and beside this file,
// the corners of encoding/json's struct decoding the codec reproduces, and
// the licensed disagreement.
var recordSeeds = []string{
	`{"t":"admit","jobs":[{"release":0,"graph":{"k":2,"categories":[1,2,1,2],"edges":[[0,1],[1,2],[2,3]]}}]}`,
	`{"t":"step","now":1}`,
	`{"t":"steps","now":4,"n":2}`,
	`{"t":"admit","v":2,"jobs":[{"release":0,"fam":"moldable","mold":` +
		`{"k":1,"tasks":[{"cat":1,"work":0,"max":1,"curve":{"type":"powerlaw","alpha":0.5}}]}}]}`,
	`{"t":"admit","v":2,"jobs":[{"release":4,"fam":"profile","rigid":{"k":2,"name":"r","cat":1,"procs":2,"steps":3}}]}`,
	`{"t":"admit","v":2,"jobs":[{"fam":"moldable","mold":{"k":1,"tasks":[{"cat":1,"work":3,"max":2,"curve":{"type":"powerlaw","alpha":1e-7}},` +
		`{"cat":1,"work":3,"max":2,"curve":{"type":"powerlaw","alpha":0.8}},{"cat":1,"work":3,"max":2,"curve":{"type":"amdahl","serial":0}},` +
		`{"cat":1,"work":3,"max":2,"curve":{"type":"powerlaw","alpha":1}}],"edges":[[0,1],[2,3]]}}]}`,
	// Key order, case folding, white space, unknown keys, duplicates.
	` { "JOBS" : [ { "Graph" : {"k":1,"categories":[1]} , "extra":[{"a":null}] } ] , "T" : "admit" , "x":1.5e3 } `,
	`{"t":"step","t":"cancel","id":3,"now":null}`,
	`{"t":"cancel","id":1,"id":2,"tenant":null}`,
	`{"t":"batch","jobs":[{"graph":{"k":1,"categories":[1]}},{"release":2,"graph":{"k":1,"categories":[1,1]}}],"jobs":[{"release":5},null]}`,
	`{"t":"admit","v":2,"jobs":[{"fam":"moldable","mold":{"k":1,"name":"a","tasks":[{"cat":1,"work":2,"max":1,"curve":{"type":"powerlaw","alpha":1}}]},` +
		`"mold":{"name":"b","tasks":[{"work":7,"curve":{"alpha":0.5}}]}}]}`,
	`{"t":"admit","v":2,"jobs":[{"fam":"profile","rigid":{"k":2,"cat":1,"procs":1,"steps":1},"rigid":{"procs":4}}]}`,
	`{"t":"admit","v":2,"jobs":[{"fam":"moldable","mold":{"k":1,"tasks":[{"cat":1,"work":2,"max":1,"curve":{"type":"powerlaw","alpha":1}},` +
		`{"cat":1,"work":2,"max":1,"curve":{"type":"powerlaw","alpha":1}}],"tasks":[null,{"work":9}],"edges":[[0,1]],"edges":[]}}]}`,
	`{"t":"steal","v":2,"ids":[1,2,3],"ids":[null,5],"to":1,"nbase":4}`,
	`{"t":"admit","v":2,"base":3,"from":[9],"jobs":[{"graph":{"k":1,"categories":[1]}}]}`,
	`{"t":"batch","v":3,"base":3,"from":[9,1],"tenants":["a",null,"b"],"tenants":[null,""],"jobs":[{"graph":{"k":1,"categories":[1]}},{"graph":{"k":1,"categories":[1]}}]}`,
	`{"t":"snap","seq":4,"snap":{"now":3,"exec_total":[1]},"steal":{"v":1,"in":1,"origins":{"0":7}}}`,
	"{\"t\":\"admit\",\"tenant\":\"a\x5cu00e9\xff\x5cud83d\",\"jobs\":[{\"graph\":{\"k\":1,\"categories\":[1]}}]}",
	`{"t":"fair","fair":{"v":1,"half_life":8,"usage":{"a":{"v":0.5,"as_of":3}},"jobs":{"4":"a"}},"fair":{"half_life":9}}`,
	`{"t":"snap","seq":2,"snap":{"now":3,"exec_total":[1]},"steal":{"v":1,"redirects":{"1":7}},"snap":{"makespan":3}}`,
	// The record form, and records at its version with no graph.
	`{"t":"admit","v":4,"jobs":[{"release":0,"graph":{"name":"d","k":2,"n":3,"csr":"AQICAQEABAEC"}}]}`,
	`{"t":"batch","v":4,"base":3,"from":[9,1],"jobs":[{"graph":{"k":1,"n":1,"csr":"AQA"}},{"release":2,"graph":{"k":1,"n":2,"csr":"AQEBAAI"}}]}`,
	` { "V" : 4 , "JOBS" : [ { "Graph" : {"k":1,"n":1,"csr":"AQA"} , "extra":[{"a":null}] } ] , "T" : "admit" , "x":1.5e3 } `,
	`{"t":"admit","v":4,"jobs":[{"release":4,"fam":"profile","rigid":{"k":2,"name":"r","cat":1,"procs":2,"steps":3}}]}`,
	`{"t":"batch","v":4,"base":0,"jobs":[{"graph":{"k":1,"n":1,"csr":"AQA"}},{"release":1,"fam":"profile","rigid":{"k":2,"cat":1,"procs":1,"steps":1}}]}`,
	// Rejected by the codec, accepted by encoding/json: a record form that
	// is not as the writer writes it, and a JSON graph at the record form's
	// version.
	`{"t":"admit","v":4,"jobs":[{"release":0,"graph":{"k":1, "n":1,"csr":"AQA"}}]}`,
	`{"t":"admit","v":4,"jobs":[{"release":0,"graph":{"k":1,"n":1,"csr":"AQAA"}}]}`,
	`{"t":"admit","v":4,"jobs":[{"graph":{"k":1,"categories":[1]}}]}`,
	// A version after the jobs, which the two may judge differently.
	`{"t":"admit","jobs":[{"graph":{"k":1,"categories":[1]}}],"v":4}`,
	`{"t":"admit","v":4,"jobs":[{"graph":{"k":1,"n":1,"csr":"AQA"}}],"v":0}`,
	`{"t":"admit","v":7,"joBs":[{"grAph":{"k":1}}],"v":0}`,
	`{"t":"admit","v":4,"jobs":[{"fam":"profile","rigid":{"k":2,"cat":1,"procs":1,"steps":1}}],"v":2}`,
	// Rejected by both.
	`{"t":"step","now":1.0}`,
	`{"t":"step","now":"1"}`,
	`{"t":7}`,
	`{"t":"step","jobs":{}}`,
	`{"t":"admit","jobs":[{"mold":{"k":1,"tasks":[{"curve":{"alpha":1e400}}]}}]}`,
	`{"t":"step"} x`,
	`[]`,
	`null`,
	// The licensed disagreement: [][2]int read these as 1→0 and 0→1.
	`{"t":"admit","v":2,"jobs":[{"fam":"moldable","mold":{"k":1,"tasks":[{"cat":1,"work":1,"max":1,"curve":{"type":"powerlaw","alpha":1}},` +
		`{"cat":1,"work":1,"max":1,"curve":{"type":"powerlaw","alpha":1}}],"edges":[[1]]}}]}`,
	`{"t":"admit","v":2,"jobs":[{"fam":"moldable","mold":{"k":1,"tasks":[{"cat":1,"work":1,"max":1,"curve":{"type":"powerlaw","alpha":1}},` +
		`{"cat":1,"work":1,"max":1,"curve":{"type":"powerlaw","alpha":1}}],"edges":[[0,1,7]]}}]}`,
}

// FuzzRecordCodec runs the record decoder against the encoding/json one it
// replaced: same verdict, same record, and the same bytes when either is
// encoded again. Only a moldable edge that is not two integers may differ.
func FuzzRecordCodec(f *testing.F) {
	for _, rec := range codecRecords(f) {
		payload, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, s := range recordSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRecord(data)
		want, oerr := oracleDecode(data)
		switch {
		case err != nil && oerr != nil:
			return
		case moldEdgeShape(err), versionAfterJobs(data):
			return
		case oerr == nil && csrForm(want):
			if err == nil {
				checkCSRRecord(t, got, want)
			} else if !graphFormError(err) {
				t.Fatalf("rejected what the oracle accepts, not for a graph's form: %v", err)
			}
			return // the codec is stricter about the form than the oracle can tell
		case err != nil:
			t.Fatalf("rejected what the oracle accepts: %v", err)
		case oerr != nil:
			t.Fatalf("accepted what the oracle rejects: %v", oerr)
		}
		sameRecord(t, got, want)
		a, aerr := encodeRecord(got)
		b, berr := oracleEncode(want)
		if (aerr == nil) != (berr == nil) || !bytes.Equal(a, b) {
			t.Fatalf("re-encoded\n %s (%v)\nwant\n %s (%v)", a, aerr, b, berr)
		}
	})
}

// TestRecordSeedsAgree runs the fuzz seeds' checks as a plain test and
// pins that the licensed disagreements are exactly the malformed edges,
// the record forms the oracle cannot read, and versions after the jobs.
func TestRecordSeedsAgree(t *testing.T) {
	for _, s := range recordSeeds {
		got, err := decodeRecord([]byte(s))
		want, oerr := oracleDecode([]byte(s))
		switch {
		case versionAfterJobs([]byte(s)):
			// Licensed: a graph read in one form and written in another.
		case moldEdgeShape(err):
			if oerr != nil {
				t.Errorf("%.60s: the oracle rejects a malformed edge too: %v", s, oerr)
			}
		case oerr == nil && csrForm(want):
			if err == nil {
				checkCSRRecord(t, got, want)
			} else if !graphFormError(err) {
				t.Errorf("%.60s: rejected, not for a graph's form: %v", s, err)
			}
		case (err == nil) != (oerr == nil):
			t.Errorf("%.60s: verdict %v, oracle %v", s, err, oerr)
		case err == nil:
			sameRecord(t, got, want)
		}
	}
}

// TestJournalAppendAllocs: a record is encoded into the journal's own
// frame buffer, a graph's varints included, so a steady-state append
// allocates nothing.
func TestJournalAppendAllocs(t *testing.T) {
	j, _ := mustOpen(t, tempJournal(t), Options{Sync: SyncNever})
	defer j.Close()
	rigid, err := AdmitRecord(0, []sim.JobSpec{{Source: profile.MustNewRigid(2, "r", 1, 2, 3), Release: 4}})
	if err != nil {
		t.Fatal(err)
	}
	graph, err := AdmitRecord(1, []sim.JobSpec{{Graph: dag.MapReduce(3, 200, 10, 1, 2, 3, 1), Release: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{StepsRecord(1, 5), rigid, graph} {
		mustAppend(t, j, rec)
		if avg := testing.AllocsPerRun(200, func() { mustAppend(t, j, rec) }); avg != 0 {
			t.Errorf("%s record: %.1f allocations per append, want 0", rec.Type, avg)
		}
	}
}

// TestRecordDecodeAllocs: decoding a graph record is one budget whatever
// the graph's size — the record's own few allocations plus the graph
// reader's six (BenchmarkGraphRecord in internal/dag).
func TestRecordDecodeAllocs(t *testing.T) {
	for _, n := range []int{50, 400, 4000} {
		payload, err := encodeRecord(must(AdmitRecord(0, []sim.JobSpec{{Graph: dag.ForkJoin(3, n-2, 1, 2, 3)}})))
		if err != nil {
			t.Fatal(err)
		}
		least := 1e9
		for i := 0; i < 20; i++ {
			least = min(least, testing.AllocsPerRun(1, func() {
				if _, err := decodeRecord(payload); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%d tasks: %v allocations", n, least)
		if least > 10 {
			t.Errorf("%d tasks: %v allocations per record, want ≤ 10", n, least)
		}
	}
}

func must(r Record, err error) Record {
	if err != nil {
		panic(err)
	}
	return r
}
