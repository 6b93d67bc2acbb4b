package journal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
)

// moldSpec returns a small valid moldable wire spec.
func moldSpec(name string, tasks int) moldable.Spec {
	s := moldable.Spec{K: 2, Name: name}
	for v := 0; v < tasks; v++ {
		s.Tasks = append(s.Tasks, moldable.TaskSpec{
			Cat: 1 + v%2, Work: 6 + v, Max: 4,
			Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 0.5},
		})
		if v > 0 {
			s.Edges = append(s.Edges, [2]int{v - 1, v})
		}
	}
	return s
}

func moldJob(t *testing.T, name string, tasks int) *moldable.Job {
	t.Helper()
	j, err := moldable.FromSpec(moldSpec(name, tasks))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// moldEngine builds an engine running moldable jobs under K-RAD.
func moldEngine(t *testing.T) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{
		K: 2, Caps: []int{4, 4}, Scheduler: core.NewKRAD(2),
		Pick: dag.PickFIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGraphRecordsKeepLegacyEncoding is the backward-compat contract in
// the byte domain: an admit/batch record of graph-backed jobs at the
// original version encodes without any key that came later (v, fam, mold,
// the record form's n and csr), so a journal of a pre-family build
// re-encodes to its own bytes. This build writes such records at
// csrVersion, with the graphs in the record form.
func TestGraphRecordsKeepLegacyEncoding(t *testing.T) {
	rec, err := AdmitRecord(0, []sim.JobSpec{
		{Graph: dag.UniformChain(1, 3, 1)},
		{Graph: dag.UniformChain(1, 2, 1), Release: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.V != csrVersion {
		t.Fatalf("graph record written at version %d, want %d", rec.V, csrVersion)
	}
	rec.V = 0
	payload, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"v"`, `"fam"`, `"mold"`, `"n"`, `"csr"`} {
		if bytes.Contains(payload, []byte(key)) {
			t.Errorf("graph-backed record payload contains %s: %s", key, payload)
		}
	}
	// Decode → re-encode is byte-identical (no normalization drift).
	back, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	payload2, err := encodeRecord(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatalf("graph record did not round-trip byte-identically:\n %s\n %s", payload, payload2)
	}
}

// TestLegacyPayloadDecodesAndReplays feeds hand-written journal payloads
// in the pre-family encoding — no v, no fam, graphs only — through
// decodeRecord and Replay, and checks the rebuilt engine against one
// driven directly. Old journals must keep replaying bit-identically.
func TestLegacyPayloadDecodesAndReplays(t *testing.T) {
	legacy := []string{
		`{"t":"admit","jobs":[{"release":0,"graph":{"k":2,"categories":[1,2,1,2],"edges":[[0,1],[1,2],[2,3]]}}]}`,
		`{"t":"step","now":1}`,
		`{"t":"step","now":2}`,
		`{"t":"steps","now":4,"n":2}`,
	}
	var recs []Record
	for i, raw := range legacy {
		rec, err := decodeRecord([]byte(raw))
		if err != nil {
			t.Fatalf("legacy payload %d rejected: %v", i, err)
		}
		if rec.V != 0 {
			t.Fatalf("legacy payload %d decoded with version %d", i, rec.V)
		}
		recs = append(recs, rec)
	}
	replayed := moldEngine(t)
	if err := Replay(replayed, recs); err != nil {
		t.Fatal(err)
	}

	direct := moldEngine(t)
	g := dag.New(2)
	ts := []dag.TaskID{g.AddTask(1), g.AddTask(2), g.AddTask(1), g.AddTask(2)}
	for i := 0; i+1 < len(ts); i++ {
		g.MustEdge(ts[i], ts[i+1])
	}
	if _, err := direct.Admit(sim.JobSpec{Graph: g}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 1, 2} {
		if _, err := direct.StepN(n); err != nil {
			t.Fatal(err)
		}
	}
	sr, sd := replayed.Snapshot(), direct.Snapshot()
	if sr.Now != sd.Now || !reflect.DeepEqual(sr.ExecutedTotal, sd.ExecutedTotal) || sr.Completed != sd.Completed {
		t.Fatalf("legacy replay diverged from direct run:\nreplay %+v\ndirect %+v", sr, sd)
	}
}

// TestMoldableJournalRoundTrip drives a mixed graph+moldable engine while
// journaling every mutation, reopens the WAL, replays into a fresh
// engine, and requires bit-identical state — the family tag and spec
// payload must survive the disk round trip.
func TestMoldableJournalRoundTrip(t *testing.T) {
	path := tempJournal(t)
	j, _ := mustOpen(t, path, Options{})

	live := moldEngine(t)
	specs := []sim.JobSpec{
		{Source: moldJob(t, "m0", 4)},
		{Graph: dag.UniformChain(2, 3, 1)},
		{Source: moldJob(t, "m1", 3), Release: 2},
	}
	ids, err := live.AdmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AdmitRecord(ids[0], specs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.V != csrVersion {
		t.Fatalf("mixed batch record version %d, want %d", rec.V, csrVersion)
	}
	mustAppend(t, j, rec)
	for live.Remaining() > 0 {
		info, err := live.StepN(5)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, StepsRecord(info.Steps, info.Step))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recovered := mustOpen(t, path, Options{})
	defer j2.Close()
	got := recovered[0]
	if got.V != csrVersion {
		t.Fatalf("recovered record version %d, want %d", got.V, csrVersion)
	}
	if got.Jobs[0].Fam != "moldable" || got.Jobs[0].Mold == nil || got.Jobs[1].Fam != "" || got.Jobs[1].Graph == nil {
		t.Fatalf("recovered job records lost family tags: %+v", got.Jobs)
	}
	replayed := moldEngine(t)
	if err := Replay(replayed, recovered); err != nil {
		t.Fatal(err)
	}
	sl, sr := live.Snapshot(), replayed.Snapshot()
	if sl.Now != sr.Now || !reflect.DeepEqual(sl.ExecutedTotal, sr.ExecutedTotal) ||
		sl.Completed != sr.Completed || sl.Makespan != sr.Makespan {
		t.Fatalf("moldable replay diverged:\nlive   %+v\nreplay %+v", sl, sr)
	}
	if !reflect.DeepEqual(live.Result(), replayed.Result()) {
		t.Fatal("per-job results diverged after moldable replay")
	}
	// The engine must also agree about what family each job belongs to.
	for i, id := range ids {
		st, ok := replayed.Job(id)
		if !ok {
			t.Fatalf("replayed engine lost job %d", id)
		}
		want := sim.FamilyMoldable
		if specs[i].Graph != nil {
			want = sim.FamilyDAG
		}
		if st.Family != want {
			t.Fatalf("replayed job %d family = %v, want %v", id, st.Family, want)
		}
	}
}

// TestRecordValidationRejectsFamilyShapes exercises the versioned-record
// validation: every malformed family/version combination must be rejected
// on both encode and decode.
func TestRecordValidationRejectsFamilyShapes(t *testing.T) {
	sp := moldSpec("m", 2)
	g := dag.UniformChain(1, 2, 1)
	cases := []struct {
		name string
		rec  Record
		want string
	}{
		{"both-graph-and-mold", Record{Type: TypeAdmit, V: recordVersion,
			Jobs: []JobRecord{{Graph: g, Mold: &sp, Fam: "moldable"}}},
			"2 job payloads"},
		{"mold-and-rigid", Record{Type: TypeAdmit, V: recordVersion,
			Jobs: []JobRecord{{Mold: &sp, Rigid: &profile.RigidSpec{K: 2, Cat: 1, Procs: 1, Steps: 1}, Fam: "moldable"}}},
			"2 job payloads"},
		{"rigid-without-version", Record{Type: TypeAdmit,
			Jobs: []JobRecord{{Rigid: &profile.RigidSpec{K: 2, Cat: 1, Procs: 1, Steps: 1}, Fam: "profile"}}},
			"record version is 0"},
		{"rigid-wrong-fam", Record{Type: TypeAdmit, V: recordVersion,
			Jobs: []JobRecord{{Rigid: &profile.RigidSpec{K: 2, Cat: 1, Procs: 1, Steps: 1}, Fam: "moldable"}}},
			`family tag "moldable"`},
		{"mold-without-version", Record{Type: TypeAdmit,
			Jobs: []JobRecord{{Mold: &sp, Fam: "moldable"}}},
			"record version is 0"},
		{"mold-wrong-fam", Record{Type: TypeAdmit, V: recordVersion,
			Jobs: []JobRecord{{Mold: &sp, Fam: "dag"}}},
			`family tag "dag"`},
		{"mold-missing-fam", Record{Type: TypeAdmit, V: recordVersion,
			Jobs: []JobRecord{{Mold: &sp}}},
			"family tag"},
		{"graph-with-fam", Record{Type: TypeAdmit,
			Jobs: []JobRecord{{Graph: g, Fam: "dag"}}},
			"graph-backed but tagged"},
		{"bad-version", Record{Type: TypeAdmit, V: 7,
			Jobs: []JobRecord{{Graph: g}}},
			"version 7"},
		{"versioned-step", Record{Type: TypeStep, V: recordVersion, Now: 3},
			"stray fields"},
		{"no-payload", Record{Type: TypeAdmit, Jobs: []JobRecord{{}}},
			"no graph"},
		{"tenants-without-from", Record{Type: TypeAdmit, V: tenantsVersion,
			Jobs: []JobRecord{{Graph: g}}, Tenants: []string{"a"}},
			"1 steal tenants for 0 origin IDs"},
		{"tenants-length-mismatch", Record{Type: TypeBatch, V: tenantsVersion,
			Jobs: []JobRecord{{Graph: g}, {Graph: g}}, From: []int{1, 2}, Tenants: []string{"a"}},
			"1 steal tenants for 2 origin IDs"},
		{"tenant-and-tenants", Record{Type: TypeAdmit, V: tenantsVersion, Tenant: "a",
			Jobs: []JobRecord{{Graph: g}}, From: []int{1}, Tenants: []string{"a"}},
			"both a tenant and steal origins"},
		{"tenants-at-version-2", Record{Type: TypeAdmit, V: recordVersion,
			Jobs: []JobRecord{{Graph: g}}, From: []int{1}, Tenants: []string{"a"}},
			"version 3 goes with tenants"},
		{"version-3-without-tenants", Record{Type: TypeAdmit, V: tenantsVersion,
			Jobs: []JobRecord{{Graph: g}}, From: []int{1}},
			"version 3 goes with tenants"},
		{"tenants-on-cancel", Record{Type: TypeCancel, ID: 1, Tenants: []string{"a"}},
			"carries steal origins"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := encodeRecord(tc.rec)
			if err == nil {
				t.Fatal("invalid record encoded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestCorruptMoldPayloadFailsReplayLocated checks that a CRC-valid but
// semantically broken moldable payload fails replay with an error naming
// the record and job, not a panic from inside the engine.
func TestCorruptMoldPayloadFailsReplayLocated(t *testing.T) {
	raw := `{"t":"admit","v":2,"jobs":[{"release":0,"fam":"moldable","mold":` +
		`{"k":1,"tasks":[{"cat":1,"work":0,"max":1,"curve":{"type":"powerlaw","alpha":0.5}}]}}]}`
	rec, err := decodeRecord([]byte(raw))
	if err != nil {
		t.Fatalf("structurally valid record rejected at decode: %v", err)
	}
	err = Replay(moldEngine(t), []Record{rec})
	if err == nil {
		t.Fatal("replay accepted an invalid moldable spec")
	}
	for _, frag := range []string{"record 0", "job 0", "work 0"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("replay error %q does not contain %q", err, frag)
		}
	}
}

// TestUnjournalableSourceRejected pins AdmitRecord's refusal for runtime
// families with no wire encoding (profile jobs): the server must get a
// clear error instead of writing a record replay cannot honor.
func TestUnjournalableSourceRejected(t *testing.T) {
	src := profile.MustNew(1, "p", []profile.Phase{{Tasks: []int{3}}})
	_, err := AdmitRecord(5, []sim.JobSpec{{Source: src}})
	if err == nil {
		t.Fatal("profile job admitted into a journal record")
	}
	if !strings.Contains(err.Error(), "job 5") || !strings.Contains(err.Error(), `family "profile"`) {
		t.Fatalf("error %q should name the job and family", err)
	}
}
