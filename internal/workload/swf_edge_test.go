package workload

import (
	"io"
	"slices"
	"strings"
	"testing"

	"krad/internal/profile"
)

// TestSWFReaderStreams pins the record-level contract: every
// syntactically valid record comes back (including unusable ones, so
// callers can count skips), comments and blank lines vanish, Line()
// tracks the source line, and a clean end is io.EOF.
func TestSWFReaderStreams(t *testing.T) {
	rd := NewSWFReader(strings.NewReader(sampleSWF))
	var recs []SWFRecord
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 4 {
		t.Fatalf("reader yielded %d records, want all 4 (unusable included)", len(recs))
	}
	if recs[2].Usable() {
		t.Error("record with runtime −1 reported usable")
	}
	usable := 0
	for _, r := range recs {
		if r.Usable() {
			usable++
		}
	}
	if usable != 3 {
		t.Fatalf("%d usable records, want 3", usable)
	}
	// Line 16 is the last record of sampleSWF (2 comment lines + records
	// + a blank); Line() must point at the real source line, not the
	// record index.
	if rd.Line() != 7 {
		t.Errorf("Line() = %d after last record, want 7", rd.Line())
	}
	// Subsequent Next calls keep returning io.EOF.
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("Next after EOF: %v", err)
	}
}

// TestParseSWFZeroRuntime: a zero-second runtime (instant or cancelled
// job) is skipped like the archive's −1 unknowns — it cannot round up to
// a step.
func TestParseSWFZeroRuntime(t *testing.T) {
	log := `1 0 0 0 4 -1 -1 4 0 -1 1 1 1 1 1 1 -1 -1
2 5 0 90 2 -1 -1 2 90 -1 1 1 1 1 1 1 -1 -1
`
	specs, recs, err := ParseSWF(strings.NewReader(log), SWFOptions{K: 1, TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || recs[0].JobID != 2 {
		t.Fatalf("zero-runtime job not skipped: %d specs, first id %d", len(specs), recs[0].JobID)
	}
}

// TestParseSWFTruncatedRecord: a record cut off mid-line (fewer than 18
// fields — a torn download or truncated tail) is a located error, not a
// silent skip; the preceding usable records are not returned either,
// because a torn log should not half-load.
func TestParseSWFTruncatedRecord(t *testing.T) {
	log := `1 0 0 120 4 -1 -1 4 120 -1 1 1 1 1 1 1 -1 -1
2 60 0 600 8 -1 -1 8
`
	_, _, err := ParseSWF(strings.NewReader(log), SWFOptions{K: 1, TimeScale: 60})
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "8 fields") {
		t.Fatalf("truncated record error: %v", err)
	}
	// Same through the streaming reader: record 1 parses, record 2 errors.
	rd := NewSWFReader(strings.NewReader(log))
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("reader truncated record error: %v", err)
	}
}

// TestParseSWFOutOfOrderSubmits: archive logs occasionally carry
// non-monotone submit times (clock adjustments, merged partitions). The
// parser preserves log order and the raw releases — it neither sorts nor
// rejects — so replay tools decide their own pacing policy.
func TestParseSWFOutOfOrderSubmits(t *testing.T) {
	log := `1 300 0 60 1 -1 -1 1 60 -1 1 1 1 1 1 1 -1 -1
2 60 0 60 1 -1 -1 1 60 -1 1 1 1 1 1 1 -1 -1
3 600 0 60 1 -1 -1 1 60 -1 1 1 1 1 1 1 -1 -1
`
	specs, recs, err := ParseSWF(strings.NewReader(log), SWFOptions{K: 1, TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("%d specs, want 3", len(specs))
	}
	wantRel := []int64{5, 1, 10}
	for i, s := range specs {
		if s.Release != wantRel[i] || recs[i].JobID != i+1 {
			t.Errorf("spec %d: release %d (want %d), id %d", i, s.Release, wantRel[i], recs[i].JobID)
		}
	}
}

// TestParseSWFRigidParity: the rigid form ParseSWF emits is an in-memory
// representation change only — name, work vector and span identical to the
// explicit one-phase-per-step profile it stands for (Rigid.Profile), and the
// release the record's submit time scaled.
func TestParseSWFRigidParity(t *testing.T) {
	specs, recs, err := ParseSWF(strings.NewReader(sampleSWF), SWFOptions{K: 2, TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		r, ok := s.Source.(*profile.Rigid)
		if !ok {
			t.Fatalf("job %d is a %T, want *profile.Rigid", i, s.Source)
		}
		p := r.Profile()
		if s.Release != recs[i].Submit/60 || p.Name() != r.Name() || p.Span() != r.Span() || p.TotalTasks() != r.TotalTasks() {
			t.Errorf("job %d: release %d, name/span/tasks %s/%d/%d vs %s/%d/%d",
				i, s.Release, p.Name(), p.Span(), p.TotalTasks(), r.Name(), r.Span(), r.TotalTasks())
		}
		if pw, rw := p.WorkVector(), r.WorkVector(); !slices.Equal(pw, rw) {
			t.Errorf("job %d: work %v vs %v", i, pw, rw)
		}
	}
}

// TestSWFRecordRigidSpec covers the kradreplay-facing mapping: a usable
// record becomes a postable wire spec; unusable records and bad scales
// are errors.
func TestSWFRecordRigidSpec(t *testing.T) {
	rec := SWFRecord{JobID: 9, Submit: 120, RunTime: 61, Procs: 4}
	sp, err := rec.RigidSpec(3, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	want := profile.RigidSpec{K: 3, Name: "swf-9", Cat: 2, Procs: 4, Steps: 2}
	if sp != want {
		t.Fatalf("RigidSpec = %+v, want %+v", sp, want)
	}
	if _, err := (SWFRecord{RunTime: -1, Procs: 1}).RigidSpec(1, 1, 60); err == nil {
		t.Error("unusable record accepted")
	}
	if _, err := rec.RigidSpec(1, 1, 0); err == nil {
		t.Error("timeScale 0 accepted")
	}
}

// FuzzSWF feeds arbitrary bytes through both the streaming reader and
// ParseSWF: neither may panic, and when ParseSWF succeeds its job count
// must equal the reader's usable-record count — the two entry points
// must agree on what a log contains.
func FuzzSWF(f *testing.F) {
	f.Add([]byte(sampleSWF))
	f.Add([]byte("; empty\n\n"))
	f.Add([]byte("1 0 0 120 4 -1 -1 4 120 -1 1 1 1 1 1 1 -1 -1"))
	f.Add([]byte("1 0 0 120 4 -1 -1 4"))
	f.Add([]byte("1 -5 0 120 4 -1 -1 4 120 -1 1 1 1 1 1 1 -1 -1\n2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"))
	f.Add([]byte("9223372036854775807 9223372036854775807 0 9223372036854775807 1 -1 -1 1 1 -1 1 1 1 1 1 1 -1 -1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewSWFReader(strings.NewReader(string(data)))
		usable, readErr := 0, error(nil)
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
			if rec.Usable() {
				usable++
			}
		}
		specs, recs, err := ParseSWF(strings.NewReader(string(data)), SWFOptions{K: 2, TimeScale: 60})
		if err != nil {
			return // malformed input is allowed to fail, never to panic
		}
		if readErr != nil {
			t.Fatalf("ParseSWF accepted what the reader rejected: %v", readErr)
		}
		if len(specs) != usable || len(recs) != usable {
			t.Fatalf("ParseSWF found %d jobs, reader found %d usable records", len(specs), usable)
		}
		for _, s := range specs {
			if s.Source.Span() < 1 || s.Release < 0 {
				t.Fatalf("degenerate spec: span %d release %d", s.Source.Span(), s.Release)
			}
		}
	})
}
