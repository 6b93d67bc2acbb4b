package journal

import (
	"encoding/json"
	"fmt"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
	"krad/internal/wire"
)

// A record's payload is the JSON encoding/json gives Record, written and
// read by hand on internal/wire's scanner: byte for byte what json.Marshal
// wrote, value for value what json.Unmarshal read, with one exception. The
// graphs of a csrVersion record are in their record form
// (dag.Graph.AppendRecord, about a sixth of the JSON form's bytes and read
// back without parsing text); those of older versions are JSON, and are
// written back as JSON, so every journal re-encodes to its own bytes.
// Graphs, molds and rigid specs are written and read in place by their own
// packages; the payload never exists apart from the frame it is written
// into. The three sub-values no job travels in — the engine checkpoint,
// the fair ledger, the steal bookkeeping — are handed to encoding/json on
// their own bytes: they are written once per compaction or per fairness
// journal, and their maps and nested scheduler state would be most of a
// hand-written codec.

var (
	recordFields = []string{"t", "v", "base", "jobs", "id", "now", "n", "snap", "seq", "tenant", "fair", "ids", "to", "nbase", "from", "tenants", "steal"}
	jobFields    = []string{"release", "fam", "graph", "mold", "rigid"}
	recordTypes  = []Type{TypeAdmit, TypeBatch, TypeCancel, TypeStep, TypeSteps, TypeSnap, TypeSteal, TypeFair}
	familyTags   = []string{sim.FamilyMoldable.String(), sim.FamilyProfile.String()}
)

// ReadJSON decodes the record at s into r as encoding/json decoded the
// struct: a key present overwrites its field, an absent key or a null
// leaves a scalar as it was, and a repeated key decodes into what the
// first occurrence left. It does not validate; see Validate.
//
// A record's graphs are read in the form that the version read before
// them names: the writer puts the version first.
func (r *Record) ReadJSON(s *wire.Scanner) error {
	return s.Object("record", func(key []byte) error {
		switch wire.Field(key, recordFields) {
		case "t":
			return wire.ReadString(s, "t", &r.Type, recordTypes...)
		case "v":
			return wire.ReadInt(s, "v", &r.V)
		case "base":
			return wire.ReadInt(s, "base", &r.Base)
		case "jobs":
			if r.V >= csrVersion {
				return wire.Array(s, "jobs", &r.Jobs, (*JobRecord).readRecord)
			}
			return wire.Array(s, "jobs", &r.Jobs, (*JobRecord).readJSON)
		case "id":
			return wire.ReadInt(s, "id", &r.ID)
		case "now":
			return wire.ReadInt(s, "now", &r.Now)
		case "n":
			return wire.ReadInt(s, "n", &r.N)
		case "snap":
			return readCold(s, &r.Snap)
		case "seq":
			return wire.ReadInt(s, "seq", &r.Seq)
		case "tenant":
			return wire.ReadString(s, "tenant", &r.Tenant)
		case "fair":
			return readCold(s, &r.Fair)
		case "ids":
			return wire.ReadInts(s, "ids", &r.IDs)
		case "to":
			return wire.ReadInt(s, "to", &r.To)
		case "nbase":
			return wire.ReadInt(s, "nbase", &r.NBase)
		case "from":
			return wire.ReadInts(s, "from", &r.From)
		case "tenants":
			return wire.Array(s, "tenants", &r.Tenants, func(v *string, s *wire.Scanner) error { return wire.ReadString(s, "tenants", v) })
		case "steal":
			return readCold(s, &r.Steal)
		}
		return s.SkipValue()
	})
}

// readJSON reads a job whose graph is in the JSON form, readRecord one
// whose graph is in the record form.
func (j *JobRecord) readJSON(s *wire.Scanner) error   { return j.read(s, (*dag.Graph).ReadJSON) }
func (j *JobRecord) readRecord(s *wire.Scanner) error { return j.read(s, (*dag.Graph).ReadRecord) }

func (j *JobRecord) read(s *wire.Scanner, graph func(*dag.Graph, *wire.Scanner) error) error {
	return s.Object("job", func(key []byte) error {
		switch wire.Field(key, jobFields) {
		case "release":
			return wire.ReadInt(s, "release", &j.Release)
		case "fam":
			return wire.ReadString(s, "fam", &j.Fam, familyTags...)
		case "graph":
			return wire.Ptr(s, &j.Graph, graph)
		case "mold":
			return wire.Ptr(s, &j.Mold, (*moldable.Spec).ReadJSON)
		case "rigid":
			return wire.Ptr(s, &j.Rigid, (*profile.RigidSpec).ReadJSON)
		}
		return s.SkipValue()
	})
}

// readCold decodes a checkpoint, ledger or steal value through
// encoding/json, into what *dst already points to as it would inside the
// record.
func readCold[T any](s *wire.Scanner, dst **T) error {
	return wire.Ptr(s, dst, func(v *T, s *wire.Scanner) error {
		raw, err := s.Value()
		if err == nil {
			err = json.Unmarshal(raw, v)
		}
		return err
	})
}

// decodeRecord parses and validates one payload.
func decodeRecord(payload []byte) (Record, error) {
	var r Record
	if err := wire.Decode(payload, r.ReadJSON); err != nil {
		return Record{}, fmt.Errorf("journal: decode record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// AppendRecord validates r and appends its payload — the bytes
// json.Marshal(r) writes — to dst. On error dst comes back as it was.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return dst, err
	}
	out, err := r.appendJSON(dst)
	if err != nil {
		return dst, fmt.Errorf("journal: encode %s record: %w", r.Type, err)
	}
	return out, nil
}

func (r *Record) appendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"t":`...)
	dst = wire.AppendString(dst, string(r.Type))
	dst = wire.AppendIntField(dst, `,"v":`, int64(r.V))
	dst = wire.AppendIntField(dst, `,"base":`, int64(r.Base))
	if len(r.Jobs) != 0 {
		sep := byte('[')
		dst = append(dst, `,"jobs":`...)
		for i := range r.Jobs {
			if dst, err = r.Jobs[i].appendJSON(append(dst, sep), r.V >= csrVersion); err != nil {
				return dst, err
			}
			sep = ','
		}
		dst = append(dst, ']')
	}
	dst = wire.AppendIntField(dst, `,"id":`, int64(r.ID))
	dst = wire.AppendIntField(dst, `,"now":`, r.Now)
	dst = wire.AppendIntField(dst, `,"n":`, r.N)
	if dst, err = appendCold(dst, `,"snap":`, r.Snap); err != nil {
		return dst, err
	}
	dst = wire.AppendIntField(dst, `,"seq":`, r.Seq)
	if r.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = wire.AppendString(dst, r.Tenant)
	}
	if dst, err = appendCold(dst, `,"fair":`, r.Fair); err != nil {
		return dst, err
	}
	dst = appendInts(dst, `,"ids":`, r.IDs)
	dst = wire.AppendIntField(dst, `,"to":`, int64(r.To))
	dst = wire.AppendIntField(dst, `,"nbase":`, int64(r.NBase))
	dst = appendInts(dst, `,"from":`, r.From)
	if len(r.Tenants) != 0 {
		sep := byte('[')
		dst = append(dst, `,"tenants":`...)
		for _, t := range r.Tenants {
			dst = wire.AppendString(append(dst, sep), t)
			sep = ','
		}
		dst = append(dst, ']')
	}
	if dst, err = appendCold(dst, `,"steal":`, r.Steal); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendJSON appends the job, its graph in the record form if csr is set.
func (j *JobRecord) appendJSON(dst []byte, csr bool) ([]byte, error) {
	dst = append(dst, `{"release":`...)
	dst = wire.AppendInt(dst, j.Release)
	if j.Fam != "" {
		dst = append(dst, `,"fam":`...)
		dst = wire.AppendString(dst, j.Fam)
	}
	switch {
	case j.Graph != nil && csr:
		dst = j.Graph.AppendRecord(append(dst, `,"graph":`...))
	case j.Graph != nil:
		dst = j.Graph.AppendJSON(append(dst, `,"graph":`...))
	}
	if j.Mold != nil {
		var err error
		dst = append(dst, `,"mold":`...)
		if dst, err = j.Mold.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	if j.Rigid != nil {
		dst = append(dst, `,"rigid":`...)
		dst = j.Rigid.AppendJSON(dst)
	}
	return append(dst, '}'), nil
}

// appendInts appends key and the array ns unless it is empty.
func appendInts(dst []byte, key string, ns []int) []byte {
	if len(ns) == 0 {
		return dst
	}
	return wire.AppendInts(append(dst, key...), ns)
}

// appendCold appends key and v's encoding/json encoding unless v is nil.
func appendCold[T any](dst []byte, key string, v *T) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, key...), raw...), nil
}
