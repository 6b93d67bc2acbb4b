package workload

import (
	"fmt"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
	"krad/internal/wire"
)

// JobText is the JSON text of one job outside the journal: the POST
// /v1/jobs body, an element of a batch body or of a kradsim job file.
// It holds one of a K-DAG (graph), a moldable-task spec (mold) or a rigid
// profile spec (rigid), plus an optional absolute virtual release time
// (0 or omitted means "now"). Rigid is a value, so a decode into reused
// memory (the server's pooled scratch) allocates nothing for the rigid
// jobs that dominate replay traffic. encoding/json over the tags is the
// oracle of the hand-written reader and appender.
type JobText struct {
	Graph   *dag.Graph        `json:"graph,omitempty"`
	Mold    *moldable.Spec    `json:"mold,omitempty"`
	Rigid   profile.RigidSpec `json:"rigid,omitzero"`
	Release int64             `json:"release,omitempty"`
}

// BatchText is the POST /v1/jobs/batch body: a burst of jobs admitted
// all-or-nothing.
type BatchText struct {
	Jobs []JobText `json:"jobs"`
}

// Spec validates the text and builds the engine job spec. Moldable and
// rigid specs validate eagerly (moldable.FromSpec, profile.FromRigidSpec),
// so malformed curves, edges and widths come back as located errors, not
// failures at admission. A rigid job needs Procs ≥ 1 and Steps ≥ 1, so a
// rigid value with both zero means "absent".
func (j *JobText) Spec() (sim.JobSpec, error) {
	rigid := j.Rigid.Procs != 0 || j.Rigid.Steps != 0
	payloads := 0
	for _, present := range [...]bool{j.Graph != nil, j.Mold != nil, rigid} {
		if present {
			payloads++
		}
	}
	switch {
	case payloads > 1:
		return sim.JobSpec{}, fmt.Errorf("job has %d of graph/mold/rigid; submit exactly one", payloads)
	case j.Mold != nil:
		job, err := moldable.FromSpec(*j.Mold)
		if err != nil {
			return sim.JobSpec{}, err
		}
		return sim.JobSpec{Source: job, Release: j.Release}, nil
	case rigid:
		job, err := profile.FromRigidSpec(j.Rigid)
		if err != nil {
			return sim.JobSpec{}, err
		}
		return sim.JobSpec{Source: job, Release: j.Release}, nil
	case j.Graph != nil:
		return sim.JobSpec{Graph: j.Graph, Release: j.Release}, nil
	default:
		return sim.JobSpec{}, fmt.Errorf("job has no graph")
	}
}

// TextOf is Spec's reverse: the text of a graph job, a *moldable.Job or a
// *profile.Rigid. Any other source is refused — no text rebuilds it, and
// the journal refuses it for the same reason.
func TextOf(spec sim.JobSpec) (JobText, error) {
	if spec.Graph != nil {
		return JobText{Graph: spec.Graph, Release: spec.Release}, nil
	}
	switch src := spec.Source.(type) {
	case *moldable.Job:
		mold := src.Spec()
		return JobText{Mold: &mold, Release: spec.Release}, nil
	case *profile.Rigid:
		return JobText{Rigid: src.Spec(), Release: spec.Release}, nil
	}
	return JobText{}, fmt.Errorf("job (family %q) has no text; need a dag graph, a moldable spec or a rigid spec",
		sim.FamilyOf(spec.Source))
}

var (
	jobFields   = []string{"graph", "mold", "rigid", "release"}
	batchFields = []string{"jobs"}
)

// ReadJSON decodes the job at s into j as json.Unmarshal does: a key
// present overwrites its field (a repeated key merges into what the first
// left), an absent key or a null leaves it as it was.
func (j *JobText) ReadJSON(s *wire.Scanner) error {
	return s.Object("job", func(key []byte) error {
		switch wire.Field(key, jobFields) {
		case "graph":
			return wire.Ptr(s, &j.Graph, (*dag.Graph).ReadJSON)
		case "mold":
			return wire.Ptr(s, &j.Mold, (*moldable.Spec).ReadJSON)
		case "rigid":
			return j.Rigid.ReadJSON(s)
		case "release":
			return wire.ReadInt(s, "release", &j.Release)
		}
		return s.SkipValue()
	})
}

// ReadJSON decodes the batch at s into b, each job into b.Jobs' backing
// array at its index.
func (b *BatchText) ReadJSON(s *wire.Scanner) error {
	return s.Object("batch", func(key []byte) error {
		if wire.Field(key, batchFields) == "" {
			return s.SkipValue()
		}
		return wire.Array(s, "jobs", &b.Jobs, (*JobText).ReadJSON)
	})
}

// AppendJSON appends the job's text, the bytes json.Marshal writes for
// it. It fails only on a moldable curve parameter JSON cannot carry (NaN
// or an infinity).
func (j *JobText) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst) // each member is appended after a comma; the first becomes the brace
	if j.Graph != nil {
		dst = j.Graph.AppendJSON(append(dst, `,"graph":`...))
	}
	if j.Mold != nil {
		var err error
		if dst, err = j.Mold.AppendJSON(append(dst, `,"mold":`...)); err != nil {
			return nil, err
		}
	}
	if j.Rigid != (profile.RigidSpec{}) {
		dst = j.Rigid.AppendJSON(append(dst, `,"rigid":`...))
	}
	dst = wire.AppendIntField(dst, `,"release":`, j.Release)
	if len(dst) == start {
		return append(dst, "{}"...), nil
	}
	dst[start] = '{'
	return append(dst, '}'), nil
}

// AppendJSON appends the batch's text, the bytes json.Marshal writes for
// it.
func (b *BatchText) AppendJSON(dst []byte) ([]byte, error) {
	if b.Jobs == nil {
		return append(dst, `{"jobs":null}`...), nil
	}
	dst = append(dst, `{"jobs":[`...)
	for i := range b.Jobs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = b.Jobs[i].AppendJSON(dst); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}"...), nil
}
