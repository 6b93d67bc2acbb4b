package workload

import (
	"encoding/json"
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
)

// TestJobTextAppendJSON pins the hand-written job and batch texts against
// json.Marshal of the same values: graph, mold and rigid jobs with zero
// and non-zero releases, the empty text, and nil, empty and mixed batches.
func TestJobTextAppendJSON(t *testing.T) {
	molds := moldable.Generate(moldable.GenOpts{K: 2, Jobs: 1, MinTasks: 3, MaxTasks: 5, Seed: 3})
	mold := molds[0].Source.(*moldable.Job).Spec()
	rigid := profile.RigidSpec{K: 2, Name: "r<&>", Cat: 2, Procs: 3, Steps: 4}
	jobs := []JobText{{}, {Release: 4}}
	for _, release := range []int64{0, 7} {
		jobs = append(jobs,
			JobText{Graph: dag.Figure1(), Release: release},
			JobText{Mold: &mold, Release: release},
			JobText{Rigid: rigid, Release: release},
		)
	}
	for _, j := range jobs {
		got, err := j.AppendJSON(nil)
		want, werr := json.Marshal(j)
		if err != nil || werr != nil || string(got) != string(want) {
			t.Fatalf("wrote\n %s (%v)\nwant\n %s (%v)", got, err, want, werr)
		}
	}
	for _, b := range []BatchText{{}, {Jobs: []JobText{}}, {Jobs: jobs[:1]}, {Jobs: jobs}} {
		got, err := b.AppendJSON(nil)
		want, werr := json.Marshal(b)
		if err != nil || werr != nil || string(got) != string(want) {
			t.Fatalf("batch wrote\n %s (%v)\nwant\n %s (%v)", got, err, want, werr)
		}
	}
}
