package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"krad/internal/sched"
)

// figure2 is RAD transcribed literally from Figure 2 of the paper — the
// oracle beside the delta-driven RAD. Every step it re-derives the queue from
// nothing: Q and Q′ by testing each α-active job's mark, nothing kept between
// steps but the marks and the bonus rotation. It is what RAD.AllotInto was
// before the queue became persistent, with the marks in a map.
type figure2 struct {
	marked  map[int]bool
	rot     int
	horizon int64
}

func newFigure2() *figure2 { return &figure2{marked: map[int]bool{}} }

func (f *figure2) allot(t int64, jobs []sched.CatJob, p int) []int {
	dst := make([]int, len(jobs))
	if len(jobs) == 0 || p <= 0 {
		f.horizon = sched.Unbounded
		return dst
	}
	var q, qp []int
	for i, j := range jobs {
		if f.marked[j.ID] {
			qp = append(qp, i)
		} else {
			q = append(q, i)
		}
	}
	if len(q) > p {
		f.horizon = 0
		for _, i := range q[:p] {
			dst[i] = 1
			f.marked[jobs[i].ID] = true
		}
		return dst
	}
	need := min(p-len(q), len(qp))
	if need > 0 {
		start := f.rot % len(qp)
		for j := 0; j < need; j++ {
			q = append(q, qp[(start+j)%len(qp)])
		}
		f.rot += need
	}
	if len(qp) == 0 {
		f.horizon = deqStableHorizon(jobs, p)
	} else {
		f.horizon = 0
	}
	desires := make([]int, len(q))
	for j, i := range q {
		desires[j] = jobs[i].Desire
	}
	for j, a := range Deq(desires, p, int(t)) {
		dst[q[j]] = a
	}
	clear(f.marked)
	return dst
}

func (f *figure2) jobsDone(ids []int) {
	for _, id := range ids {
		delete(f.marked, id)
	}
}

// snapshot is RAD.SnapshotState's encoding: marked IDs ascending, then rot.
func (f *figure2) snapshot() []byte {
	st := radState{Rot: f.rot}
	for id := range f.marked {
		st.Marked = append(st.Marked, id)
	}
	slices.Sort(st.Marked)
	data, _ := json.Marshal(st)
	return data
}

func (f *figure2) restore(data []byte) {
	var st radState
	if err := json.Unmarshal(data, &st); err != nil {
		panic(err)
	}
	*f = *newFigure2()
	f.rot = st.Rot
	for _, id := range st.Marked {
		f.marked[id] = true
	}
}

// deltaDriver drives a RAD through its delta form the way PerCategory does:
// it owns the α-active list and reports who enters and leaves it.
type deltaDriver struct {
	r    *RAD
	list []sched.CatJob
	out  []sched.CatGrant
}

// set makes the driver's list equal jobs, reporting the difference.
func (d *deltaDriver) set(jobs []sched.CatJob) {
	o := 0
	for _, j := range jobs {
		for ; o < len(d.list) && d.list[o].ID < j.ID; o++ {
			d.r.JobLeft(d.list[o].ID)
		}
		if o < len(d.list) && d.list[o].ID == j.ID {
			o++
		} else {
			d.r.JobEntered(j.ID)
		}
	}
	for ; o < len(d.list); o++ {
		d.r.JobLeft(d.list[o].ID)
	}
	d.list = append(d.list[:0], jobs...)
}

func (d *deltaDriver) allot(t int64, p int) []int {
	d.out = d.r.AllotDelta(t, d.list, p, d.out[:0])
	dst := make([]int, len(d.list))
	i, last := 0, -1
	for _, g := range d.out {
		if g.ID <= last || g.N == 0 {
			panic("grants not ascending by ID, or a zero grant")
		}
		last = g.ID
		for d.list[i].ID != g.ID {
			i++
		}
		dst[i] = g.N
	}
	return dst
}

// done is PerCategory.JobGone: out of the list first, then forgotten.
func (d *deltaDriver) done(ids []int) {
	for _, id := range ids {
		if i, in := sched.FindCatJob(d.list, 0, id); in {
			d.list = append(d.list[:i], d.list[i+1:]...)
			d.r.JobLeft(id)
		}
	}
	d.r.JobsDone(ids)
}

// TestQuickRADMatchesFigure2 drives three schedulers through the same random
// history — Figure 2 literally, RAD through its dense entry, RAD through its
// delta form — and requires, after every step, the same allotments, marks,
// rotation, stability horizon and snapshot bytes. The history inserts jobs
// (also below the highest ID seen, and below the round-robin cursor), changes
// desires, lets jobs leave the category and re-enter mid-cycle, reports jobs
// done (sometimes while still listing them), varies the processor count, and
// every so often replaces all three by fresh instances restored from the
// snapshot, cycle in progress or not.
func TestQuickRADMatchesFigure2(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref, dense, delta := newFigure2(), NewRAD(), &deltaDriver{r: NewRAD()}
		const universe = 40
		desire := make([]int, universe) // 0: not α-active right now
		known := make([]bool, universe) // released and not yet done
		next := 0                       // IDs below it have been released
		p := 1 + rng.Intn(6)
		for step := int64(1); step <= 80; step++ {
			// Releases: usually the next ID, sometimes a skipped one from below.
			for n := rng.Intn(4); n > 0 && next < universe; n-- {
				if rng.Intn(5) == 0 {
					next++ // skipped now, may be released later, below the cursor
					continue
				}
				known[next], desire[next] = true, 1+rng.Intn(8)
				next++
			}
			var done []int
			for id := 0; id < next; id++ {
				switch {
				case !known[id]:
					if rng.Intn(40) == 0 {
						known[id], desire[id] = true, 1+rng.Intn(8) // late release
					}
				case rng.Intn(25) == 0:
					done = append(done, id)
				case rng.Intn(6) == 0:
					desire[id] = rng.Intn(6) // 0: leaves the category, keeps its mark
				}
			}
			if rng.Intn(10) == 0 {
				p = 1 + rng.Intn(6)
			}
			var jobs []sched.CatJob
			for id := 0; id < next; id++ {
				if known[id] && desire[id] > 0 {
					jobs = append(jobs, sched.CatJob{ID: id, Desire: desire[id]})
				}
			}

			want := ref.allot(step, jobs, p)
			gotDense := make([]int, len(jobs))
			dense.AllotInto(step, jobs, p, gotDense)
			delta.set(jobs)
			gotDelta := delta.allot(step, p)
			if !slices.Equal(want, gotDense) || !slices.Equal(want, gotDelta) {
				t.Logf("seed %d step %d p %d jobs %v: figure 2 %v, dense %v, delta %v", seed, step, p, jobs, want, gotDense, gotDelta)
				return false
			}

			// Completions: a job reported done is usually gone from the next
			// step's list, but a caller may keep listing it.
			ref.jobsDone(done)
			dense.JobsDone(done)
			delta.done(done)
			for _, id := range done {
				if rng.Intn(4) > 0 {
					known[id], desire[id] = false, 0
				}
			}

			snap := ref.snapshot()
			for _, r := range []*RAD{dense, delta.r} {
				got, err := r.SnapshotState()
				if err != nil || !bytes.Equal(got, snap) {
					t.Logf("seed %d step %d: snapshot %s (%v), figure 2 %s", seed, step, got, err, snap)
					return false
				}
				if r.rot != ref.rot || r.StableHorizon() != ref.horizon {
					t.Logf("seed %d step %d: rot %d horizon %d, figure 2 %d %d", seed, step, r.rot, r.StableHorizon(), ref.rot, ref.horizon)
					return false
				}
				for id := 0; id < universe; id++ {
					if r.marked(id) != ref.marked[id] {
						t.Logf("seed %d step %d: job %d marked %v, figure 2 %v", seed, step, id, r.marked(id), ref.marked[id])
						return false
					}
				}
			}
			if rng.Intn(12) == 0 {
				ref.restore(snap)
				dense, delta = NewRAD(), &deltaDriver{r: NewRAD()}
				if dense.RestoreState(snap) != nil || delta.r.RestoreState(snap) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
