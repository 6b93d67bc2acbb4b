package sim_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sched"
	"krad/internal/sim"
)

// literalFloors is the floor layer as a scheduler wrapper once wrote it —
// scan every view for a floor, rebuild the residual system, hand it to the
// inner scheduler through its dense entry, add the floors back — kept as the
// oracle of the floors the engine grants.
type literalFloors struct{ inner *sched.PerCategory }

func (f *literalFloors) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	rcaps := slices.Clone(caps)
	res := make([]sched.JobView, len(jobs))
	for i, j := range jobs {
		d := slices.Clone(j.Desire)
		for a, fl := range j.Floor {
			d[a] = max(d[a]-fl, 0)
			rcaps[a] -= fl
		}
		res[i] = sched.JobView{ID: j.ID, Desire: d}
	}
	out := f.inner.Allot(t, res, rcaps)
	for i, j := range jobs {
		for a, fl := range j.Floor {
			out[i][a] += fl
		}
	}
	return out
}

// TestQuickFloorsMatchLiteral holds the engine's floors to the literal floor
// layer, per seed, over deltaSpecs' population: moldable jobs whose floors
// appear, tighten into held phases and vanish, beside rigid, profile and DAG
// jobs that leave a category and re-enter it, releases out of ID order and
// cancels of active jobs. Engine B single-steps unwrapped K-RAD, and every
// round an observer hands the views it read, floors included, to the literal
// layer over a K-RAD of its own: the two allotments and the two K-RADs'
// snapshots must agree. Engine A runs the same jobs in chunked StepN calls,
// so held phases are leapt: after every call its statuses, engine snapshot
// and scheduler snapshot must equal B's at the same step, and the results
// must at the end. Seed count from KRAD_DELTA_SEEDS (default 60).
func TestQuickFloorsMatchLiteral(t *testing.T) {
	var heldRounds, leapt int64
	for seed := int64(1); seed <= deltaSeeds(t); seed++ {
		h, l := floorsMatchLiteral(t, seed)
		heldRounds, leapt = heldRounds+h, leapt+l
	}
	if heldRounds == 0 || leapt == 0 {
		t.Fatalf("the runs are not the ones intended: %d rounds with a held job, %d leapt steps", heldRounds, leapt)
	}
}

func floorsMatchLiteral(t *testing.T, seed int64) (heldRounds, leapt int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(3)
	caps := make([]int, k)
	for a := range caps {
		caps[a] = 1 + rng.Intn(4)
		if rng.Intn(3) == 0 {
			caps[a] += rng.Intn(24) // sometimes roomy: DEQ rounds and leaps
		}
	}
	specs := deltaSpecs(rng, k, 6+rng.Intn(30))
	cfg := sim.Config{K: k, Caps: caps, Pick: dag.PickFIFO, Seed: seed, ValidateAllotments: true}

	krA, krB := core.NewKRAD(k), core.NewKRAD(k)
	ref := &literalFloors{inner: core.NewKRAD(k)}
	cfgA, cfgB := cfg, cfg
	cfgA.Scheduler, cfgB.Scheduler = krA, krB
	cfgB.Observer = func(step int64, jobs []sched.JobView, allot [][]int) {
		want := ref.Allot(step, jobs, caps)
		for i, j := range jobs {
			if !slices.Equal(allot[i], want[i]) {
				t.Fatalf("seed %d step %d: job %d (desire %v, floor %v) allotted %v, the literal layer %v", seed, step, j.ID, j.Desire, j.Floor, allot[i], want[i])
			}
			if j.Floor != nil && slices.Equal(j.Floor, j.Desire) {
				heldRounds++
			}
		}
		sb, _ := krB.SnapshotState()
		if sr, _ := ref.inner.SnapshotState(); !bytes.Equal(sb, sr) {
			t.Fatalf("seed %d step %d: scheduler snapshot %s, the literal layer's %s", seed, step, sb, sr)
		}
	}
	a, b := admitInOrder(t, cfgA, specs), admitInOrder(t, cfgB, specs)

	cancels := rng.Intn(4)
	for a.Remaining() > 0 {
		info, err := a.StepN(1 + rng.Int63n(12))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		leapt += info.LeapSteps
		for b.Now() < a.Now() {
			info, err := b.Step()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref.inner.JobsDone(info.Completed)
		}
		sa, _ := krA.SnapshotState()
		sb, _ := krB.SnapshotState()
		snapA, snapB := a.Snapshot(), b.Snapshot()
		snapA.LeapSteps, snapA.LeapBlocked, snapB.LeapSteps, snapB.LeapBlocked = 0, sim.LeapBlocked{}, 0, sim.LeapBlocked{}
		if !bytes.Equal(sa, sb) || !reflect.DeepEqual(snapA, snapB) {
			t.Fatalf("seed %d: at step %d the leaping engine holds %+v and %s, the single-stepped one %+v and %s", seed, a.Now(), snapA, sa, snapB, sb)
		}
		for id := range specs {
			if ja, _ := a.Job(id); !reflect.DeepEqual(ja, mustJob(b, id)) {
				t.Fatalf("seed %d: at step %d job %d reads %+v, single-stepped %+v", seed, a.Now(), id, ja, mustJob(b, id))
			}
		}
		if cancels > 0 && rng.Intn(6) == 0 {
			cancels--
			id := rng.Intn(len(specs))
			errA, errB := a.Cancel(id), b.Cancel(id)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d: cancel(%d) diverged: %v vs %v", seed, id, errA, errB)
			}
			if errB == nil {
				ref.inner.JobsDone([]int{id})
			}
		}
	}
	ra, rb := a.Result(), b.Result()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("seed %d: results differ", seed)
	}
	return heldRounds, leapt
}

func mustJob(eng *sim.Engine, id int) sim.JobStatus {
	st, _ := eng.Job(id)
	return st
}
