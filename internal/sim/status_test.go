package sim_test

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
)

// TestStatusTable covers the record table on its own: the end step is
// read back as completion or cancel step by phase, holes read as absent,
// a work vector Get returned stays in place while the table grows, and a
// full page is freed once all its records are dropped.
func TestStatusTable(t *testing.T) {
	tab := sim.NewStatusTable(2)
	done := sim.JobStatus{Release: 4, Phase: sim.JobDone, Family: sim.FamilyDAG, Completion: 9, Work: []int{3, 1}, Span: 2}
	tab.Put(0, done)
	tab.Put(5, sim.JobStatus{Release: 1, Phase: sim.JobCancelled, Family: sim.FamilyMoldable, CancelledAt: 6, Work: []int{2, 0}, Span: 1})
	tab.Put(7, sim.JobStatus{Release: 2, Phase: sim.JobStolen, Family: 12, CancelledAt: 3, Work: []int{1}})
	if tab.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tab.Len())
	}
	want := done
	want.ID = 0
	if st, ok := tab.Get(0); !ok || !reflect.DeepEqual(st, want) {
		t.Fatalf("Get(0) = %+v, %v; want %+v", st, ok, want)
	}
	if st, _ := tab.Get(5); st.Completion != 0 || st.CancelledAt != 6 || st.Family != sim.FamilyMoldable {
		t.Fatalf("Get(5) = %+v", st)
	}
	if st, _ := tab.Get(7); st.Family != sim.FamilyUnknown || !reflect.DeepEqual(st.Work, []int{1, 0}) {
		t.Fatalf("Get(7) = %+v; want family unknown and work [1 0]", st)
	}
	for _, i := range []int{-1, 1, 6, 8, 1 << 20} {
		if _, ok := tab.Get(i); ok {
			t.Fatalf("Get(%d) found a record", i)
		}
	}
	tab.SetPhase(3, sim.JobDone, 1)
	if _, ok := tab.Get(3); ok {
		t.Fatal("SetPhase materialized a hole")
	}
	tab.SetPhase(5, sim.JobActive, 0)
	if ph, end, _ := tab.Phase(5); ph != sim.JobActive || end != 0 {
		t.Fatalf("Phase(5) after SetPhase = %s, %d", ph, end)
	}

	ref, _ := tab.Get(0)
	for i := 8; i < 5000; i++ {
		tab.Put(i, sim.JobStatus{Release: int64(i), Phase: sim.JobDone, Completion: int64(i + 1), Work: []int{i, i}, Span: 1})
	}
	if again, _ := tab.Get(0); &again.Work[0] != &ref.Work[0] || !reflect.DeepEqual(ref.Work, []int{3, 1}) {
		t.Fatal("growing the table moved or changed an earlier work vector")
	}
	pages := tab.Pages()
	for _, i := range []int{0, 5, 7} {
		tab.Drop(i)
	}
	for i := 8; i < 128; i++ {
		tab.Drop(i)
	}
	if tab.Pages() != pages-1 {
		t.Fatalf("dropping every record of page 0 left %d of %d pages", tab.Pages(), pages)
	}
	for i := 4992; i < 5000; i++ {
		tab.Drop(i)
	}
	if tab.Pages() != pages-1 {
		t.Fatal("dropping the records of the unfilled last page freed it")
	}
	buf := make([]int, 0, 2)
	if st, ok := tab.Load(200, buf); !ok || st.ID != 200 || st.Completion != 201 || &st.Work[0] != &buf[:1][0] || !reflect.DeepEqual(st.Work, []int{200, 200}) {
		t.Fatalf("Load(200) = %+v, %v; want the record with its work in the caller's buffer", st, ok)
	}
	if _, ok := tab.Load(5, nil); ok {
		t.Fatal("Load found a dropped record")
	}
}

// TestStatusTableReadersBesideWriter runs Load from several goroutines
// while one writer admits, moves and drops records across many directory
// growths; under -race it checks the locking, and every read must see a
// whole record: a release, end step and work vector written together.
func TestStatusTableReadersBesideWriter(t *testing.T) {
	const n = 20_000
	tab := sim.NewStatusTable(2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var work []int
			for i := g; ; i = (i*31 + 7) % n {
				select {
				case <-stop:
					return
				default:
				}
				st, ok := tab.Load(i, work)
				if !ok {
					continue
				}
				work = st.Work
				if st.Release != int64(i) || st.Work[0] != i || st.Work[1] != 2*i || (st.Phase == sim.JobDone && st.Completion != int64(i)+3) {
					t.Errorf("torn record %d: %+v", i, st)
					return
				}
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		tab.Put(i, sim.JobStatus{Release: int64(i), Phase: sim.JobPending, Work: []int{i, 2 * i}, Span: 1})
		if i >= 50 {
			tab.SetPhase(i-50, sim.JobDone, int64(i-50)+3)
		}
		if i >= 300 && i%2 == 0 {
			tab.Drop(i - 300)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCheckpointKeepsFamily: every runtime family, done and cancelled,
// survives Checkpoint → JSON → Restore, and the restored engine answers
// Job exactly as the original did.
func TestCheckpointKeepsFamily(t *testing.T) {
	mold, err := moldable.FromTimedGraph(dag.RoundRobinChain(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	specs := []sim.JobSpec{
		{Source: profile.MustNewRigid(2, "r", 1, 2, 3)},
		{Graph: dag.ForkJoin(2, 4, 1, 2, 1)},
		{Source: mold},
		{Source: profile.MustNewRigid(2, "c", 2, 1, 9), Release: 30},
	}
	cfg := releaseConfig(dag.PickFIFO)
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if _, err := eng.Admit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Cancel(3); err != nil {
		t.Fatal(err)
	}
	for !eng.Idle() {
		if _, err := eng.StepN(64); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back sim.EngineCheckpoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := sim.NewEngine(releaseConfig(dag.PickFIFO))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(back); err != nil {
		t.Fatal(err)
	}
	wantFamily := []sim.RuntimeFamily{sim.FamilyProfile, sim.FamilyDAG, sim.FamilyMoldable, sim.FamilyProfile}
	for id, fam := range wantFamily {
		before, _ := eng.Job(id)
		after, ok := restored.Job(id)
		if !ok || !reflect.DeepEqual(after, before) || after.Family != fam {
			t.Errorf("job %d: restored %+v, before %+v; want family %s", id, after, before, fam)
		}
	}
}
