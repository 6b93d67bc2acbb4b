package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sched"
	"krad/internal/server"
	"krad/internal/sim"
	"krad/internal/workload"
)

// wireJob is the client-side submit body, the encode side of the
// server's private submitRequest (as cmd/kradreplay keeps its own).
type wireJob struct {
	Graph *dag.Graph         `json:"graph,omitempty"`
	Mold  *moldable.Spec     `json:"mold,omitempty"`
	Rigid *profile.RigidSpec `json:"rigid,omitempty"`
}

type wireBatch struct {
	Jobs []wireJob `json:"jobs"`
}

// request is one pre-encoded POST /v1/jobs/batch.
type request struct {
	body   []byte
	n      int // jobs in the body
	tenant int // index into input.tenants; -1 sends no tenant headers
	cancel int // slot of the job tenant_churn DELETEs after submitting
	// specs is the body decoded the way the server's handler decodes it,
	// present only while a pass that enters below HTTP submits it.
	specs []sim.JobSpec
}

// input is everything a repetition consumes, generated once from the seed
// before any timing. The program under test sees only request bodies.
type input struct {
	reqs    []request
	jobs    int
	tenants []string
	digest  [sha256.Size]byte // SHA-256 over every body in order
	genTime time.Duration
}

// workloadDef is one named traffic mix: the daemon configuration it runs
// against, the fixed job population, and the request script.
type workloadDef struct {
	name string
	why  string

	k          int
	caps       []int
	shards     int
	placement  string
	retireDone bool
	fairness   bool

	jobs      int   // population size at scale 1
	batch     int   // jobs per POST
	stepAfter int64 // StepAll budget after each request (0 = admit everything first)
	drainStep int64 // StepAll budget while draining to idle
	churn     bool  // tenant_churn's read/cancel/scrape script

	// Diagnostic passes of the traced run that enter the Start()ed
	// service's loop; each runs on the one workload it belongs beside.
	live  bool // the stream over net/http against a running service
	steal bool // the hot-key fleet drain with stealing on

	population func(n int) []wireJob
}

// The four workloads. Sizes are fixed constants: the virtual-time metrics
// are compared across commits to a percent or less, which only works when
// every run executes the same job population.
var workloads = []*workloadDef{
	{
		name: "admit_stream",
		why:  "high-rate batch admission of small jobs: body decode, Engine.AdmitBatch and journal append dominate, allotment is negligible",
		k:    2, caps: []int{4096, 4096}, shards: 1, retireDone: true,
		jobs: 600000, batch: 32, stepAfter: 8, drainStep: 8, live: true,
		population: streamPopulation,
	},
	{
		name: "overload_drain",
		why:  "thousands of active rigid jobs on a small machine: the scheduling round (RAD round-robin, no leaps) is the whole run and admission is under 1%",
		k:    3, caps: []int{16, 16, 16}, shards: 1,
		jobs: 4000, batch: 8, stepAfter: 0, drainStep: 64, steal: true,
		population: overloadPopulation,
	},
	{
		name: "kdag_mix",
		why:  "the paper's job model: large K-DAGs and moldable task graphs on unequal caps, so graph decode, record encode and per-job state dominate",
		k:    3, caps: []int{32, 16, 8}, shards: 1,
		jobs: 1800, batch: 4, stepAfter: 6, drainStep: 6,
		population: kdagPopulation,
	},
	{
		name: "tenant_churn",
		why:  "reads, cancels and scrapes beside writes on 4 fair-share shards: ID-table lookups, cancel records and Stats merging that no submit-only workload touches",
		k:    2, caps: []int{16, 16}, shards: 4, placement: server.PlaceHash, fairness: true,
		jobs: 160000, batch: 8, stepAfter: 4, drainStep: 4, churn: true,
		population: churnPopulation,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// maxInFlight is large enough that no workload is ever shed: the
// benchmark measures service time, not backpressure.
const maxInFlight = 1 << 20

// newScheduler builds what kradd ships: K-RAD behind the floor wrapper.
func newScheduler(k int) sched.Scheduler { return sched.WithFloors(core.NewKRAD(k)) }

// config returns the daemon configuration for one service instance over
// dir. Every call builds fresh scheduler instances (they are stateful).
// clock, when set, goes between the journal and its files; its tracer,
// when set, also goes around the scheduler (the traced run's decorators).
func (w *workloadDef) config(dir string, clock *fileClock) server.Config {
	mk := func() sched.Scheduler {
		s := newScheduler(w.k)
		if clock != nil && clock.tr != nil {
			s = &timedScheduler{inner: s.(shippedScheduler), tr: clock.tr}
		}
		return s
	}
	cfg := server.Config{
		Sim: sim.Config{
			K: w.k, Caps: w.caps, Pick: dag.PickFIFO, Seed: 1, ValidateAllotments: true,
		},
		Shards:       w.shards,
		NewScheduler: mk,
		Placement:    w.placement,
		MaxInFlight:  maxInFlight,
		RetireDone:   w.retireDone,
	}
	if dir != "" {
		cfg.Journal = &server.JournalConfig{
			Dir:          dir,
			Sync:         journal.SyncInterval,
			SyncInterval: 100 * time.Millisecond,
		}
		if clock != nil {
			cfg.Journal.OpenAppend = clock.openAppend
		}
	}
	if w.fairness {
		// No configured queues: every tenant header gets an equal-weight
		// dynamic leaf, and the admission bound is far above what the
		// script keeps in flight, so the gate runs and never sheds.
		cfg.Fairness = &fairshare.Config{}
	}
	return cfg
}

// generate builds the workload's input for a seed. The job population is
// a fixed function of the job's index — so total work per category, span
// and body bytes are the same for every seed — and the seed draws the
// arrival order within each job family: which DAG, moldable or rigid job
// fills a slot of that family (and with it which jobs share a batch, a
// tenant, a cancel). Virtual-time metrics therefore move with scheduling
// decisions and not with how much work a seed happened to draw, and every
// seed's requests carry the same family mix, so the median request is the
// same kind of request.
func (w *workloadDef) generate(seed int64, scale float64) (*input, error) {
	start := time.Now()
	n := int(float64(w.jobs)*scale+0.5) / w.batch * w.batch
	if n < w.batch {
		n = w.batch
	}
	canon := w.population(n)
	var slots [3][]int // positions per family: DAG, moldable, rigid
	for i, j := range canon {
		f := 0
		switch {
		case j.Mold != nil:
			f = 1
		case j.Rigid != nil:
			f = 2
		}
		slots[f] = append(slots[f], i)
	}
	rng := rand.New(rand.NewSource(seed))
	pop := make([]wireJob, n)
	for _, s := range slots {
		for i, p := range rng.Perm(len(s)) {
			pop[s[i]] = canon[s[p]]
		}
	}

	in := &input{jobs: n}
	if w.churn {
		var err error
		if in.tenants, err = balancedTenants(8, w.shards); err != nil {
			return nil, err
		}
	}
	h := sha256.New()
	for i := 0; i < n; i += w.batch {
		body, err := json.Marshal(wireBatch{Jobs: pop[i : i+w.batch]})
		if err != nil {
			return nil, fmt.Errorf("%s: encode request %d: %w", w.name, i/w.batch, err)
		}
		h.Write(body)
		r := request{body: body, n: w.batch, tenant: -1}
		if w.churn {
			it := i / w.batch
			r.tenant = it % len(in.tenants)
			r.cancel = (it / len(in.tenants)) % w.batch
		}
		in.reqs = append(in.reqs, r)
	}
	h.Sum(in.digest[:0])
	in.genTime = time.Since(start)
	return in, nil
}

// balancedTenants picks n tenant names that hash placement spreads evenly
// over the shards, so no shard's load depends on how FNV treats a name.
func balancedTenants(n, shards int) ([]string, error) {
	place, err := server.NewPlacement(server.PlaceHash)
	if err != nil {
		return nil, err
	}
	per := make([]int, shards)
	loads := make([]int, shards)
	var out []string
	for c := 0; len(out) < n && c < 4096; c++ {
		name := fmt.Sprintf("tenant-%02d", c)
		if s := place.Pick(name, loads); per[s] < n/shards {
			per[s]++
			out = append(out, name)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("no %d tenant names balance over %d shards", n, shards)
	}
	return out, nil
}

// smallJob is the BENCH_PR9 stream mix (cmd/kradreplay's synthJob) with
// the random draws replaced by counters: of every 20 jobs, rigidOf are
// small rigid rectangles, dagOf tiny DAGs and the rest one-task moldable
// jobs, each family cycling evenly through its parameter ranges. With
// singletons off every DAG is a chain.
func smallJob(k, j, rigidOf, dagOf int, singletons bool) wireJob {
	slot, c := j%20, j/20
	name := fmt.Sprintf("syn-%d", j)
	switch {
	case slot < rigidOf:
		c = c*rigidOf + slot
		return wireJob{Rigid: &profile.RigidSpec{
			K: k, Name: name, Procs: 1 + c%4, Steps: 1 + (c/4)%8, Cat: 1 + (c/32)%k,
		}}
	case slot < rigidOf+dagOf:
		c = c*dagOf + slot - rigidOf
		if singletons && c%2 == 0 {
			return wireJob{Graph: dag.Singleton(k, dag.Category(1+(c/2)%k))}
		}
		return wireJob{Graph: dag.RoundRobinChain(k, 2+(c/2)%6)}
	default:
		c = c*(20-rigidOf-dagOf) + slot - rigidOf - dagOf
		return wireJob{Mold: &moldable.Spec{
			K: k, Name: name,
			Tasks: []moldable.TaskSpec{{
				Cat: 1 + c%k, Work: 4 + (c/k)%12, Max: 4,
				Curve: moldable.CurveSpec{Type: moldable.CurvePowerLaw, Alpha: 0.8},
			}},
		}}
	}
}

// streamPopulation: rigid 0.90 / tiny DAG 0.05 / one-task moldable 0.05.
func streamPopulation(n int) []wireJob {
	pop := make([]wireJob, n)
	for j := range pop {
		pop[j] = smallJob(2, j, 18, 1, true)
	}
	return pop
}

// churnPopulation: rigid 0.7 / chain DAG 0.2 / moldable 0.1.
func churnPopulation(n int) []wireJob {
	pop := make([]wireJob, n)
	for j := range pop {
		pop[j] = smallJob(2, j, 14, 4, false)
	}
	return pop
}

// overloadPopulation: rigid jobs of 1–4 processors for 8–63 steps, spread
// evenly over the three categories.
func overloadPopulation(n int) []wireJob {
	pop := make([]wireJob, n)
	for j := range pop {
		c := j / 3
		pop[j] = wireJob{Rigid: &profile.RigidSpec{
			K: 3, Name: fmt.Sprintf("ovl-%d", j), Cat: 1 + j%3, Procs: 1 + c%4, Steps: 8 + (c/4)%56,
		}}
	}
	return pop
}

// populationSeed fixes the graphs kdag_mix draws; the run's seed only
// orders them (see generate).
const populationSeed = 20070910

// kdagPopulation: three K-DAGs of 50–400 tasks, cycling through all ten
// workload.Mix shapes and evenly through the size range, to every
// moldable.Generate job of 8–40 tasks — one request of four.
func kdagPopulation(n int) []wireJob {
	molds := moldable.Generate(moldable.GenOpts{
		K: 3, Jobs: n/4 + 1, MinTasks: 8, MaxTasks: 40, Seed: populationSeed,
	})
	dags := n - n/4
	pop := make([]wireJob, n)
	d := 0
	for j := range pop {
		if j%4 == 3 {
			spec := molds[j/4].Source.(*moldable.Job).Spec()
			pop[j] = wireJob{Mold: &spec}
			continue
		}
		size := 50
		if dags > 10 {
			size += (d / 10) * 350 / ((dags - 1) / 10)
		}
		shape := workload.AllShapes[d%len(workload.AllShapes)]
		specs, err := workload.Mix{
			K: 3, Jobs: 1, Shapes: []workload.Shape{shape},
			MinSize: size, MaxSize: size, Seed: populationSeed + int64(d),
		}.Generate()
		if err != nil {
			panic(err) // fixed, valid parameters
		}
		pop[j] = wireJob{Graph: specs[0].Graph.Named(fmt.Sprintf("%s-%d", shape, d))}
		d++
	}
	return pop
}

// decodeSpecs turns a request body back into engine job specs the way the
// server's handler does.
func decodeSpecs(body []byte) ([]sim.JobSpec, error) {
	var b wireBatch
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	specs := make([]sim.JobSpec, len(b.Jobs))
	for i, j := range b.Jobs {
		switch {
		case j.Mold != nil:
			job, err := moldable.FromSpec(*j.Mold)
			if err != nil {
				return nil, err
			}
			specs[i] = sim.JobSpec{Source: job}
		case j.Rigid != nil:
			job, err := profile.FromRigidSpec(*j.Rigid)
			if err != nil {
				return nil, err
			}
			specs[i] = sim.JobSpec{Source: job}
		default:
			specs[i] = sim.JobSpec{Graph: j.Graph}
		}
	}
	return specs, nil
}
