package dag

import "fmt"

// Adversarial is the Theorem 1 / Figure 3 lower-bound construction: a job
// set that forces any deterministic online non-clairvoyant K-resource
// scheduler to a makespan competitive ratio approaching K + 1 − 1/Pmax.
//
// The set contains n = m·P1·PK jobs. All but one are singleton jobs holding
// a single category-1 task. The remaining "big" job Ji is layered:
//
//	level 1:              one 1-task                        (critical)
//	level α ∈ [2, K−1]:   m·Pα·PK α-tasks, all depending on the critical
//	                      task of level α−1; one designated critical
//	level K:              m·PK·(PK−1)+1 K-tasks depending on the critical
//	                      task of level K−1; one of them heads a chain of
//	                      K-tasks of length m·PK−1
//
// so T∞(Ji) = K + m·PK − 1. The adversary's power is (a) choosing which of
// the indistinguishable level-1 tasks belongs to the big job — emulated by
// placing the big job last (or first, for the optimal run) in submission
// order — and (b) always executing the critical task last among the ready
// tasks of its level — emulated by the PickCPLast policy. The optimal
// clairvoyant schedule instead runs critical tasks first (PickCPFirst).
type Adversarial struct {
	// K is the number of resource categories; K ≥ 2 (for K = 1 the
	// construction degenerates).
	K int
	// P[α−1] is the processor count of category α. The construction
	// requires P[K−1] = Pmax, as in the paper's proof.
	P []int
	// M is the scale parameter m; the ratio approaches its limit as M → ∞.
	M int
	// BigJob is the layered job Ji described above.
	BigJob *Graph
	// NumSingletons is n − 1, the number of single-1-task jobs.
	NumSingletons int
}

// NewAdversarial constructs the Figure 3 instance. It validates that
// K ≥ 2, m ≥ 1, len(P) == K, every Pα ≥ 1, and that category K has the
// maximum processor count (the proof's convention PK = Pmax).
func NewAdversarial(k, m int, p []int) (*Adversarial, error) {
	if k < 2 {
		return nil, fmt.Errorf("dag: adversarial construction needs K ≥ 2, got %d", k)
	}
	if m < 1 {
		return nil, fmt.Errorf("dag: adversarial construction needs m ≥ 1, got %d", m)
	}
	if len(p) != k {
		return nil, fmt.Errorf("dag: adversarial construction got %d processor counts for K = %d", len(p), k)
	}
	pk := p[k-1]
	for a, pa := range p {
		if pa < 1 {
			return nil, fmt.Errorf("dag: category %d has %d processors, need ≥ 1", a+1, pa)
		}
		if pa > pk {
			return nil, fmt.Errorf("dag: construction requires P%d = Pmax, but P%d = %d > P%d = %d", k, a+1, pa, k, pk)
		}
	}

	g := New(k).Named(fmt.Sprintf("fig3-K%d-m%d", k, m))
	// Level 1: the critical 1-task.
	crit := g.AddTask(1)
	// Levels 2..K−1.
	for a := 2; a <= k-1; a++ {
		tasks := g.AddTasks(Category(a), m*p[a-1]*pk)
		for _, t := range tasks {
			g.MustEdge(crit, t)
		}
		crit = tasks[0] // designate the first as this level's critical task
	}
	// Level K: the mass plus the chain head.
	mass := g.AddTasks(Category(k), m*pk*(pk-1)+1)
	for _, t := range mass {
		g.MustEdge(crit, t)
	}
	// One mass task heads a chain of length m·PK − 1.
	head := mass[0]
	for i := 0; i < m*pk-1; i++ {
		next := g.AddTask(Category(k))
		g.MustEdge(head, next)
		head = next
	}

	return &Adversarial{
		K:             k,
		P:             append([]int(nil), p...),
		M:             m,
		BigJob:        g,
		NumSingletons: m*p[0]*pk - 1,
	}, nil
}

// NumJobs returns n = m·P1·PK.
func (a *Adversarial) NumJobs() int { return a.NumSingletons + 1 }

// OptimalMakespan returns the closed-form T*(J) = K + m·PK − 1 achieved by
// the clairvoyant scheduler that always runs the critical path first.
func (a *Adversarial) OptimalMakespan() int {
	return a.K + a.M*a.P[a.K-1] - 1
}

// WorstCaseMakespan returns the paper's adversarial bound
// T(J) ≥ m·K·PK + m·PK − m forced on any deterministic non-clairvoyant
// algorithm.
func (a *Adversarial) WorstCaseMakespan() int {
	pk := a.P[a.K-1]
	return a.M*a.K*pk + a.M*pk - a.M
}

// LimitRatio returns K + 1 − 1/Pmax, the competitive-ratio limit the
// construction approaches as m → ∞.
func (a *Adversarial) LimitRatio() float64 {
	return float64(a.K) + 1 - 1/float64(a.P[a.K-1])
}

// FiniteRatio returns WorstCaseMakespan / OptimalMakespan for the concrete
// m, which converges to LimitRatio from below.
func (a *Adversarial) FiniteRatio() float64 {
	return float64(a.WorstCaseMakespan()) / float64(a.OptimalMakespan())
}

// JobSet materializes the full job set in a given submission order. If
// bigJobLast is true the big job is appended after the singletons (the
// adversary's order: a deterministic scheduler working through its queue
// reaches the big job's level-1 task last); otherwise it comes first (the
// order the optimal schedule wants). All jobs are released at time 0.
func (a *Adversarial) JobSet(bigJobLast bool) []*Graph {
	jobs := make([]*Graph, 0, a.NumJobs())
	if !bigJobLast {
		jobs = append(jobs, a.BigJob)
	}
	for i := 0; i < a.NumSingletons; i++ {
		jobs = append(jobs, Singleton(a.K, 1))
	}
	if bigJobLast {
		jobs = append(jobs, a.BigJob)
	}
	return jobs
}
