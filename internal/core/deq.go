// Package core implements the paper's contribution: the DEQ and ROUND-ROBIN
// sub-procedures, the per-category RAD scheduler that unifies them, and
// K-RAD — one RAD per resource category (Figure 2 of the paper).
package core

import (
	"slices"

	"krad/internal/sched"
)

// Deq distributes p processors among jobs with the given positive desires,
// following the recursive DEQ procedure of Figure 2:
//
//	S ← {Ji ∈ Q : d(Ji) ≤ P/|Q|}
//	if S = ∅  → every job gets an equal share P/|Q| (the "mean deprived
//	            allotment")
//	else      → jobs in S get exactly their desire; recurse on Q−S with the
//	            remaining processors
//
// The paper's analysis uses real-valued equal shares; processors are
// integral, so the equal share is realized as ⌊P/|Q|⌋ with the remainder
// spread one processor each over the deprived jobs, starting at position
// rot mod |Q| so no job is systematically favored across steps. The
// returned allotments satisfy: Σ allot ≤ p; allot[i] ≤ desires[i]; every
// "satisfied" job receives exactly its desire; all "deprived" jobs receive
// shares differing by at most one.
//
// Desires must be strictly positive (the caller passes only α-active jobs).
func Deq(desires []int, p, rot int) []int {
	allot := make([]int, len(desires))
	if len(desires) == 0 || p <= 0 {
		return allot
	}
	return DeqInto(allot, make([]int, len(desires)), desires, p, rot)
}

// DeqInto is the allocation-free form of Deq. allot and scratch are
// caller-owned slices of len(desires); allot is overwritten with the
// allotments and returned, scratch is clobbered. Hot paths (RAD.AllotInto,
// the engine's step loop) reuse both across calls.
func DeqInto(allot, scratch, desires []int, p, rot int) []int {
	for i := range allot {
		allot[i] = 0
	}
	if len(desires) == 0 || p <= 0 {
		return allot
	}
	// live holds the indices of jobs still being partitioned.
	live := scratch
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 && p > 0 {
		fair := p / len(live)
		// Collect the satisfied set S: desire ≤ fair share.
		rest := live[:0]
		taken := 0
		satisfied := 0
		for _, i := range live {
			if desires[i] <= fair {
				allot[i] = desires[i]
				taken += desires[i]
				satisfied++
			} else {
				rest = append(rest, i)
			}
		}
		if satisfied == 0 {
			// S = ∅: equal (deprived) shares with rotated remainder.
			n := len(rest)
			share := p / n
			extra := p % n
			start := 0
			if extra > 0 {
				start = rot % n
				if start < 0 {
					start += n
				}
			}
			for j := 0; j < n; j++ {
				a := share
				// The jobs at positions start, start+1, ... (mod n) absorb
				// the remainder. Each such job's desire exceeds fair ≥
				// share, so desire ≥ share+1 and the bump never exceeds it.
				if extra > 0 && (j-start+n)%n < extra {
					a++
				}
				allot[rest[j]] = a
			}
			return allot
		}
		p -= taken
		live = rest
	}
	return allot
}

// deqHorizon reports how many additional consecutive steps a DEQ partition
// over jobs with these desires (all positive) stays in closed form under the
// engine's leap law: the active set does not change and every job's desire
// shrinks by exactly its allotment per step. That holds while every job
// remains strictly deprived — each then receives the equal share ⌊p/n⌋,
// plus possibly one rotated remainder processor (which moves with t but is
// exactly accounted by deqLeapTotals). The horizon keeps every job deprived
// at every covered step AND strictly positive after the last one (so no
// completion or phase boundary is crossed mid-leap), using the worst-case
// per-step decrement share+1 when a remainder exists. No jobs (or no
// processors) means the all-zero output repeats indefinitely:
// sched.Unbounded.
func deqHorizon(desires []int, p int) int64 {
	n := len(desires)
	if n == 0 || p <= 0 {
		return sched.Unbounded
	}
	if n > p {
		return 0
	}
	least := slices.Min(desires)
	share, extra := p/n, p%n
	// dec is the most a desire can drop per step; slack is the minimum
	// entry desire that keeps a job deprived through the step and above
	// zero after it. The horizon is the least desire's.
	dec, slack := share, share+1
	if extra > 0 {
		dec, slack = share+1, share+2
	}
	if least < slack {
		return 0
	}
	return int64((least - slack) / dec)
}

// deqLeapTotals accumulates into dst (len(jobs), zeroed by the caller)
// each job's total DEQ allotment over the n consecutive steps t..t+n−1,
// assuming the all-deprived regime deqStableHorizon vouched for: every
// job gets the equal share each step, and the p%len(jobs) remainder
// processors rotate starting at position s%len(jobs) on step s (exactly
// Deq's rot = int(s) rotation). The per-job bonus over the window is
// computed in closed form, so a leap costs O(jobs) regardless of n.
func deqLeapTotals(t int64, jobs []sched.CatJob, p int, n int64, dst []int) {
	nj := len(jobs)
	if nj == 0 || p <= 0 {
		return
	}
	share, extra := p/nj, p%nj
	for i := range jobs {
		dst[i] = int(n) * share
	}
	if extra == 0 {
		return
	}
	// Step s gives one bonus processor to positions (s+m) mod nj for
	// m ∈ [0, extra): full cycles of nj steps serve every position extra
	// times; the rem = n mod nj trailing steps serve a circular window.
	cycles, rem := n/int64(nj), int(n%int64(nj))
	for j := range jobs {
		bonus := int64(extra) * cycles
		if rem > 0 {
			// Position j is served at step s iff (j−s) mod nj < extra.
			// Over s ∈ [t, t+rem) the values (c−u) mod nj, u ∈ [0, rem),
			// walk down the circle from c = (j−t) mod nj; count how many
			// land in [0, extra).
			c := int(((int64(j)-t)%int64(nj) + int64(nj)) % int64(nj))
			lo := c - rem + 1
			hi := c
			if hi > extra-1 {
				hi = extra - 1
			}
			if lo >= 0 {
				if hi >= lo {
					bonus += int64(hi - lo + 1)
				}
			} else {
				bonus += int64(hi + 1) // [0, min(c, extra−1)]
				if lo2 := lo + nj; extra-1 >= lo2 {
					bonus += int64(extra - lo2) // [lo+nj, extra−1]
				}
			}
		}
		dst[j] += int(bonus)
	}
}
