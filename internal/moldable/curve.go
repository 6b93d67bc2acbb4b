// Package moldable implements the third runtime family: moldable tasks
// under precedence constraints. Each task picks a processor count p once
// when it starts — bounded by its own maximum and by the processors the
// scheduler made available — and then runs non-preemptively for
// ceil(work / s(p)) steps on exactly p processors of its category, where
// s is a concave speedup curve with s(1) = 1. The model follows
// "Multi-Resource List Scheduling of Moldable Parallel Jobs under
// Precedence Constraints" (arXiv 2106.07059) and "Optimal Parallel
// Scheduling under Concave Speedup Functions" (arXiv 2509.01811): list
// scheduling with an efficiency-capped allotment achieves a constant
// competitive ratio against the area and critical-path lower bounds, and
// the ratio test in this package checks our execution against that
// envelope.
//
// Jobs are built from a validated wire Spec (the same JSON shape kradd
// accepts and the journal replays), plug into the engine through
// sim.JobSource, and execute through an Instance that implements the
// floor-pinning (sim.FloorRuntime) and held-window event-leap
// (sim.HoldRuntime) capabilities.
package moldable

import (
	"fmt"
	"math"
)

// Curve type names used on the wire.
const (
	CurvePowerLaw = "powerlaw"
	CurveAmdahl   = "amdahl"
)

// CurveSpec is a task's speedup function s(p), in its wire encoding:
//
//	{"type": "powerlaw", "alpha": 0.5}   s(p) = p^Alpha
//	{"type": "amdahl", "serial": 0.1}    s(p) = 1 / (Serial + (1−Serial)/p)
//
// Running on p processors takes ceil(work / s(p)) steps. The model
// requires s(1) = 1, s nondecreasing, s concave, and s(p) ≤ p (no
// superlinear speedup); validate's parameter ranges guarantee all four
// analytically, and checkCurve verifies them numerically. A power law
// with Alpha = 1 is linear (perfectly parallel) speedup; smaller exponents
// model communication overhead growing with the allotment. Under Amdahl's
// law a Serial fraction of the work cannot be parallelized, so speedup
// saturates at 1/Serial.
type CurveSpec struct {
	Type string `json:"type"`
	// Alpha is the power-law exponent (powerlaw curves only), in (0, 1].
	Alpha float64 `json:"alpha,omitempty"`
	// Serial is the non-parallelizable fraction (amdahl curves only), in
	// [0, 1].
	Serial float64 `json:"serial,omitempty"`
}

// validate checks the spec's type and parameter ranges.
func (cs CurveSpec) validate() error {
	switch cs.Type {
	case CurvePowerLaw:
		if cs.Serial != 0 {
			return fmt.Errorf("powerlaw curve carries stray serial %v", cs.Serial)
		}
		if !(cs.Alpha > 0 && cs.Alpha <= 1) {
			return fmt.Errorf("powerlaw alpha %v out of range (0, 1]", cs.Alpha)
		}
		return nil
	case CurveAmdahl:
		if cs.Alpha != 0 {
			return fmt.Errorf("amdahl curve carries stray alpha %v", cs.Alpha)
		}
		if !(cs.Serial >= 0 && cs.Serial <= 1) {
			return fmt.Errorf("amdahl serial fraction %v out of range [0, 1]", cs.Serial)
		}
		return nil
	default:
		return fmt.Errorf("unknown curve type %q (have %s, %s)", cs.Type, CurvePowerLaw, CurveAmdahl)
	}
}

// Speedup returns s(p), p ≥ 1, for the curve a valid spec describes.
func (cs CurveSpec) Speedup(p int) float64 {
	if cs.Type == CurveAmdahl {
		return 1 / (cs.Serial + (1-cs.Serial)/float64(p))
	}
	return math.Pow(float64(p), cs.Alpha)
}

// curveEps absorbs float rounding in the checkCurve comparisons.
const curveEps = 1e-9

// speeder is what the curve arithmetic needs of a curve: a CurveSpec, or
// a test's deliberately broken curve.
type speeder interface{ Speedup(p int) float64 }

// checkCurve numerically verifies the model's assumptions over p = 1..pmax:
// s(1) = 1 (identity), s nondecreasing (monotone), increments nonincreasing
// (concave), and s(p) ≤ p (no superlinear speedup).
func checkCurve[C speeder](c C, pmax int) error {
	s1 := c.Speedup(1)
	if math.IsNaN(s1) || math.Abs(s1-1) > curveEps {
		return fmt.Errorf("s(1) = %v, want 1", s1)
	}
	prev, prevInc := s1, math.Inf(1)
	for p := 2; p <= pmax; p++ {
		s := c.Speedup(p)
		if math.IsNaN(s) || s < prev-curveEps {
			return fmt.Errorf("s(%d) = %v below s(%d) = %v: curve is not monotone", p, s, p-1, prev)
		}
		if s > float64(p)+curveEps {
			return fmt.Errorf("s(%d) = %v exceeds p: superlinear speedup", p, s)
		}
		inc := s - prev
		if inc > prevInc+curveEps {
			return fmt.Errorf("increment s(%d)−s(%d) = %v exceeds the previous increment %v: curve is not concave", p, p-1, inc, prevInc)
		}
		prev, prevInc = s, inc
	}
	return nil
}

// steps returns ceil(work / s(p)), the whole-step duration of a task of
// the given serial work on p processors, never below 1.
func steps[C speeder](work int, c C, p int) int {
	d := int(math.Ceil(float64(work) / c.Speedup(p)))
	if d < 1 {
		d = 1
	}
	return d
}

// usefulProcs returns the molding policy's processor cap for a task: the
// largest p ≤ max with efficiency s(p)/p ≥ 1/2. Concavity makes
// efficiency nonincreasing in p, so the scan stops at the first failure.
// Starting a task on more processors than this wastes more than half of
// them, which is what breaks the list-scheduling area argument — the
// ½-efficiency cap is the standard molding rule in the moldable
// scheduling literature.
func usefulProcs[C speeder](c C, max int) int {
	useful := 1
	for p := 2; p <= max; p++ {
		if 2*c.Speedup(p) < float64(p)-curveEps {
			break
		}
		useful = p
	}
	return useful
}
