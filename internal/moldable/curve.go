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

// Curve is a task's speedup function s(p): running on p processors takes
// ceil(work / s(p)) steps. The model requires s(1) = 1, s nondecreasing,
// s concave, and s(p) ≤ p (no superlinear speedup); CheckCurve verifies
// all four numerically and Spec decoding enforces the parameter ranges
// that guarantee them analytically.
type Curve interface {
	// Speedup returns s(p) for p ≥ 1.
	Speedup(p int) float64
	// Spec returns the curve's wire encoding.
	Spec() CurveSpec
}

// PowerLaw is s(p) = p^Alpha with Alpha in (0, 1]. Alpha = 1 is linear
// (perfectly parallel) speedup; smaller exponents model communication
// overhead growing with the allotment.
type PowerLaw struct {
	Alpha float64
}

// Speedup implements Curve.
func (c PowerLaw) Speedup(p int) float64 { return math.Pow(float64(p), c.Alpha) }

// Spec implements Curve.
func (c PowerLaw) Spec() CurveSpec { return CurveSpec{Type: CurvePowerLaw, Alpha: c.Alpha} }

// Amdahl is s(p) = 1 / (Serial + (1−Serial)/p) with Serial in [0, 1]: a
// Serial fraction of the work cannot be parallelized, so speedup
// saturates at 1/Serial. Serial = 0 is linear speedup; Serial = 1 is no
// speedup at all.
type Amdahl struct {
	Serial float64
}

// Speedup implements Curve.
func (c Amdahl) Speedup(p int) float64 {
	return 1 / (c.Serial + (1-c.Serial)/float64(p))
}

// Spec implements Curve.
func (c Amdahl) Spec() CurveSpec { return CurveSpec{Type: CurveAmdahl, Serial: c.Serial} }

// Curve type names used on the wire.
const (
	CurvePowerLaw = "powerlaw"
	CurveAmdahl   = "amdahl"
)

// CurveSpec is the wire encoding of a speedup curve:
//
//	{"type": "powerlaw", "alpha": 0.5}
//	{"type": "amdahl", "serial": 0.1}
type CurveSpec struct {
	Type string `json:"type"`
	// Alpha is the power-law exponent (powerlaw curves only), in (0, 1].
	Alpha float64 `json:"alpha,omitempty"`
	// Serial is the non-parallelizable fraction (amdahl curves only), in
	// [0, 1].
	Serial float64 `json:"serial,omitempty"`
}

// Curve decodes and validates the spec. Parameter ranges are chosen so
// the decoded curve satisfies the model's assumptions by construction.
func (cs CurveSpec) Curve() (Curve, error) {
	if err := cs.validate(); err != nil {
		return nil, err
	}
	if cs.Type == CurveAmdahl {
		return Amdahl{Serial: cs.Serial}, nil
	}
	return PowerLaw{Alpha: cs.Alpha}, nil
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

// Speedup returns s(p) for the curve a valid spec describes, computed as
// its Curve computes it but without boxing the curve into an interface.
func (cs CurveSpec) Speedup(p int) float64 {
	if cs.Type == CurveAmdahl {
		return Amdahl{Serial: cs.Serial}.Speedup(p)
	}
	return PowerLaw{Alpha: cs.Alpha}.Speedup(p)
}

// curveEps absorbs float rounding in the CheckCurve comparisons.
const curveEps = 1e-9

// CheckCurve numerically verifies the model's assumptions over p = 1..pmax:
// s(1) = 1 (identity), s nondecreasing (monotone), increments nonincreasing
// (concave), and s(p) ≤ p (no superlinear speedup). Spec-decoded curves
// satisfy it by construction; the check exists for custom Curve
// implementations and as the oracle of the curve test suite.
func CheckCurve(c Curve, pmax int) error { return checkCurve(c, pmax) }

// speeder is what the curve arithmetic needs of a curve: a Curve, or a
// CurveSpec, which FromSpec evaluates without boxing it into one.
type speeder interface{ Speedup(p int) float64 }

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
