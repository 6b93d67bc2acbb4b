package moldable

import (
	"math"
	"strings"
	"testing"
)

// powerlaw and amdahl build the two wire curves.
func powerlaw(alpha float64) CurveSpec { return CurveSpec{Type: CurvePowerLaw, Alpha: alpha} }
func amdahl(serial float64) CurveSpec  { return CurveSpec{Type: CurveAmdahl, Serial: serial} }

// TestSpeedupClosedForms holds CurveSpec.Speedup to the two closed forms
// bit for bit: every moldable duration is ceil(work / s(p)), so a speedup
// that moves by one ulp can move a duration, a makespan and the journal.
func TestSpeedupClosedForms(t *testing.T) {
	for _, a := range []float64{0.3, 0.5, 0.9, 1} {
		for p := 1; p <= 256; p++ {
			if got, want := powerlaw(a).Speedup(p), math.Pow(float64(p), a); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("powerlaw %v: s(%d) = %v, want p^alpha = %v", a, p, got, want)
			}
		}
	}
	for _, sf := range []float64{0, 0.05, 0.5, 1} {
		for p := 1; p <= 256; p++ {
			if got, want := amdahl(sf).Speedup(p), 1/(sf+(1-sf)/float64(p)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("amdahl %v: s(%d) = %v, want 1/(s+(1-s)/p) = %v", sf, p, got, want)
			}
		}
	}
}

// TestCurveFamilies is the table-driven model-assumption check for every
// curve the wire format can express: valid, s(1) = 1, monotone, concave,
// never superlinear — verified pointwise here, independently of
// checkCurve, and then through checkCurve itself.
func TestCurveFamilies(t *testing.T) {
	cases := []struct {
		name  string
		curve CurveSpec
	}{
		{"powerlaw-0.3", powerlaw(0.3)},
		{"powerlaw-0.5", powerlaw(0.5)},
		{"powerlaw-0.9", powerlaw(0.9)},
		{"powerlaw-linear", powerlaw(1)},
		{"amdahl-perfect", amdahl(0)},
		{"amdahl-0.05", amdahl(0.05)},
		{"amdahl-0.5", amdahl(0.5)},
		{"amdahl-serial", amdahl(1)},
	}
	const pmax = 256
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.curve.validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if s1 := tc.curve.Speedup(1); math.Abs(s1-1) > curveEps {
				t.Fatalf("s(1) = %v, want 1", s1)
			}
			prev, prevInc := 1.0, math.Inf(1)
			for p := 2; p <= pmax; p++ {
				s := tc.curve.Speedup(p)
				if s < prev-curveEps {
					t.Fatalf("s(%d) = %v < s(%d) = %v: not monotone", p, s, p-1, prev)
				}
				if s > float64(p)+curveEps {
					t.Fatalf("s(%d) = %v > p: superlinear", p, s)
				}
				if inc := s - prev; inc > prevInc+curveEps {
					t.Fatalf("increment at p=%d grew (%v after %v): not concave", p, inc, prevInc)
				} else {
					prevInc = inc
				}
				prev = s
			}
			if err := checkCurve(tc.curve, pmax); err != nil {
				t.Fatalf("checkCurve: %v", err)
			}
		})
	}
}

// badCurve violates concavity: a convex s(p) = p²/pmax-ish ramp.
type badCurve struct{}

func (badCurve) Speedup(p int) float64 {
	if p == 1 {
		return 1
	}
	return 1 + float64(p*p)/64
}

// offsetCurve breaks the s(1) = 1 anchor.
type offsetCurve struct{}

func (offsetCurve) Speedup(p int) float64 { return float64(p) / 2 }

// nonMonotone dips at p = 3.
type nonMonotone struct{}

func (nonMonotone) Speedup(p int) float64 {
	if p == 3 {
		return 1.5
	}
	return math.Min(float64(p), 2)
}

// TestCheckCurveRejects feeds checkCurve curves that break each model
// assumption and asserts the failure is detected and named.
func TestCheckCurveRejects(t *testing.T) {
	cases := []struct {
		name string
		c    speeder
		pmax int
		want string
	}{
		{"superlinear-or-convex", badCurve{}, 16, "concave"},
		{"non-monotone", nonMonotone{}, 8, "monotone"},
		{"bad-identity", offsetCurve{}, 4, "s(1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkCurve(tc.c, tc.pmax)
			if err == nil {
				t.Fatal("checkCurve accepted an invalid curve")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCurveSpecValidation exercises the wire-decoding error paths.
func TestCurveSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec CurveSpec
		want string // "" = valid
	}{
		{"powerlaw-ok", CurveSpec{Type: CurvePowerLaw, Alpha: 0.5}, ""},
		{"amdahl-ok", CurveSpec{Type: CurveAmdahl, Serial: 0.25}, ""},
		{"amdahl-zero", CurveSpec{Type: CurveAmdahl}, ""},
		{"unknown-type", CurveSpec{Type: "gustafson"}, "unknown curve type"},
		{"empty-type", CurveSpec{}, "unknown curve type"},
		{"alpha-zero", CurveSpec{Type: CurvePowerLaw}, "out of range"},
		{"alpha-high", CurveSpec{Type: CurvePowerLaw, Alpha: 1.5}, "out of range"},
		{"alpha-nan", CurveSpec{Type: CurvePowerLaw, Alpha: math.NaN()}, "out of range"},
		{"serial-negative", CurveSpec{Type: CurveAmdahl, Serial: -0.1}, "out of range"},
		{"serial-high", CurveSpec{Type: CurveAmdahl, Serial: 1.5}, "out of range"},
		{"powerlaw-stray-serial", CurveSpec{Type: CurvePowerLaw, Alpha: 0.5, Serial: 0.1}, "stray serial"},
		{"amdahl-stray-alpha", CurveSpec{Type: CurveAmdahl, Serial: 0.1, Alpha: 0.5}, "stray alpha"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				if err := checkCurve(tc.spec, 64); err != nil {
					t.Fatalf("decoded curve violates the model: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestStepsIdentity pins the p = 1 degenerate case: on one processor every
// task runs for exactly its serial work, whatever the curve.
func TestStepsIdentity(t *testing.T) {
	curves := []CurveSpec{powerlaw(0.3), powerlaw(1), amdahl(0), amdahl(1)}
	for _, c := range curves {
		for _, w := range []int{1, 2, 7, 1000} {
			if got := steps(w, c, 1); got != w {
				t.Errorf("%+v: steps(%d, p=1) = %d, want %d", c, w, got, w)
			}
		}
	}
	// Linear speedup divides evenly, rounding up.
	if got := steps(10, powerlaw(1), 4); got != 3 {
		t.Errorf("steps(10, linear, 4) = %d, want 3", got)
	}
	// Duration never drops below one step.
	if got := steps(1, powerlaw(1), 8); got != 1 {
		t.Errorf("steps(1, linear, 8) = %d, want 1", got)
	}
}

// TestStepsMonotone checks that durations never increase with more
// processors — the property the greedy molding in Execute relies on.
func TestStepsMonotone(t *testing.T) {
	curves := []CurveSpec{powerlaw(0.4), powerlaw(0.8), amdahl(0.1), amdahl(0.5)}
	for _, c := range curves {
		for _, w := range []int{1, 5, 33, 512} {
			prev := steps(w, c, 1)
			for p := 2; p <= 32; p++ {
				d := steps(w, c, p)
				if d > prev {
					t.Fatalf("%+v: steps(w=%d) rose from %d to %d at p=%d", c, w, prev, d, p)
				}
				prev = d
			}
		}
	}
}

// TestUsefulProcs pins the ½-efficiency molding cap on curves with known
// closed-form answers.
func TestUsefulProcs(t *testing.T) {
	cases := []struct {
		name string
		c    CurveSpec
		max  int
		want int
	}{
		// Linear speedup is 100% efficient: the cap is the task maximum.
		{"linear", powerlaw(1), 16, 16},
		// s(p) = √p: efficiency √p/p ≥ ½ iff p ≤ 4.
		{"sqrt", powerlaw(0.5), 16, 4},
		{"sqrt-clamped", powerlaw(0.5), 3, 3},
		// Fully serial work: s(p) = 1, so p = 2 sits exactly at ½
		// efficiency (the rule is inclusive) and p = 3 falls below.
		{"serial", amdahl(1), 16, 2},
		// Perfect Amdahl is linear.
		{"amdahl-perfect", amdahl(0), 16, 16},
		// Serial = 1/3: s(p)/p = 1/(p/3 + 2/3·1)… efficiency ½ at
		// s(p) = p/2 ⇒ 1/(1/3 + 2/(3p)) = p/2 ⇒ p = 4.
		{"amdahl-third", amdahl(1.0 / 3), 16, 4},
		{"max-one", powerlaw(0.3), 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := usefulProcs(tc.c, tc.max); got != tc.want {
				t.Fatalf("usefulProcs = %d, want %d", got, tc.want)
			}
		})
	}
	// Property: the cap is efficient, the next allotment is not.
	for _, c := range []CurveSpec{powerlaw(0.35), powerlaw(0.7), amdahl(0.2)} {
		u := usefulProcs(c, 64)
		if 2*c.Speedup(u) < float64(u)-curveEps {
			t.Errorf("%+v: cap %d is below ½ efficiency", c, u)
		}
		if u < 64 && 2*c.Speedup(u+1) >= float64(u+1)-curveEps {
			t.Errorf("%+v: cap %d is not maximal (%d still efficient)", c, u, u+1)
		}
	}
}
