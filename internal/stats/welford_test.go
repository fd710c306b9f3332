package stats

import (
	"math"
	"math/rand"
	"testing"
)

// relErr is |a−b| relative to the larger magnitude (0 when both are 0).
func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func TestWelfordAddWeightedNonPositiveCountIsNoOp(t *testing.T) {
	var w Welford
	for _, x := range []float64{1.5, -2, 3.25} {
		w.Add(x)
	}
	before := w
	for _, c := range []int64{0, -1, -1 << 40} {
		w.AddWeighted(7, c)
		if w != before {
			t.Fatalf("AddWeighted(7, %d) changed the accumulator: %+v → %+v", c, before, w)
		}
	}
	var empty Welford
	empty.AddWeighted(3, 0)
	if empty != (Welford{}) {
		t.Fatalf("AddWeighted(3, 0) on an empty accumulator = %+v", empty)
	}
}

func TestWelfordAddWeightedIntoEmptyCopiesBlock(t *testing.T) {
	for _, x := range []float64{0, -0.0, 1e-300, -3.5, 1e300} {
		for _, c := range []int64{1, 2, 99_999} {
			var w Welford
			w.AddWeighted(x, c)
			want := Welford{n: c, mean: x}
			if w.n != want.n || math.Float64bits(w.mean) != math.Float64bits(want.mean) || w.m2 != 0 {
				t.Errorf("AddWeighted(%v, %d) into empty = %+v, want %+v", x, c, w, want)
			}
		}
	}
}

// TestWelfordAddWeightedMatchesAddLoop checks the closed form against
// count repeated Adds on top of random prefixes, for counts spanning
// 1..10⁵ and x at zero, small and large magnitudes of either sign.
func TestWelfordAddWeightedMatchesAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	counts := []int64{1, 2, 3, 10, 97, 1000, 12_345, 100_000}
	xs := []float64{0, 1e-9, -1e-9, 1e9, -1e9, 0.5, -2.75}
	worst := 0.0
	for trial := 0; trial < 6; trial++ {
		var prefix Welford
		n := 1 + rng.Intn(400)
		loc, scale := rng.NormFloat64()*3, math.Exp(rng.NormFloat64()*2)
		for i := 0; i < n; i++ {
			prefix.Add(loc + scale*rng.NormFloat64())
		}
		for _, c := range counts {
			for _, x := range xs {
				fast, slow := prefix, prefix
				fast.AddWeighted(x, c)
				for i := int64(0); i < c; i++ {
					slow.Add(x)
				}
				if fast.Count() != slow.Count() {
					t.Fatalf("count %d, want %d", fast.Count(), slow.Count())
				}
				em, ev := relErr(fast.Mean(), slow.Mean()), relErr(fast.Variance(), slow.Variance())
				if em > 1e-12 || ev > 1e-12 {
					t.Errorf("prefix n=%d loc=%.3g scale=%.3g, x=%g count=%d: mean %v vs %v (rel %.2g), var %v vs %v (rel %.2g)",
						n, loc, scale, x, c, fast.Mean(), slow.Mean(), em, fast.Variance(), slow.Variance(), ev)
				}
				worst = math.Max(worst, math.Max(em, ev))
			}
		}
	}
	t.Logf("worst relative error against the Add loop: %.3g", worst)
}
