package stream_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/stream"
)

// referenceFit is the standardizer's original fit: per-feature Welford
// moments over the stored coordinates, then each implicit zero folded
// in by its own Add. It is O(d × n) and kept only as the differential
// reference for the closed-form fold.
func referenceFit(samples []stream.Sample, d int) (mean, invStd []float64) {
	accs := make([]stats.Welford, d)
	for _, s := range samples {
		for i, ix := range s.Idx {
			accs[ix].Add(s.Val[i])
		}
	}
	n := int64(len(samples))
	mean = make([]float64, d)
	invStd = make([]float64, d)
	for j := 0; j < d; j++ {
		w := accs[j]
		for z := w.Count(); z < n; z++ {
			w.Add(0)
		}
		if w.Count() > 0 {
			mean[j] = w.Mean()
		}
		if sd := w.Std(); sd > 0 {
			invStd[j] = 1 / sd
		}
	}
	return mean, invStd
}

// featureRole says how a feature of sparseStream appears in samples.
type featureRole int

const (
	roleBackground  featureRole = iota // rare, random values (or never seen)
	roleAlways                         // in every sample, random values
	roleAlwaysConst                    // in every sample, one value: zero variance
	roleSometimes                      // in a random fraction of samples
	roleSometimesC                     // in a random fraction, one value
)

// sparseStream draws n sparse samples over d features: up to 40 active
// features with assigned roles, plus ~bgNZ rare background coordinates
// per sample at mixed magnitudes.
func sparseStream(d, n, bgNZ int, seed int64) ([]stream.Sample, []featureRole) {
	rng := rand.New(rand.NewSource(seed))
	roles := make([]featureRole, d)
	prob := make([]float64, d)
	konst := make([]float64, d)
	active := rng.Perm(d)
	if len(active) > 40 {
		active = active[:40]
	}
	for _, j := range active {
		roles[j] = featureRole(1 + rng.Intn(4))
		prob[j] = 0.02 + 0.9*rng.Float64()
		konst[j] = math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
	}
	out := make([]stream.Sample, n)
	for i := range out {
		vals := map[int]float64{}
		for _, j := range active {
			switch roles[j] {
			case roleAlways:
				vals[j] = rng.NormFloat64() + 0.5
			case roleAlwaysConst:
				vals[j] = konst[j]
			case roleSometimes:
				if rng.Float64() < prob[j] {
					vals[j] = konst[j] * (1 + rng.NormFloat64())
				}
			case roleSometimesC:
				if rng.Float64() < prob[j] {
					vals[j] = konst[j]
				}
			}
		}
		for b := 0; b < bgNZ && d > 1; b++ {
			if j := rng.Intn(d); roles[j] == roleBackground {
				vals[j] = math.Ldexp(rng.NormFloat64(), rng.Intn(20)-10)
			}
		}
		var s stream.Sample
		for j, v := range vals {
			if v != 0 {
				s.Idx = append(s.Idx, j)
			}
		}
		slices.Sort(s.Idx)
		for _, j := range s.Idx {
			s.Val = append(s.Val, vals[j])
		}
		out[i] = s
	}
	return out, roles
}

func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestStandardizerClosedFormFoldMatchesReference compares the fitted
// means and reciprocal standard deviations against the per-zero loop:
// bit-equal where no zero is folded (features never observed or present
// in every sample), exactly zero for zero-variance features (constant,
// or never observed), and within 1e-12 relative everywhere else.
func TestStandardizerClosedFormFoldMatchesReference(t *testing.T) {
	for _, d := range []int{1, 7, 1_000, 100_000} {
		n := 2_000
		if d == 100_000 {
			n = 300 // the reference costs d × n Adds
		}
		for _, center := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("d=%d/center=%v/seed=%d", d, center, seed), func(t *testing.T) {
					samples, roles := sparseStream(d, n, 15, seed*1000+int64(d))
					st, err := stream.NewStandardizer(stream.NewSliceSource(samples, d), n, center)
					if err != nil {
						t.Fatal(err)
					}
					gotMean, gotInv := st.Means(), st.InvStds()
					wantMean, wantInv := referenceFit(samples, d)
					seen := make([]int, d)
					for _, s := range samples {
						for _, ix := range s.Idx {
							seen[ix]++
						}
					}
					var worst float64
					for j := 0; j < d; j++ {
						if (seen[j] == 0 || roles[j] == roleAlwaysConst) && gotInv[j] != 0 {
							t.Fatalf("zero-variance feature %d (seen %d/%d): invStd %v, want 0", j, seen[j], n, gotInv[j])
						}
						if seen[j] == 0 || seen[j] == n {
							if math.Float64bits(gotMean[j]) != math.Float64bits(wantMean[j]) ||
								math.Float64bits(gotInv[j]) != math.Float64bits(wantInv[j]) {
								t.Fatalf("feature %d (seen %d/%d): mean %v invStd %v, want bit-equal %v %v",
									j, seen[j], n, gotMean[j], gotInv[j], wantMean[j], wantInv[j])
							}
							continue
						}
						em, ei := relErr(gotMean[j], wantMean[j]), relErr(gotInv[j], wantInv[j])
						if em > 1e-12 || ei > 1e-12 {
							t.Fatalf("feature %d (seen %d/%d): mean %v vs %v (rel %.2g), invStd %v vs %v (rel %.2g)",
								j, seen[j], n, gotMean[j], wantMean[j], em, gotInv[j], wantInv[j], ei)
						}
						worst = math.Max(worst, math.Max(em, ei))
					}
					t.Logf("worst relative deviation: %.3g", worst)
				})
			}
		}
	}
}

// BenchmarkStandardizerFit times the warm-up fit at the sparse-ascs
// shape (d = 100 000 URL-like features, a 2 000-sample prefix, ~15
// nonzeros per sample) and at d = 10⁶.
func BenchmarkStandardizerFit(b *testing.B) {
	for _, d := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			const n = 2_000
			cfg := dataset.URLConfig{
				Dim: d, GroupSize: 3, Groups: d / 3, ActiveGroups: 3,
				FireProb: 0.95, BackgroundNZ: 6, Seed: 1,
			}
			src, err := cfg.NewSource(n)
			if err != nil {
				b.Fatal(err)
			}
			samples := make([]stream.Sample, 0, n)
			for s, ok := src.Next(); ok; s, ok = src.Next() {
				samples = append(samples, s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := stream.NewStandardizer(stream.NewSliceSource(samples, d), n, false)
				if err != nil {
					b.Fatal(err)
				}
				_ = st.InvStds()
			}
		})
	}
}
