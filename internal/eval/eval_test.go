package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/stream"
)

func TestMeanTrueScore(t *testing.T) {
	ranked := []uint64{5, 2, 9}
	score := func(k uint64) float64 { return float64(k) }
	if got := MeanTrueScore(ranked, 2, score); got != 3.5 {
		t.Errorf("MeanTrueScore = %v, want 3.5", got)
	}
	if got := MeanTrueScore(ranked, 10, score); math.Abs(got-16.0/3) > 1e-12 {
		t.Errorf("clamped MeanTrueScore = %v", got)
	}
	if !math.IsNaN(MeanTrueScore(nil, 3, score)) {
		t.Error("empty ranked should be NaN")
	}
}

func TestMaxF1PerfectRanking(t *testing.T) {
	// Signals ranked first: F1 = 1 at the boundary.
	ranked := []uint64{1, 2, 3, 10, 11, 12}
	isSig := func(k uint64) bool { return k < 4 }
	if got := MaxF1(ranked, 3, isSig); got != 1 {
		t.Errorf("MaxF1 = %v, want 1", got)
	}
}

func TestMaxF1Interleaved(t *testing.T) {
	// Ranking: S N S N. Signals total = 2.
	ranked := []uint64{1, 100, 2, 101}
	isSig := func(k uint64) bool { return k < 10 }
	// Prefixes: F1 = 2/3, 1/2, 4/5, 2/3 → max 0.8.
	if got := MaxF1(ranked, 2, isSig); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("MaxF1 = %v, want 0.8", got)
	}
}

func TestMaxF1Degenerate(t *testing.T) {
	if !math.IsNaN(MaxF1(nil, 2, func(uint64) bool { return true })) {
		t.Error("empty ranking should be NaN")
	}
	if !math.IsNaN(MaxF1([]uint64{1}, 0, func(uint64) bool { return true })) {
		t.Error("zero signals should be NaN")
	}
	// No signals in ranking → best F1 is 0.
	if got := MaxF1([]uint64{5, 6}, 2, func(uint64) bool { return false }); got != 0 {
		t.Errorf("MaxF1 with no hits = %v", got)
	}
}

func TestPrecisionRecallAt(t *testing.T) {
	ranked := []uint64{1, 100, 2, 101}
	isSig := func(k uint64) bool { return k < 10 }
	p, r := PrecisionRecallAt(ranked, 3, 2, isSig)
	if math.Abs(p-2.0/3) > 1e-12 || r != 1 {
		t.Errorf("P/R = %v/%v", p, r)
	}
	p, r = PrecisionRecallAt(ranked, 0, 2, isSig)
	if !math.IsNaN(p) || !math.IsNaN(r) {
		t.Error("k=0 should be NaN")
	}
}

func TestTopTrueKeys(t *testing.T) {
	universe := []uint64{0, 1, 2, 3, 4}
	score := func(k uint64) float64 { return float64(k % 3) } // scores 0,1,2,0,1
	top := TopTrueKeys(universe, 2, score)
	if len(top) != 2 || !top[2] || !top[1] {
		t.Errorf("TopTrueKeys = %v", top)
	}
	all := TopTrueKeys(universe, 99, score)
	if len(all) != 5 {
		t.Errorf("clamped size = %d", len(all))
	}
}

func TestFractionSizesAndLabels(t *testing.T) {
	sizes := FractionSizes(1000, 0.1)
	// αp = 100 → sizes 1,5,10,25,50,100.
	want := []int{1, 5, 10, 25, 50, 100}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("sizes[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
	tiny := FractionSizes(10, 0.01)
	for _, s := range tiny {
		if s < 1 {
			t.Error("sizes must clamp to ≥ 1")
		}
	}
	if FractionLabel(1) != "αp" || FractionLabel(0.05) != "0.05·αp" {
		t.Errorf("labels: %q %q", FractionLabel(1), FractionLabel(0.05))
	}
}

func TestSNRProbeMeasuresPlainCS(t *testing.T) {
	// For vanilla CS everything is admitted: the measured ratio over a
	// window equals Σ signal²/Σ noise² of the offered values.
	ms, err := countsketch.NewMeanSketch(countsketch.Config{Tables: 3, Range: 64, Seed: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewSNRProbe(ms, func(k uint64) bool { return k == 0 }, 5)
	for step := 1; step <= 10; step++ {
		probe.BeginStep(step)
		probe.Offer(0, 2) // signal: energy 4 per step
		probe.Offer(1, 1) // noise: energy 1 per step
	}
	pts := probe.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	for _, pt := range pts {
		if math.Abs(pt.SNR-4) > 1e-12 {
			t.Errorf("SNR = %v, want 4", pt.SNR)
		}
	}
	if pts[0].T != 5 || pts[1].T != 10 {
		t.Errorf("window ends = %d,%d", pts[0].T, pts[1].T)
	}
}

type gateEngine struct {
	*countsketch.MeanSketch
	allow map[uint64]bool
}

func (g *gateEngine) Admits(key uint64) bool { return g.allow[key] }

func TestSNRProbeRespectsAdmits(t *testing.T) {
	ms, _ := countsketch.NewMeanSketch(countsketch.Config{Tables: 3, Range: 64, Seed: 1}, 4)
	g := &gateEngine{MeanSketch: ms, allow: map[uint64]bool{0: true}}
	probe := NewSNRProbe(g, func(k uint64) bool { return k == 0 }, 4)
	for step := 1; step <= 4; step++ {
		probe.BeginStep(step)
		probe.Offer(0, 1) // admitted signal
		probe.Offer(1, 9) // blocked noise: must not count
	}
	pts := probe.Points()
	if len(pts) != 1 {
		t.Fatalf("points = %v", pts)
	}
	// Noise sum is zero → ratio undefined (NaN), because nothing noisy
	// was admitted.
	if !math.IsNaN(pts[0].SNR) {
		t.Errorf("SNR = %v, want NaN (no admitted noise)", pts[0].SNR)
	}
}

func TestExactPairCorrAgainstDense(t *testing.T) {
	// Cross-check the streaming pair correlation against the full matrix
	// computed densely.
	const d, n = 12, 800
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		z := rng.NormFloat64()
		rows[i][0] = z
		rows[i][1] = 0.8*z + 0.6*rng.NormFloat64()
		for j := 2; j < d; j++ {
			if rng.Float64() < 0.6 {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	prs := []dataset.PairRef{{A: 0, B: 1}, {A: 2, B: 3}, {A: 5, B: 9}}
	got, err := ExactPairCorr(stream.NewMatrixSource(rows), prs)
	if err != nil {
		t.Fatal(err)
	}
	// Dense reference.
	for _, pr := range prs {
		var xs, ys []float64
		for _, r := range rows {
			xs = append(xs, r[pr.A])
			ys = append(ys, r[pr.B])
		}
		mx, my := mean(xs), mean(ys)
		var cov, vx, vy float64
		for i := range xs {
			cov += (xs[i] - mx) * (ys[i] - my)
			vx += (xs[i] - mx) * (xs[i] - mx)
			vy += (ys[i] - my) * (ys[i] - my)
		}
		want := cov / math.Sqrt(vx*vy)
		if math.Abs(got[pr]-want) > 1e-9 {
			t.Errorf("pair %+v: %v vs %v", pr, got[pr], want)
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestExactPairCorrErrors(t *testing.T) {
	if _, err := ExactPairCorr(stream.NewMatrixSource(nil), []dataset.PairRef{{A: 0, B: 1}}); err == nil {
		t.Error("empty stream should error")
	}
	if _, err := ExactPairCorr(stream.NewMatrixSource([][]float64{{1}, {2}}), []dataset.PairRef{{A: 1, B: 0}}); err == nil {
		t.Error("invalid pair should error")
	}
}

func TestExactPairCorrZeroVariance(t *testing.T) {
	rows := [][]float64{{1, 1}, {1, 2}, {1, 3}}
	got, err := ExactPairCorr(stream.NewMatrixSource(rows), []dataset.PairRef{{A: 0, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got[dataset.PairRef{A: 0, B: 1}] != 0 {
		t.Error("zero-variance feature should give 0, not NaN")
	}
}
