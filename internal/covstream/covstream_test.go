package covstream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/pairs"
	"repro/internal/stream"
)

// bigCS returns a collision-free CS engine (huge R) for exactness tests.
func bigCS(t *testing.T, total int) *countsketch.MeanSketch {
	t.Helper()
	ms, err := countsketch.NewMeanSketch(countsketch.Config{Tables: 5, Range: 1 << 16, Seed: 5}, total)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestNewValidation(t *testing.T) {
	eng := bigCS(t, 10)
	bad := []Config{
		{Dim: 1, T: 10, Engine: eng},
		{Dim: 5, T: 0, Engine: eng},
		{Dim: 5, T: 10},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestObserveRejectsBadSamples(t *testing.T) {
	e, err := New(Config{Dim: 4, T: 5, Engine: bigCS(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(stream.Sample{Idx: []int{9}, Val: []float64{1}}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := e.Observe(stream.Sample{Idx: []int{0}, Val: []float64{math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestObserveRejectsOverrun(t *testing.T) {
	e, _ := New(Config{Dim: 3, T: 2, Engine: bigCS(t, 2)})
	s := stream.Sample{Idx: []int{0, 1}, Val: []float64{1, 1}}
	if err := e.Observe(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(s); err == nil {
		t.Error("third sample should exceed T=2")
	}
	if e.Steps() != 2 {
		t.Errorf("Steps = %d", e.Steps())
	}
}

func TestSecondMomentMatchesExactEYaYb(t *testing.T) {
	// With a collision-free sketch, the estimate of pair (a,b) equals
	// (1/T)·Σ ya·yb exactly.
	const d, T = 8, 200
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if rng.Float64() < 0.5 { // sparse
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	eng := bigCS(t, T)
	e, err := New(Config{Dim: d, T: T, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(stream.NewMatrixSource(rows)); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			want := 0.0
			for _, r := range rows {
				want += r[a] * r[b]
			}
			want /= T
			if got := e.EstimatePair(a, b); math.Abs(got-want) > 1e-12 {
				t.Fatalf("pair (%d,%d): %v vs %v", a, b, got, want)
			}
			// Argument order must not matter.
			if got := e.EstimatePair(b, a); math.Abs(got-want) > 1e-12 {
				t.Fatalf("pair (%d,%d) swapped: %v", b, a, got)
			}
		}
	}
}

func TestTopExhaustive(t *testing.T) {
	// Plant one strong pair; Top(1) must find it.
	const d, T = 10, 300
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		z := rng.NormFloat64()
		rows[i][2] = z
		rows[i][7] = 0.95*z + 0.31*rng.NormFloat64()
		for j := 0; j < d; j++ {
			if j != 2 && j != 7 {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	eng := bigCS(t, T)
	e, _ := New(Config{Dim: d, T: T, Engine: eng})
	if _, err := e.Run(stream.NewMatrixSource(rows)); err != nil {
		t.Fatal(err)
	}
	top, err := e.Top(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].A != 2 || top[0].B != 7 {
		t.Fatalf("Top = %+v", top)
	}
	if top[0].Key != pairs.Key(2, 7, d) {
		t.Error("key mismatch")
	}
	if _, err := e.Top(0); err == nil {
		t.Error("Top(0) should error")
	}
}

func TestTopWithTrackerMatchesExhaustive(t *testing.T) {
	const d, T = 40, 400
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		z := rng.NormFloat64()
		// Three strong pairs.
		rows[i][0] = z
		rows[i][1] = 0.9*z + 0.44*rng.NormFloat64()
		z2 := rng.NormFloat64()
		rows[i][10] = z2
		rows[i][11] = 0.85*z2 + 0.53*rng.NormFloat64()
		for j := 0; j < d; j++ {
			if rows[i][j] == 0 && j > 1 && (j < 10 || j > 11) {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	run := func(trackCap int) []PairEstimate {
		eng := bigCS(t, T)
		e, _ := New(Config{Dim: d, T: T, Engine: eng, TrackCandidates: trackCap})
		if _, err := e.Run(stream.NewMatrixSource(rows)); err != nil {
			t.Fatal(err)
		}
		top, err := e.Top(3)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	exhaustive := run(0)
	tracked := run(200)
	if len(exhaustive) != 3 || len(tracked) != 3 {
		t.Fatalf("lengths %d/%d", len(exhaustive), len(tracked))
	}
	for i := range exhaustive {
		if exhaustive[i].Key != tracked[i].Key {
			t.Errorf("rank %d: exhaustive %v vs tracked %v", i, exhaustive[i], tracked[i])
		}
	}
}

func TestTopRefusesHugeExhaustive(t *testing.T) {
	eng := bigCS(t, 10)
	e, _ := New(Config{Dim: 100000, T: 10, Engine: eng, MaxExhaustivePairs: 1000})
	if _, err := e.Top(5); err == nil {
		t.Error("expected exhaustive-limit error")
	}
	if _, err := e.RankedKeys(); err == nil {
		t.Error("RankedKeys should also refuse")
	}
}

func TestRankedKeysOrder(t *testing.T) {
	const d, T = 6, 100
	rng := rand.New(rand.NewSource(6))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	eng := bigCS(t, T)
	e, _ := New(Config{Dim: d, T: T, Engine: eng})
	if _, err := e.Run(stream.NewMatrixSource(rows)); err != nil {
		t.Fatal(err)
	}
	keys, err := e.RankedKeys()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(keys)) != pairs.Count(d) {
		t.Fatalf("len = %d", len(keys))
	}
	prev := math.Inf(1)
	for _, k := range keys {
		v := eng.Estimate(k)
		if v > prev+1e-12 {
			t.Fatal("RankedKeys not descending")
		}
		prev = v
	}
}

func TestWarmupPercentiles(t *testing.T) {
	// A dataset with one dominant pair: the top percentile of warm-up
	// estimates must be near that pair's second moment.
	const d, T = 12, 400
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		z := rng.NormFloat64()
		rows[i][0] = z
		rows[i][1] = z
		rows[i][2] = z // features 0,1,2 identical: 3 signal pairs
		for j := 3; j < d; j++ {
			rows[i][j] = rng.NormFloat64() * 0.3
		}
	}
	w, err := Warmup(stream.NewMatrixSource(rows), 300,
		countsketch.Config{Tables: 5, Range: 1 << 14, Seed: 9}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.SamplesUsed != 300 {
		t.Errorf("SamplesUsed = %d", w.SamplesUsed)
	}
	// Pair (0,1) has E[YaYb] = 1; everything else ~ 0.
	top := w.Percentile(100)
	if top < 0.7 {
		t.Errorf("top percentile = %v, want near 1", top)
	}
	med := w.Percentile(50)
	if math.Abs(med) > 0.1 {
		t.Errorf("median = %v, want near 0", med)
	}
	// With 3 signal pairs among 66, choosing α just below 3/66 places the
	// (1−α) percentile inside the signal block (§8.1's recipe).
	if u := w.SignalStrength(2.0 / 66); u < 0.5 {
		t.Errorf("signal strength = %v", u)
	}
	if w.Sigma <= 0 {
		t.Errorf("sigma = %v", w.Sigma)
	}
}

func TestWarmupErrors(t *testing.T) {
	if _, err := Warmup(stream.NewMatrixSource(nil), 0, countsketch.Config{Tables: 5, Range: 8}, 0, 1); err == nil {
		t.Error("warmupN=0 should error")
	}
	if _, err := Warmup(stream.NewMatrixSource(nil), 10, countsketch.Config{}, 0, 1); err == nil {
		t.Error("bad sketch config should error")
	}
	empty := stream.NewMatrixSource([][]float64{})
	if _, err := Warmup(empty, 10, countsketch.Config{Tables: 5, Range: 8}, 0, 1); err == nil {
		t.Error("empty stream should error")
	}
}

func TestWarmupSeenCensusCapped(t *testing.T) {
	// maxSeen caps the distinct-key census memory.
	const d, T = 60, 50
	rng := rand.New(rand.NewSource(8))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	w, err := Warmup(stream.NewMatrixSource(rows), T,
		countsketch.Config{Tables: 5, Range: 1 << 12, Seed: 2}, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Seen) != 500 {
		t.Errorf("census size = %d, want 500 (capped)", len(w.Seen))
	}
	// Census must be sorted descending.
	for i := 1; i < len(w.Seen); i++ {
		if w.Seen[i] > w.Seen[i-1] {
			t.Fatal("census not sorted descending")
		}
	}
}

func TestWarmupPercentileRanksAgainstFullP(t *testing.T) {
	// A sparse stream over a large dimension: only a handful of pairs
	// ever co-occur, yet percentiles rank against all p pairs, with the
	// unseen middle at zero.
	const d = 2000 // p ≈ 2M
	samples := make([]stream.Sample, 100)
	for i := range samples {
		samples[i] = stream.Sample{Idx: []int{5, 9}, Val: []float64{1, 1}}
	}
	w, err := Warmup(stream.NewSliceSource(samples, d), 100,
		countsketch.Config{Tables: 5, Range: 1 << 12, Seed: 4}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Seen) != 1 {
		t.Fatalf("seen = %d, want 1", len(w.Seen))
	}
	if got := w.Percentile(100); math.Abs(got-1) > 1e-9 {
		t.Errorf("top percentile = %v, want 1", got)
	}
	if got := w.Percentile(50); got != 0 {
		t.Errorf("median = %v, want 0 (unseen mass)", got)
	}
	// u at α matching one pair out of p: the single seen estimate.
	alpha := 1.0 / float64(w.P)
	if got := w.SignalStrength(alpha); math.Abs(got-1) > 1e-9 {
		t.Errorf("signal strength = %v, want 1", got)
	}
}

func TestWarmupSaturatedCensusStaysUnbiased(t *testing.T) {
	// Dense stream with many distinct pairs; cap the census well below
	// the distinct count and compare percentiles against the exact
	// (uncapped) census.
	const d, T = 80, 60 // p = 3160 distinct pairs, all seen
	rng := rand.New(rand.NewSource(12))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	cfg := countsketch.Config{Tables: 5, Range: 1 << 13, Seed: 3}
	full, err := Warmup(stream.NewMatrixSource(rows), T, cfg, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Warmup(stream.NewMatrixSource(rows), T, cfg, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Seen) != 500 {
		t.Fatalf("capped census size = %d", len(capped.Seen))
	}
	// Distinct estimate within KMV error of the true 3160.
	if math.Abs(capped.DistinctSeen-3160)/3160 > 0.25 {
		t.Errorf("DistinctSeen = %.0f, want ≈ 3160", capped.DistinctSeen)
	}
	// Central percentiles agree within sampling error (the estimate
	// distribution is roughly N(0, 1/T), so compare at ±0.05 absolute).
	for _, q := range []float64{75, 50, 25} {
		a, c := full.Percentile(q), capped.Percentile(q)
		if math.Abs(a-c) > 0.08 {
			t.Errorf("percentile %v: full %v vs capped %v", q, a, c)
		}
	}
}

func TestTopMagnitudeWithAndWithoutTracker(t *testing.T) {
	const d, T = 20, 400
	rng := rand.New(rand.NewSource(31))
	rows := make([][]float64, T)
	for i := range rows {
		rows[i] = make([]float64, d)
		z := rng.NormFloat64()
		rows[i][2] = z
		rows[i][5] = -z // perfect negative correlation
		for j := 0; j < d; j++ {
			if j != 2 && j != 5 {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	for _, track := range []int{0, 100} {
		eng := bigCS(t, T)
		e, _ := New(Config{Dim: d, T: T, Engine: eng, TrackCandidates: track})
		if _, err := e.Run(stream.NewMatrixSource(rows)); err != nil {
			t.Fatal(err)
		}
		top, err := e.TopMagnitude(1)
		if err != nil {
			t.Fatal(err)
		}
		if top[0].A != 2 || top[0].B != 5 {
			t.Fatalf("track=%d: TopMagnitude = %+v", track, top[0])
		}
		if top[0].Estimate >= 0 {
			t.Fatalf("track=%d: estimate lost its sign: %v", track, top[0].Estimate)
		}
	}
}
