package covstream

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/stream"
)

// TestWaveMatchesScalarThroughEstimator pins the wave pipeline at the
// covstream layer: the row-base pair enumeration flushes through
// OfferPairs, so an estimator over a wave-grouped engine must produce
// bit-identical top-k, estimates, and serialized engine state to one
// over the same engine forced onto the scalar batch loop — fixed and
// decayed (λ = 1 and λ < 1), with candidate tracking on.
func TestWaveMatchesScalarThroughEstimator(t *testing.T) {
	const dim, T = 48, 200
	rng := rand.New(rand.NewSource(456))
	samples := make([]stream.Sample, T)
	for i := range samples {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.5 {
				row[j] = rng.NormFloat64()
			}
		}
		row[7] = row[11]*0.95 + 0.05*rng.NormFloat64()
		samples[i] = stream.FromDense(row)
	}
	skCfg := countsketch.Config{Tables: 5, Range: 512, Seed: 12}
	hp := core.Hyperparams{T0: T / 8, Theta: 0.05, Tau0: 1e-4, T: T}
	for _, lambda := range []float64{0, 1, 0.995} {
		build := func() *core.Engine {
			var (
				eng *core.Engine
				err error
			)
			if lambda == 0 {
				eng, err = core.NewEngine(skCfg, hp, true)
			} else {
				eng, err = core.NewEngineDecayed(skCfg, hp, true, lambda)
			}
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		scalarEng, waveEng := build(), build()
		scalarEng.SetWaveGroup(1)
		// Default wave group: exactly what production estimators run.
		cfg := Config{Dim: dim, T: T, TrackCandidates: 64}
		if lambda != 0 {
			cfg.Decay = lambda
		}
		scfg, wcfg := cfg, cfg
		scfg.Engine, wcfg.Engine = scalarEng, waveEng
		scalar, err := New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		wave, err := New(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if err := scalar.Observe(s); err != nil {
				t.Fatal(err)
			}
			if err := wave.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		st, err := scalar.TopMagnitude(10)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := wave.TopMagnitude(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(st) != len(wt) {
			t.Fatalf("λ=%v: top lengths %d vs %d", lambda, len(st), len(wt))
		}
		for i := range st {
			if st[i] != wt[i] {
				t.Fatalf("λ=%v rank %d: scalar %+v != wave %+v", lambda, i, st[i], wt[i])
			}
		}
		var bs, bw bytes.Buffer
		if _, err := scalarEng.WriteTo(&bs); err != nil {
			t.Fatal(err)
		}
		if _, err := waveEng.WriteTo(&bw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs.Bytes(), bw.Bytes()) {
			t.Fatalf("λ=%v: serialized engines diverge", lambda)
		}
	}
}
