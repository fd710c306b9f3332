package covstream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// decayStream builds a deterministic sparse stream with a few planted
// heavy pairs.
func decayStream(dim, n int, seed int64) []stream.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Sample, n)
	for i := range out {
		row := make([]float64, dim)
		// Planted signal: features 0 and 1 co-occur strongly.
		if rng.Float64() < 0.8 {
			v := 1 + rng.Float64()
			row[0], row[1] = v, v*0.9
		}
		for j := 2; j < dim; j++ {
			if rng.Float64() < 0.3 {
				row[j] = rng.NormFloat64() * 0.2
			}
		}
		out[i] = stream.FromDense(row)
	}
	return out
}

// TestDecayedLambda1DifferentialAllEngines is the acceptance pin: for
// each of the four engines, a λ=1 decay-mode estimator is bit-identical
// (estimates over every pair key, and Top/TopMagnitude output) to the
// fixed-horizon estimator over the same stream — while also accepting
// samples past T, which the fixed path must reject.
func TestDecayedLambda1DifferentialAllEngines(t *testing.T) {
	const dim, T = 24, 200
	samples := decayStream(dim, T+40, 97)
	skCfg := countsketch.Config{Tables: 5, Range: 2048, Seed: 12}
	l1Cfg := countsketch.Config{Tables: 3, Range: 256, Seed: 18}
	schedule := core.Hyperparams{T0: 30, Theta: 0.05, Tau0: 1e-4, T: T}

	build := func(name string, decayed bool) sketchapi.Engine {
		switch name {
		case "CS":
			if decayed {
				e, err := countsketch.NewMeanSketchDecayed(skCfg, T, 1)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e, err := countsketch.NewMeanSketch(skCfg, T)
			if err != nil {
				t.Fatal(err)
			}
			return e
		case "ASCS":
			if decayed {
				e, err := core.NewEngineDecayed(skCfg, schedule, true, 1)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e, err := core.NewEngine(skCfg, schedule, true)
			if err != nil {
				t.Fatal(err)
			}
			return e
		case "ASketch":
			if decayed {
				e, err := baselines.NewASketchDecayed(skCfg, T, 8, 1)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e, err := baselines.NewASketch(skCfg, T, 8)
			if err != nil {
				t.Fatal(err)
			}
			return e
		case "ColdFilter":
			if decayed {
				e, err := baselines.NewColdFilterDecayed(l1Cfg, skCfg, T, 0.01, 1)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e, err := baselines.NewColdFilter(l1Cfg, skCfg, T, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		t.Fatalf("unknown engine %q", name)
		return nil
	}

	for _, name := range []string{"CS", "ASCS", "ASketch", "ColdFilter"} {
		fixed, err := New(Config{
			Dim: dim, T: T, Engine: build(name, false),
			TrackCandidates: 1 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := New(Config{
			Dim: dim, T: T, Engine: build(name, true),
			TrackCandidates: 1 << 10, Decay: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples[:T] {
			if err := fixed.Observe(s); err != nil {
				t.Fatal(err)
			}
			if err := dec.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		p := pairs.Count(dim)
		for key := uint64(0); key < uint64(p); key++ {
			fe := fixed.Engine().Estimate(key)
			de := dec.Engine().Estimate(key)
			if math.Float64bits(fe) != math.Float64bits(de) {
				t.Fatalf("%s key %d: fixed %v vs λ=1 decayed %v", name, key, fe, de)
			}
		}
		for _, magnitude := range []bool{false, true} {
			var ft, dt []PairEstimate
			var err error
			if magnitude {
				ft, err = fixed.TopMagnitude(10)
			} else {
				ft, err = fixed.Top(10)
			}
			if err != nil {
				t.Fatal(err)
			}
			if magnitude {
				dt, err = dec.TopMagnitude(10)
			} else {
				dt, err = dec.Top(10)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range ft {
				if ft[i] != dt[i] {
					t.Fatalf("%s magnitude=%v rank %d: %+v vs %+v", name, magnitude, i, ft[i], dt[i])
				}
			}
		}
		// The fixed path is exhausted at T; the decayed path keeps going.
		if err := fixed.Observe(samples[T]); err == nil {
			t.Fatalf("%s: fixed estimator accepted a sample past T", name)
		}
		for _, s := range samples[T:] {
			if err := dec.Observe(s); err != nil {
				t.Fatalf("%s: decayed estimator rejected sample past T: %v", name, err)
			}
		}
		if got := dec.Steps(); got != len(samples) {
			t.Fatalf("%s: decayed estimator at step %d, want %d", name, got, len(samples))
		}
	}
}

// TestDecayConfigValidation pins the driver/engine decay-mode agreement
// checks.
func TestDecayConfigValidation(t *testing.T) {
	skCfg := countsketch.Config{Tables: 3, Range: 64, Seed: 1}
	fixedEng, err := countsketch.NewMeanSketch(skCfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	decEng, err := countsketch.NewMeanSketchDecayed(skCfg, 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dim: 4, T: 100, Engine: fixedEng, Decay: 0.99}); err == nil {
		t.Fatal("decay config over a fixed engine must be rejected")
	}
	if _, err := New(Config{Dim: 4, T: 100, Engine: decEng}); err == nil {
		t.Fatal("fixed config over a decayed engine must be rejected")
	}
	if _, err := New(Config{Dim: 4, T: 100, Engine: decEng, Decay: 0.5}); err == nil {
		t.Fatal("mismatched λ must be rejected")
	}
	if _, err := New(Config{Dim: 4, T: 100, Engine: decEng, Decay: 0.99}); err != nil {
		t.Fatalf("matched decay config rejected: %v", err)
	}
}
