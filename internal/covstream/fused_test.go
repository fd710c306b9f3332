package covstream

import (
	"bytes"
	"fmt"
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

// engineKinds names the four engines buildKind constructs.
var engineKinds = []string{"CS", "ASCS", "ASketch", "ColdFilter"}

// buildKind builds a same-seeded engine of the named kind for a stream
// of T samples: fixed-horizon when lambda is 0, decayed by lambda
// otherwise (T is then the window normalizer).
func buildKind(t *testing.T, kind string, T int, lambda float64) sketchapi.Engine {
	t.Helper()
	skCfg := countsketch.Config{Tables: 5, Range: 512, Seed: 77}
	l1Cfg := countsketch.Config{Tables: 5, Range: 128, Seed: 78}
	hp := core.Hyperparams{T0: T / 8, Theta: 0.05, Tau0: 1e-4, T: T}
	var (
		eng sketchapi.Engine
		err error
	)
	switch {
	case kind == "CS" && lambda == 0:
		eng, err = countsketch.NewMeanSketch(skCfg, T)
	case kind == "CS":
		eng, err = countsketch.NewMeanSketchDecayed(skCfg, T, lambda)
	case kind == "ASCS" && lambda == 0:
		eng, err = core.NewEngine(skCfg, hp, true)
	case kind == "ASCS":
		eng, err = core.NewEngineDecayed(skCfg, hp, true, lambda)
	case kind == "ASketch" && lambda == 0:
		eng, err = baselines.NewASketch(skCfg, T, 8)
	case kind == "ASketch":
		eng, err = baselines.NewASketchDecayed(skCfg, T, 8, lambda)
	case kind == "ColdFilter" && lambda == 0:
		eng, err = baselines.NewColdFilter(l1Cfg, skCfg, T, 0.002)
	case kind == "ColdFilter":
		eng, err = baselines.NewColdFilterDecayed(l1Cfg, skCfg, T, 0.002, lambda)
	default:
		t.Fatalf("unknown engine kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// observePerPair is the reference ingest: the estimator's step and
// tracker bookkeeping, with every pair of the sample offered to the
// bare engine one OfferEstimate call at a time, in row-major order.
func observePerPair(e *Estimator, s stream.Sample) {
	e.t++
	e.cfg.Engine.BeginStep(e.t)
	if e.cfg.Decay != 0 && e.track != nil {
		e.track.Decay(e.cfg.Decay)
	}
	for i := 0; i+1 < len(s.Idx); i++ {
		for j := i + 1; j < len(s.Idx); j++ {
			key := pairs.Key(s.Idx[i], s.Idx[j], e.cfg.Dim)
			est, _ := e.cfg.Engine.OfferEstimate(key, s.Val[i]*s.Val[j])
			if e.track != nil {
				e.track.Offer(key, math.Abs(est))
			}
		}
	}
}

// TestFusedPathMatchesPerCall streams identical seeded samples through
// an estimator (row-aligned OfferPairs flushes) and through a reference
// that offers every pair of the same kind of bare engine with
// OfferEstimate, for every engine kind, fixed-horizon and decayed
// (λ = 1 and λ < 1), tracked and exhaustive retrieval, and the default
// and scalar wave groups. One sample is dense enough that the estimator
// flushes in the middle of it. Serialized engines, tracked candidates,
// Top and TopMagnitude must be bit-identical.
func TestFusedPathMatchesPerCall(t *testing.T) {
	const dim, T = 80, 160
	rng := rand.New(rand.NewSource(123))
	samples := make([]stream.Sample, T)
	for i := range samples {
		density := 0.3
		if i == T/2 {
			density = 1
		}
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < density {
				row[j] = rng.NormFloat64()
			}
		}
		// A correlated pair so retrieval has real signal.
		row[3] = row[5]*0.9 + 0.1*rng.NormFloat64()
		samples[i] = stream.FromDense(row)
	}
	if m := len(samples[T/2].Idx); m*(m-1)/2 <= pairBatch {
		t.Fatalf("dense sample has only %d pairs; no flush lands mid-sample", m*(m-1)/2)
	}
	for _, kind := range engineKinds {
		for _, lambda := range []float64{0, 1, 0.999} {
			for _, track := range []int{0, 64} {
				for _, g := range []int{0, 1} {
					eng, ref := buildKind(t, kind, T, lambda), buildKind(t, kind, T, lambda)
					if g == 1 {
						eng.SetWaveGroup(1)
					}
					cfg := Config{Dim: dim, T: T, TrackCandidates: track, Decay: lambda}
					cfg.Engine = eng
					est, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Engine = ref
					refEst, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range samples {
						if err := est.Observe(s); err != nil {
							t.Fatal(err)
						}
						observePerPair(refEst, s)
					}
					requireMatchesPerPair(t, fmt.Sprintf("%s λ=%v track=%d g=%d", kind, lambda, track, g), est, refEst)
				}
			}
		}
	}
}

// requireMatchesPerPair fails t unless est and its per-pair reference
// refEst agree bit for bit: Top and TopMagnitude, the tracker's entries
// when tracking, and the serialized engines.
func requireMatchesPerPair(t *testing.T, label string, est, refEst *Estimator) {
	t.Helper()
	for _, magnitude := range []bool{false, true} {
		top, rtop := est.Top, refEst.Top
		if magnitude {
			top, rtop = est.TopMagnitude, refEst.TopMagnitude
		}
		got, err := top(10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rtop(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s magnitude=%v: top lengths %d vs %d", label, magnitude, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s magnitude=%v rank %d: estimator %+v, per-pair %+v",
					label, magnitude, i, got[i], want[i])
			}
		}
	}
	if est.track != nil {
		type entry struct {
			key   uint64
			score float64
		}
		var got, want []entry
		est.track.Each(func(k uint64, v float64) { got = append(got, entry{k, v}) })
		refEst.track.Each(func(k uint64, v float64) { want = append(want, entry{k, v}) })
		if len(got) != len(want) {
			t.Fatalf("%s: tracker holds %d candidates, reference %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: tracker entry %d is %+v, reference %+v", label, i, got[i], want[i])
			}
		}
	}
	var eb, rb bytes.Buffer
	if _, err := est.cfg.Engine.WriteTo(&eb); err != nil {
		t.Fatal(err)
	}
	if _, err := refEst.cfg.Engine.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eb.Bytes(), rb.Bytes()) {
		t.Fatalf("%s: serialized engines diverged", label)
	}
}
