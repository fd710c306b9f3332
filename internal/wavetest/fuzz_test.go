// Package wavetest holds the cross-engine differential fuzz harness of
// the wave-pipelined batch ingest path: random key/value streams are
// driven through wave-grouped and scalar OfferPairs on all four engines
// (CS, ASCS, ASketch, Cold Filter), fixed-horizon and decayed, and the
// serialized engine states must be bit-identical. It lives outside the
// engine packages because it imports all of them.
package wavetest

import (
	"bytes"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/hashing"
	"repro/internal/sketchapi"
)

// engine bundles a Snapshotter with the fast-path interfaces the
// harness needs (RowOfferer doubles as the compile-time pin that every
// engine — including every restored engine — carries the row path).
type engine interface {
	sketchapi.Snapshotter
	sketchapi.OfferEstimator
	sketchapi.RowOfferer
	sketchapi.WaveTuner
}

const fuzzT = 1 << 12

// Engine families of the harness kinds.
const (
	familyCS = iota
	familyASCS
	familyASketch
	familyColdFilter
)

// kinds maps a harness engine kind to its family and K. Kinds 0–3 are
// CS, ASCS, ASketch and Cold Filter at the paper's K = 5; kinds 4–9
// rerun CS and ASCS at K ∈ {3, 4, 7}, so the fused K = 5 estimate
// kernel and the generic path both sit under every differential that
// ranges over numKinds.
var kinds = [...]struct{ family, tables int }{
	{familyCS, 5}, {familyASCS, 5}, {familyASketch, 5}, {familyColdFilter, 5},
	{familyCS, 3}, {familyCS, 4}, {familyCS, 7},
	{familyASCS, 3}, {familyASCS, 4}, {familyASCS, 7},
}

const numKinds = len(kinds)

// buildEngine constructs engine kind ∈ [0,numKinds) with decay mode
// lambda (0 = fixed horizon). Shapes are small so fuzzing covers many
// streams and collisions are frequent (exercising the conflict screen).
func buildEngine(t testing.TB, kind int, lambda float64) engine {
	t.Helper()
	spec := kinds[kind]
	cfg := countsketch.Config{Tables: spec.tables, Range: 256, Seed: 17}
	var (
		e   engine
		err error
	)
	switch spec.family {
	case familyCS:
		if lambda == 0 {
			e, err = countsketch.NewMeanSketch(cfg, fuzzT)
		} else {
			e, err = countsketch.NewMeanSketchDecayed(cfg, fuzzT, lambda)
		}
	case familyASCS:
		hp := core.Hyperparams{T0: 3, Theta: 0.05, Tau0: 1e-6, T: fuzzT}
		if lambda == 0 {
			e, err = core.NewEngine(cfg, hp, true)
		} else {
			e, err = core.NewEngineDecayed(cfg, hp, true, lambda)
		}
	case familyASketch:
		if lambda == 0 {
			e, err = baselines.NewASketch(cfg, fuzzT, 5)
		} else {
			e, err = baselines.NewASketchDecayed(cfg, fuzzT, 5, lambda)
		}
	default:
		l1 := countsketch.Config{Tables: 3, Range: 64, Seed: 18}
		if lambda == 0 {
			e, err = baselines.NewColdFilter(l1, cfg, fuzzT, 0.05)
		} else {
			e, err = baselines.NewColdFilterDecayed(l1, cfg, fuzzT, 0.05, lambda)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runDifferential drives one fuzz case: the same derived stream through
// a wave-grouped engine and its scalar twin, comparing per-offer
// estimates and final serialized state bit for bit.
func runDifferential(t *testing.T, seed uint64, kind, group int, lambda float64, n int) {
	kind = fuzzKind(kind)
	if group < 2 {
		group = 2
	}
	if group > 128 {
		group = 128
	}
	if n < 1 {
		n = 1
	}
	if n > 4096 {
		n = 4096
	}
	scalar := buildEngine(t, kind, lambda)
	wave := buildEngine(t, kind, lambda)
	scalar.SetWaveGroup(1)
	wave.SetWaveGroup(group)

	sm := hashing.NewSplitMix64(seed)
	keys := make([]uint64, n)
	xs := make([]float64, n)
	for i := range keys {
		r := sm.Next()
		// Key universe small enough that intra-group repeats and bucket
		// collisions are routine.
		keys[i] = r % 600
		xs[i] = float64(int64(r%20001)-10000) / 13.0
	}
	se := make([]float64, n)
	we := make([]float64, n)
	step := 1
	for lo := 0; lo < n; {
		// Variable batch sizes (1..97) so group boundaries land
		// everywhere relative to batch boundaries.
		bs := 1 + int(sm.Next()%97)
		hi := lo + bs
		if hi > n {
			hi = n
		}
		scalar.BeginStep(step)
		wave.BeginStep(step)
		var sd, wd []float64
		if sm.Next()%2 == 0 {
			sd, wd = se[lo:hi], we[lo:hi]
		}
		scalar.OfferPairs(keys[lo:hi], xs[lo:hi], sd)
		wave.OfferPairs(keys[lo:hi], xs[lo:hi], wd)
		if sd != nil {
			for i := range sd {
				if sd[i] != wd[i] {
					t.Fatalf("kind=%d λ=%v g=%d: est[%d] scalar %v != wave %v",
						kind, lambda, group, lo+i, sd[i], wd[i])
				}
			}
		}
		lo = hi
		// Occasionally skip steps so decay ticks cover gaps.
		step += 1 + int(sm.Next()%3)
	}
	var sb, wb bytes.Buffer
	if _, err := scalar.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := wave.WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), wb.Bytes()) {
		t.Fatalf("kind=%d λ=%v g=%d seed=%d: serialized state diverges", kind, lambda, group, seed)
	}
}

// FuzzWaveVsScalar is the fuzz entry point: engine kind, wave group,
// decay selector and stream seed all come from the fuzzer. decaySel
// maps onto {fixed, λ=1, λ=0.999, λ=0.95}.
func FuzzWaveVsScalar(f *testing.F) {
	f.Add(uint64(1), 0, 32, uint8(0), 500)
	f.Add(uint64(2), 1, 32, uint8(1), 500)
	f.Add(uint64(3), 2, 8, uint8(2), 300)
	f.Add(uint64(4), 3, 5, uint8(3), 300)
	f.Add(uint64(5), 1, 64, uint8(2), 1000)
	f.Fuzz(func(t *testing.T, seed uint64, kind, group int, decaySel uint8, n int) {
		lambdas := []float64{0, 1, 0.999, 0.95}
		runDifferential(t, seed, kind, group, lambdas[decaySel%4], n)
	})
}

// fuzzKind folds a fuzzed engine kind (any int, negatives included)
// into [0, numKinds).
func fuzzKind(kind int) int {
	kind %= numKinds
	if kind < 0 {
		kind += numKinds
	}
	return kind
}

// TestWaveVsScalarSeeded replays a seeded grid of the fuzz cases in
// every ordinary `go test` run (and under -race in CI), so the
// differential coverage does not depend on anyone running the fuzzer.
func TestWaveVsScalarSeeded(t *testing.T) {
	for kind := 0; kind < numKinds; kind++ {
		for _, lambda := range []float64{0, 1, 0.999} {
			for _, g := range []int{2, 32} {
				runDifferential(t, uint64(1000+kind), kind, g, lambda, 1500)
			}
		}
	}
}
