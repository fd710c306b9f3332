package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/stream"
)

// TestLocalTopBatchMatchesScalar pins the served top-k read on live
// workers: localTop (the tracker's chunked TopBatch over the engine's
// EstimateKeys, then one batch read of the winners) must return, for
// every engine kind and decay mode, at full and folded resolution, the
// items of a scalar reference built from Tracker.Top plus one
// eng.Estimate per key — same keys, same order, bit-equal estimates.
func TestLocalTopBatchMatchesScalar(t *testing.T) {
	const dim, T = 40, 400
	rng := rand.New(rand.NewSource(41))
	samples := make([]stream.Sample, T)
	for i := range samples {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.5 {
				row[j] = rng.NormFloat64()
			}
		}
		row[4] = row[11]*0.9 + 0.1*rng.NormFloat64()
		samples[i] = stream.FromDense(row)
	}
	ranks := []struct {
		name string
		f    func(float64) float64
	}{{"signed", func(v float64) float64 { return v }}, {"magnitude", math.Abs}}
	for _, kind := range []Kind{KindCS, KindASCS, KindASketch, KindColdFilter} {
		for _, lambda := range []float64{0, 1, 0.99} {
			spec := EngineSpec{
				Kind:   kind,
				Sketch: countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 5},
				T:      T,
				Lambda: lambda,
			}
			if kind == KindASCS {
				spec.Schedule = core.Hyperparams{T0: 40, Theta: 0.05, Tau0: 1e-5, T: T}
			}
			m, err := New(Config{Dim: dim, Shards: 2, Engine: spec, TrackCandidates: 64})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Ingest(samples); err != nil {
				t.Fatal(err)
			}
			err = m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
				for _, level := range []int{0, 1} {
					if level > 0 {
						if err := w.eng.Fold(level); err != nil {
							t.Error(err)
							return
						}
					}
					for _, r := range ranks {
						for _, k := range []int{1, 12, 500} {
							label := fmt.Sprintf("%s λ=%v shard %d level %d %s k=%d", kind, lambda, w.id, level, r.name, k)
							want := w.track.Top(k, func(key uint64) float64 { return r.f(w.eng.Estimate(key)) })
							got := w.localTop(k, r.f)
							if len(got) != len(want) {
								t.Errorf("%s: %d items, reference %d", label, len(got), len(want))
								continue
							}
							for i, it := range want {
								est := w.eng.Estimate(it.Key)
								if got[i].key != it.Key || math.Float64bits(got[i].est) != math.Float64bits(est) {
									t.Errorf("%s: item %d = {%d %v}, reference {%d %v}", label, i, got[i].key, got[i].est, it.Key, est)
									break
								}
							}
						}
					}
				}
				w.eng.Unfold()
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Close()
		}
	}
}
