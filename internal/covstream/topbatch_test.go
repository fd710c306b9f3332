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
	"repro/internal/topk"
)

// scalarTop is Estimator.top as a key-by-key read: the tracked path
// through Tracker.Top with one Estimate per candidate, the exhaustive
// path a heap scan in key order.
func scalarTop(e *Estimator, k int, rank func(float64) float64) []PairEstimate {
	eng := e.cfg.Engine
	var items []topk.Item
	if e.track != nil {
		items = e.track.Top(k, func(key uint64) float64 { return rank(eng.Estimate(key)) })
	} else {
		h := topk.NewHeap(k)
		for key := uint64(0); key < uint64(pairs.Count(e.cfg.Dim)); key++ {
			h.Push(key, rank(eng.Estimate(key)))
		}
		items = h.SortedDesc()
	}
	out := make([]PairEstimate, len(items))
	for i, it := range items {
		a, b := pairs.Decode(int64(it.Key), e.cfg.Dim)
		out[i] = PairEstimate{A: a, B: b, Key: it.Key, Estimate: eng.Estimate(it.Key)}
	}
	return out
}

// TestTopBatchMatchesScalar pins the library's batched top-k read
// (EstimateKeys through the wave stages) to the key-by-key read, bit
// for bit, on every engine, with and without a candidate tracker small
// enough to prune: Top, TopMagnitude and RankedKeys.
func TestTopBatchMatchesScalar(t *testing.T) {
	const d, n = 30, 600
	rng := rand.New(rand.NewSource(17))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		z := rng.NormFloat64()
		for j := range rows[i] {
			if rng.Intn(3) == 0 {
				rows[i][j] = rng.NormFloat64()
			}
		}
		rows[i][3], rows[i][7], rows[i][11] = z, 0.8*z, -z
	}
	sk := countsketch.Config{Tables: 5, Range: 96, Seed: 9}
	engines := map[string]func() (sketchapi.Engine, error){
		"cs": func() (sketchapi.Engine, error) { return countsketch.NewMeanSketch(sk, n) },
		"ascs": func() (sketchapi.Engine, error) {
			return core.NewEngine(sk, core.Hyperparams{T0: 60, Theta: 1e-4, Tau0: 1e-3, T: n}, true)
		},
		"asketch": func() (sketchapi.Engine, error) { return baselines.NewASketch(sk, n, 16) },
		"coldfilter": func() (sketchapi.Engine, error) {
			return baselines.NewColdFilter(countsketch.Config{Tables: 3, Range: 64, Seed: 4}, sk, n, 0.01)
		},
	}
	for name, mk := range engines {
		for _, track := range []int{0, 40} {
			eng, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{Dim: d, T: n, Engine: eng, TrackCandidates: track})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(stream.NewMatrixSource(rows)); err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5, 40, 500} {
				for rname, rank := range map[string]func(float64) float64{"signed": func(v float64) float64 { return v }, "magnitude": math.Abs} {
					got, err := e.top(k, rank)
					if err != nil {
						t.Fatal(err)
					}
					want := scalarTop(e, k, rank)
					if len(got) != len(want) {
						t.Fatalf("%s track=%d k=%d %s: %d items, scalar %d", name, track, k, rname, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Key != w.Key || g.A != w.A || g.B != w.B || math.Float64bits(g.Estimate) != math.Float64bits(w.Estimate) {
							t.Fatalf("%s track=%d k=%d %s rank %d: batch %+v, scalar %+v", name, track, k, rname, i, g, w)
						}
					}
				}
			}
			ranked, err := e.RankedKeys()
			if err != nil {
				t.Fatal(err)
			}
			want := scalarTop(&Estimator{cfg: e.cfg}, int(pairs.Count(d)), func(v float64) float64 { return v })
			if len(ranked) != len(want) {
				t.Fatalf("%s track=%d: RankedKeys has %d keys, scalar %d", name, track, len(ranked), len(want))
			}
			for i, key := range ranked {
				if key != want[i].Key {
					t.Fatalf("%s track=%d: RankedKeys[%d] = %d, scalar %d", name, track, i, key, want[i].Key)
				}
			}
		}
	}
}
