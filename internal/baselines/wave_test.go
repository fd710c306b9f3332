package baselines

import (
	"bytes"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/hashing"
	"repro/internal/sketchapi"
)

// waveBaselineStream mixes hot keys (which exercise the ASketch filter
// swaps and Cold Filter saturation) with a noise tail, repeating keys
// inside wave groups.
func waveBaselineStream(n int, seed uint64) (keys []uint64, xs []float64) {
	sm := hashing.NewSplitMix64(seed)
	keys = make([]uint64, n)
	xs = make([]float64, n)
	for i := range keys {
		r := sm.Next()
		if r%3 == 0 {
			keys[i] = r % 17
			xs[i] = 500 + float64(r%50)
		} else {
			keys[i] = 100 + r%900
			xs[i] = float64(int64(r%201)-100) / 7.0
		}
	}
	return keys, xs
}

// TestBaselineWaveMatchesScalar drives identical streams through wave
// and scalar OfferPairs for ASketch and ColdFilter — fixed-horizon and
// decayed — and requires bit-identical serialized state and per-offer
// estimates at several group sizes.
func TestBaselineWaveMatchesScalar(t *testing.T) {
	const T = 1 << 12
	l1 := countsketch.Config{Tables: 3, Range: 128, Seed: 4}
	l2 := countsketch.Config{Tables: 5, Range: 512, Seed: 5}
	builders := map[string]func(lambda float64) sketchapi.Engine{
		"ASketch": func(lambda float64) sketchapi.Engine {
			if lambda == 0 {
				a, err := NewASketch(l2, T, 6)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			a, err := NewASketchDecayed(l2, T, 6, lambda)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"ColdFilter": func(lambda float64) sketchapi.Engine {
			if lambda == 0 {
				c, err := NewColdFilter(l1, l2, T, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			c, err := NewColdFilterDecayed(l1, l2, T, 0.05, lambda)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, build := range builders {
		for _, lambda := range []float64{0, 1, 0.998} {
			for _, g := range []int{2, 32} {
				scalar, wave := build(lambda), build(lambda)
				scalar.SetWaveGroup(1)
				wave.SetWaveGroup(g)
				so, wo := scalar, wave
				keys, xs := waveBaselineStream(3000, 31)
				se := make([]float64, 100)
				we := make([]float64, 100)
				for step, lo := 1, 0; lo < len(keys); step, lo = step+1, lo+100 {
					so.BeginStep(step)
					wo.BeginStep(step)
					var sd, wd []float64
					if step%2 == 1 {
						sd, wd = se, we
					}
					so.OfferPairs(keys[lo:lo+100], xs[lo:lo+100], sd)
					wo.OfferPairs(keys[lo:lo+100], xs[lo:lo+100], wd)
					if sd != nil {
						for i := range sd {
							if sd[i] != wd[i] {
								t.Fatalf("%s λ=%v g=%d step %d: est[%d] scalar %v != wave %v",
									name, lambda, g, step, i, sd[i], wd[i])
							}
						}
					}
				}
				var bs, bw bytes.Buffer
				if _, err := scalar.WriteTo(&bs); err != nil {
					t.Fatal(err)
				}
				if _, err := wave.WriteTo(&bw); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bs.Bytes(), bw.Bytes()) {
					t.Fatalf("%s λ=%v g=%d: serialized state diverges", name, lambda, g)
				}
			}
		}
	}
}
