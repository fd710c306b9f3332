package core

import (
	"bytes"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/hashing"
)

// waveStream builds a stream whose keys repeat heavily (so ASCS admits
// real signal and groups regularly contain the same key twice, forcing
// the conflict-screen fallback) and whose values are signed and varied.
func waveStream(n int, seed uint64) (keys []uint64, xs []float64) {
	sm := hashing.NewSplitMix64(seed)
	keys = make([]uint64, n)
	xs = make([]float64, n)
	for i := range keys {
		r := sm.Next()
		if r%4 == 0 {
			keys[i] = r % 23 // hot signal keys, frequent intra-group repeats
			xs[i] = 1e5 + float64(r%100)
		} else {
			keys[i] = 1000 + r%4000 // noise tail
			xs[i] = float64(int64(r%2001)-1000) / 3.0
		}
		if r%7 == 0 {
			xs[i] = -xs[i]
		}
	}
	return keys, xs
}

func newWaveEngine(t *testing.T, lambda float64, group int) *Engine {
	t.Helper()
	cfg := countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 5}
	hp := Hyperparams{T0: 4, Theta: 0.05, Tau0: 1e-6, T: 1 << 16}
	var (
		e   *Engine
		err error
	)
	if lambda == 0 {
		e, err = NewEngine(cfg, hp, true)
	} else {
		e, err = NewEngineDecayed(cfg, hp, true, lambda)
	}
	if err != nil {
		t.Fatal(err)
	}
	e.SetWaveGroup(group)
	return e
}

// TestOfferPairsWaveMatchesScalar is the engine-level differential pin
// of the wave pipeline: identical streams through wave OfferPairs
// (several group sizes) and the scalar fused loop must produce
// bit-identical serialized state (tables, schedule position, counters —
// hence the same τ ramp) and bit-identical per-offer estimates, across
// fixed-horizon and decay modes (λ = 1 and λ < 1) and across both the
// estimating and pure-ingest call shapes. The stream crosses T0 inside
// a batch and repeats keys within groups, so the exploration path, the
// gather/scatter path, and the conflict-screen fallback all execute.
func TestOfferPairsWaveMatchesScalar(t *testing.T) {
	for _, lambda := range []float64{0, 1, 0.9995} {
		for _, g := range []int{2, 5, 32, 64} {
			scalar := newWaveEngine(t, lambda, 1)
			wave := newWaveEngine(t, lambda, g)
			keys, xs := waveStream(6000, 77)
			se := make([]float64, 150)
			we := make([]float64, 150)
			for step, lo := 1, 0; lo < len(keys); step, lo = step+1, lo+150 {
				scalar.BeginStep(step)
				wave.BeginStep(step)
				var sd, wd []float64
				if step%3 != 0 {
					sd, wd = se, we
				}
				scalar.OfferPairs(keys[lo:lo+150], xs[lo:lo+150], sd)
				wave.OfferPairs(keys[lo:lo+150], xs[lo:lo+150], wd)
				if sd != nil {
					for i := range sd {
						if sd[i] != wd[i] {
							t.Fatalf("λ=%v g=%d step %d offer %d: scalar est %v != wave %v",
								lambda, g, step, i, sd[i], wd[i])
						}
					}
				}
			}
			sf, si, so := scalar.SampledFraction()
			wf, wi, wo := wave.SampledFraction()
			if si != wi || so != wo || sf != wf {
				t.Fatalf("λ=%v g=%d: counters diverge: scalar %v/%d/%d wave %v/%d/%d",
					lambda, g, sf, si, so, wf, wi, wo)
			}
			var bs, bw bytes.Buffer
			if _, err := scalar.WriteTo(&bs); err != nil {
				t.Fatal(err)
			}
			if _, err := wave.WriteTo(&bw); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bs.Bytes(), bw.Bytes()) {
				t.Fatalf("λ=%v g=%d: serialized engine state diverges", lambda, g)
			}
		}
	}
}

// TestWaveGroupTuning pins the wave-tuning surface: default group,
// clamping, and the scalar setting.
func TestWaveGroupTuning(t *testing.T) {
	e := newWaveEngine(t, 0, 0)
	e.SetWaveGroup(0)
	if got := e.WaveGroup(); got != 1 {
		t.Fatalf("SetWaveGroup(0) → %d, want 1 (scalar)", got)
	}
	e.SetWaveGroup(1 << 30)
	if got := e.WaveGroup(); got != countsketch.MaxWaveGroup {
		t.Fatalf("oversize group not clamped: %d", got)
	}
	f, err := NewEngine(countsketch.Config{Tables: 5, Range: 64, Seed: 1},
		Hyperparams{T0: 1, Theta: 0, Tau0: 1e-9, T: 100}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.WaveGroup(); got != countsketch.WaveGroup {
		t.Fatalf("default group %d, want %d", got, countsketch.WaveGroup)
	}
}

// TestWaveSurvivesRestore pins that a deserialized engine (whose wave
// scratch is rebuilt lazily on first OfferPairs) continues
// bit-identically to the original on the wave path.
func TestWaveSurvivesRestore(t *testing.T) {
	orig := newWaveEngine(t, 1, 32)
	keys, xs := waveStream(4000, 13)
	half := len(keys) / 2
	step := 1
	for lo := 0; lo < half; step, lo = step+1, lo+100 {
		orig.BeginStep(step)
		orig.OfferPairs(keys[lo:lo+100], xs[lo:lo+100], nil)
	}
	var snap bytes.Buffer
	if _, err := orig.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadEngineFrom(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for lo := half; lo < len(keys); step, lo = step+1, lo+100 {
		orig.BeginStep(step)
		restored.BeginStep(step)
		orig.OfferPairs(keys[lo:lo+100], xs[lo:lo+100], nil)
		restored.OfferPairs(keys[lo:lo+100], xs[lo:lo+100], nil)
	}
	var bo, br bytes.Buffer
	if _, err := orig.WriteTo(&bo); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.WriteTo(&br); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bo.Bytes(), br.Bytes()) {
		t.Fatal("restored engine diverges from original on the wave path")
	}
}
