package shard

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// setWaveGroup flips every worker engine's wave group on its own
// goroutine (exec), so the change is ordered with ingest like any other
// fresh-lane closure.
func setWaveGroup(t *testing.T, m *Manager, g int) {
	t.Helper()
	err := m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
		w.row.(sketchapi.WaveTuner).SetWaveGroup(g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardWaveMatchesScalar pins the wave pipeline at the serving
// layer: a manager whose shard engines run wave-grouped OfferPairs
// (the default apply path) must produce bit-identical merged sketches,
// top-k, and op counts to one forced onto the scalar batch loop —
// fixed-horizon and unbounded (λ = 1 and λ < 1).
func TestShardWaveMatchesScalar(t *testing.T) {
	const dim, T = 40, 400
	rng := rand.New(rand.NewSource(99))
	samples := make([]stream.Sample, 160)
	for i := range samples {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.6 {
				row[j] = rng.NormFloat64()
			}
		}
		row[2] = row[9]*0.9 + 0.1*rng.NormFloat64()
		samples[i] = stream.FromDense(row)
	}
	for _, lambda := range []float64{0, 1, 0.999} {
		build := func() *Manager {
			spec := EngineSpec{
				Kind:     KindASCS,
				Sketch:   countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 3},
				T:        T,
				Schedule: core.Hyperparams{T0: 20, Theta: 0.05, Tau0: 1e-5, T: T},
				Lambda:   lambda,
			}
			m, err := New(Config{Dim: dim, Shards: 3, Engine: spec})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		scalar, wave := build(), build()
		defer scalar.Close()
		defer wave.Close()
		setWaveGroup(t, scalar, 1)
		for lo := 0; lo < len(samples); lo += 32 {
			hi := lo + 32
			if hi > len(samples) {
				hi = len(samples)
			}
			if _, _, err := scalar.Ingest(samples[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := wave.Ingest(samples[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := scalar.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := wave.Flush(); err != nil {
			t.Fatal(err)
		}
		st, err := scalar.TopKMagnitude(12)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := wave.TopKMagnitude(12)
		if err != nil {
			t.Fatal(err)
		}
		if len(st) != len(wt) {
			t.Fatalf("λ=%v: top-k lengths %d vs %d", lambda, len(st), len(wt))
		}
		for i := range st {
			if st[i] != wt[i] {
				t.Fatalf("λ=%v rank %d: scalar %+v != wave %+v", lambda, i, st[i], wt[i])
			}
		}
		ss, err := scalar.MergedSketch()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := wave.MergedSketch()
		if err != nil {
			t.Fatal(err)
		}
		var bs, bw bytes.Buffer
		if _, err := ss.WriteTo(&bs); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.WriteTo(&bw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs.Bytes(), bw.Bytes()) {
			t.Fatalf("λ=%v: merged shard sketches diverge", lambda)
		}
		sst, err := scalar.Stats()
		if err != nil {
			t.Fatal(err)
		}
		wst, err := wave.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if sst.Ops != wst.Ops {
			t.Fatalf("λ=%v: op counts diverge: %d vs %d", lambda, sst.Ops, wst.Ops)
		}
	}
}

// TestRouteStagingReuse pins the Ingest staging-buffer bugfix: after a
// warm-up round has populated the freelists, further Ingest calls must
// recycle their op buffers instead of growing fresh ones per call.
func TestRouteStagingReuse(t *testing.T) {
	const dim = 32
	m, err := New(Config{Dim: dim, Shards: 2, Engine: EngineSpec{
		Kind:   KindCS,
		Sketch: countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 1},
		T:      1 << 30,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(7))
	row := make([]float64, dim)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	batch := []stream.Sample{stream.FromDense(row)}
	// Warm the freelists and the worker scratch.
	for i := 0; i < 50; i++ {
		if _, _, err := m.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := m.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	})
	// The routing path itself must be allocation-free; the small
	// allowance absorbs worker-side noise (tracker map growth on first
	// sightings) that AllocsPerRun's global counters pick up.
	if avg > 3 {
		t.Fatalf("Ingest steady state allocates %.1f times per call; staging buffers are not being reused", avg)
	}
}
