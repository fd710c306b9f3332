package shard

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/pairs"
	"repro/internal/stream"
)

// TestServedTopKMatchesExhaustive guards served retrieval against the
// candidate tracker: on a scaled-down sparse-ascs stream (the URL-like
// generator with the benchmark's group shape and background rate)
// through a 2-shard ASCS manager whose trackers hold far fewer keys
// than the stream offers, so they prune (and floor) many times, the
// served TopKMagnitude(k) for k well below the capacity must equal the
// exact top k over every pair key the stream offered, each rescored
// through the shards' EstimateKeys. It needs no tuning knob: the
// tracker either kept the heavy keys or it did not.
func TestServedTopKMatchesExhaustive(t *testing.T) {
	const (
		d     = 6000
		n     = 4000
		track = 64
		k     = 16
	)
	cfg := dataset.URLConfig{
		Dim: d, GroupSize: 3, Groups: d / 3, ActiveGroups: 3,
		FireProb: 0.95, BackgroundNZ: 6, Seed: 3,
	}
	src, err := cfg.NewSource(n)
	if err != nil {
		t.Fatal(err)
	}
	samples := stream.Drain(src)
	m, err := New(Config{
		Dim: d, Shards: 2, Warmup: 400, Standardize: true, Alpha: 0.005,
		TrackCandidates: track,
		Engine: EngineSpec{Kind: KindASCS,
			Sketch: countsketch.Config{Tables: 5, Range: 40_000, Seed: 1}, T: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for lo := 0; lo < n; lo += 256 {
		if _, _, err := m.Ingest(samples[lo:min(lo+256, n)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every offered pair key, split by owning shard.
	offered := make(map[uint64]bool)
	for _, s := range samples {
		for i, a := range s.Idx {
			for _, b := range s.Idx[i+1:] {
				offered[pairs.Key(a, b, d)] = true
			}
		}
	}
	byShard := make([][]uint64, m.NumShards())
	for key := range offered {
		sh := m.shardOf(key)
		byShard[sh] = append(byShard[sh], key)
	}
	type scored struct {
		key uint64
		est float64
	}
	var all []scored
	var mu sync.Mutex
	err = m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
		keys := byShard[w.id]
		ests := make([]float64, len(keys))
		w.row.EstimateKeys(keys, ests)
		mu.Lock()
		defer mu.Unlock()
		for i, key := range keys {
			all = append(all, scored{key, ests[i]})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(all, func(a, b scored) int {
		return cmp.Compare(math.Abs(b.est), math.Abs(a.est))
	})
	exact := make(map[uint64]float64, len(all))
	for _, s := range all {
		exact[s.key] = s.est
	}

	st, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st.PerShard {
		if s.Health.TrackerPruned < 20*track {
			t.Fatalf("shard %d: tracker pruned %d offers; the stream must overflow %d candidates many times",
				s.Shard, s.Health.TrackerPruned, track)
		}
	}

	// Binary features standardize to tied magnitudes, so the exact top k
	// is unique only up to the order of keys tied at the cut: the served
	// magnitudes must be the exhaustive ones rank for rank, and each
	// served estimate must be its key's exhaustive estimate.
	got, err := m.TopKMagnitude(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("served %d pairs, want %d", len(got), k)
	}
	for i, p := range got {
		est, ok := exact[p.Key]
		if !ok || math.Float64bits(p.Estimate) != math.Float64bits(est) {
			t.Fatalf("rank %d: served key %d with %v, exhaustive estimate %v (offered %v)", i, p.Key, p.Estimate, est, ok)
		}
		if w := math.Abs(all[i].est); math.Abs(p.Estimate) != w {
			t.Fatalf("rank %d: served |estimate| %v, exhaustive %v\nserved %v", i, math.Abs(p.Estimate), w, got)
		}
	}
}
