package shard_test

import (
	"runtime"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/stream"
)

// The sparse-ascs warm-up shape: a 2 000-sample prefix of the URL-like
// d = 100 000 stream (~15 nonzeros per sample), standardized, solving a
// 2-shard ASCS schedule for K = 5 tables × 200 000 buckets.
const (
	warmDim     = 100_000
	warmSamples = 2_000
	warmShards  = 2
	warmHorizon = 600_000
	warmAlpha   = 0.005
)

var warmSketch = countsketch.Config{Tables: 5, Range: 200_000, Seed: 1}

// sparseWarmupPrefix returns the standardized sparse-ascs warm-up prefix.
func sparseWarmupPrefix(tb testing.TB) []stream.Sample {
	tb.Helper()
	cfg := dataset.URLConfig{
		Dim: warmDim, GroupSize: 3, Groups: warmDim / 3, ActiveGroups: 3,
		FireProb: 0.95, BackgroundNZ: 6, Seed: 1,
	}
	src, err := cfg.NewSource(warmSamples)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := stream.NewStandardizer(src, warmSamples, false)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]stream.Sample, 0, warmSamples)
	for s, ok := st.Next(); ok; s, ok = st.Next() {
		out = append(out, s)
	}
	return out
}

// TestAutoSpecWarmupAllocation bounds what the sparse-ascs schedule
// solve allocates: the census grows with the ~10⁵ distinct pairs the
// prefix offers, not with its 5M-key cap (~180 MB if presized).
func TestAutoSpecWarmupAllocation(t *testing.T) {
	prefix := sparseWarmupPrefix(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	spec, err := shard.AutoSpec(prefix, warmDim, warmShards, warmHorizon, warmSketch, warmAlpha)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != shard.KindASCS || spec.Schedule.T0 <= 0 {
		t.Fatalf("AutoSpec = %+v, want a solved ASCS schedule", spec)
	}
	const limit = 96 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("AutoSpec allocated %d MB, want ≤ %d MB", got>>20, limit>>20)
	}
}

// BenchmarkAutoSpec times the schedule solve at the sparse-ascs warm-up
// shape; B/op records the census and warm-up sketch allocation.
func BenchmarkAutoSpec(b *testing.B) {
	prefix := sparseWarmupPrefix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shard.AutoSpec(prefix, warmDim, warmShards, warmHorizon, warmSketch, warmAlpha); err != nil {
			b.Fatal(err)
		}
	}
}
