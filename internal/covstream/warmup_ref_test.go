package covstream_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/dataset"
	"repro/internal/pairs"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/topk"
)

// perPairWarmup is the warm-up reference: a fresh MeanSketch offered
// one pair at a time through Offer, with Σx² and the bottom-k census
// accumulated per offered pair, in row-major order.
func perPairWarmup(t *testing.T, samples []stream.Sample, dim int, cfg countsketch.Config, maxSeen int, seed int64) covstream.WarmupResult {
	t.Helper()
	if maxSeen < 1 {
		maxSeen = 5_000_000
	}
	ms, err := countsketch.NewMeanSketch(cfg, len(samples))
	if err != nil {
		t.Fatal(err)
	}
	sampler := topk.NewBottomK(maxSeen, uint64(seed)^0xB077)
	var sumX2 float64
	for step, s := range samples {
		ms.BeginStep(step + 1)
		for i := 0; i+1 < len(s.Idx); i++ {
			for j := i + 1; j < len(s.Idx); j++ {
				key := pairs.Key(s.Idx[i], s.Idx[j], dim)
				x := s.Val[i] * s.Val[j]
				sumX2 += x * x
				sampler.Offer(key)
				ms.Offer(key, x)
			}
		}
	}
	var seen []float64
	for _, key := range sampler.Keys() {
		seen = append(seen, ms.Estimate(key))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(seen)))
	p := pairs.Count(dim)
	distinct := math.Min(sampler.DistinctEstimate(), float64(p))
	sigma := math.Sqrt(sumX2 / (float64(p) * float64(len(samples))))
	if sigma == 0 {
		sigma = 1e-12
	}
	return covstream.WarmupResult{Seen: seen, P: p, DistinctSeen: distinct, Sigma: sigma, SamplesUsed: len(samples)}
}

// TestWarmupMatchesPerPairReference pins the warm-up's batched feed: on
// a standardized URL-like prefix, Warmup (pairs materialized per sample
// and handed to OfferPairs, with σ and the census taken over the same
// pairs) returns, bit for bit, the Seen census, P, DistinctSeen, Sigma
// and SamplesUsed of the per-pair reference, with the census uncapped
// and capped below the distinct count; and shard.AutoSpec solves the
// schedule the reference's census gives.
func TestWarmupMatchesPerPairReference(t *testing.T) {
	const (
		dim   = 6000
		n     = 300
		seed  = 7
		alpha = 0.002
	)
	src, err := dataset.DefaultURLConfig(dim, 17).NewSource(n)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stream.NewStandardizer(src, n, false)
	if err != nil {
		t.Fatal(err)
	}
	samples := stream.Drain(st)
	if len(samples) != n {
		t.Fatalf("prefix has %d samples, want %d", len(samples), n)
	}
	cfg := countsketch.Config{Tables: 5, Range: 1 << 16, Seed: seed}
	for _, maxSeen := range []int{0, 4096} {
		got, err := covstream.Warmup(stream.NewSliceSource(samples, dim), n, cfg, maxSeen, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := perPairWarmup(t, samples, dim, cfg, maxSeen, seed)
		if maxSeen > 0 && want.DistinctSeen <= float64(maxSeen) {
			t.Fatalf("census cap %d never saturates (%v distinct pairs)", maxSeen, want.DistinctSeen)
		}
		if got.P != want.P || got.SamplesUsed != want.SamplesUsed ||
			math.Float64bits(got.DistinctSeen) != math.Float64bits(want.DistinctSeen) ||
			math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) {
			t.Fatalf("maxSeen=%d: P %d/%d, SamplesUsed %d/%d, DistinctSeen %v/%v, Sigma %v/%v (warm-up/reference)",
				maxSeen, got.P, want.P, got.SamplesUsed, want.SamplesUsed,
				got.DistinctSeen, want.DistinctSeen, got.Sigma, want.Sigma)
		}
		if len(got.Seen) != len(want.Seen) {
			t.Fatalf("maxSeen=%d: census holds %d keys, reference %d", maxSeen, len(got.Seen), len(want.Seen))
		}
		for i := range got.Seen {
			if math.Float64bits(got.Seen[i]) != math.Float64bits(want.Seen[i]) {
				t.Fatalf("maxSeen=%d: Seen[%d] = %v, reference %v", maxSeen, i, got.Seen[i], want.Seen[i])
			}
		}
	}

	// AutoSpec's warm-up sketch: the serving config with its seed
	// scrambled (the range already meets its 2^16 floor).
	const shards, horizon = 2, 20 * n
	spec, err := shard.AutoSpec(samples, dim, shards, horizon, cfg, alpha)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Seed ^= 0x9c3
	params := perPairWarmup(t, samples, dim, warmCfg, 0, seed).ASCSParams(alpha, horizon, cfg.Tables, cfg.Range)
	params.P = (pairs.Count(dim) + shards - 1) / shards
	hp, err := params.WithSuggestedDeltas().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Schedule != hp {
		t.Fatalf("AutoSpec schedule %+v, reference %+v", spec.Schedule, hp)
	}
}
