package shard_test

import (
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/shard"
	"repro/internal/stream"
)

// TestPlantedPairRecall measures how much of a URL-like stream's
// planted signal the served path can estimate: a 2-shard ASCS manager
// with Standardize and an auto-solved schedule ingests the whole
// stream, and each planted (within-group) pair whose exact correlation
// over the stream is at least 0.5 counts as recalled when its served
// EstimateKey exceeds half that correlation.
//
// This pins a documented expected failure. The frozen warm-up
// standardizer (stream.Standardizer, fitted once over the warm-up
// prefix in deriveSpec) gives every feature that has zero variance in
// the prefix an invStd of 0, so on a sparse stream every feature the
// prefix did not see is scaled to zero for the rest of the stream and
// its pairs receive only zero increments: they read collision noise
// forever. Recall therefore stays below the share of groups that fired
// during the prefix (here 17% of the planted pairs have both features
// seen), and the scales fitted from a few prefix firings under-scale
// most of the rest. The test asserts the mechanism (no planted pair with an unseen
// feature is recalled) and today's recall; the change that fixes the
// standardizer must flip both pins to the recall it reaches.
func TestPlantedPairRecall(t *testing.T) {
	const (
		d      = 6000
		n      = 2000
		warmup = 100
	)
	cfg := dataset.URLConfig{
		Dim: d, GroupSize: 3, Groups: d / 3, ActiveGroups: 3,
		FireProb: 0.95, BackgroundNZ: 6, Seed: 21,
	}
	src, err := cfg.NewSource(n)
	if err != nil {
		t.Fatal(err)
	}
	samples := stream.Drain(src)
	corr, err := eval.ExactPairCorr(stream.NewSliceSource(samples, d), cfg.SignalPairs())
	if err != nil {
		t.Fatal(err)
	}
	var planted []dataset.PairRef
	for _, pr := range cfg.SignalPairs() {
		if corr[pr] >= 0.5 {
			planted = append(planted, pr)
		}
	}
	// A feature has zero variance in the prefix when it fires in none
	// (or all) of its samples; the standardizer zeroes exactly those.
	fires := make([]int, d)
	for _, s := range samples[:warmup] {
		for _, ix := range s.Idx {
			fires[ix]++
		}
	}
	unseen := func(f int) bool { return fires[f] == 0 || fires[f] == warmup }

	for _, tc := range []struct {
		lambda float64
		T      int
		// wantRecalled is today's count under the standardizer defect,
		// pinned to within a few pairs.
		wantRecalled int
	}{
		{lambda: 1, T: n, wantRecalled: 5},
		{lambda: 0.999, T: 1000, wantRecalled: 1},
	} {
		m, err := shard.New(shard.Config{
			Dim: d, Shards: 2, Warmup: warmup, Standardize: true,
			TrackCandidates: 1 << 12,
			Engine: shard.EngineSpec{Kind: shard.KindASCS,
				Sketch: countsketch.Config{Tables: 5, Range: 1 << 15, Seed: 3},
				T:      tc.T, Lambda: tc.lambda},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The warm-up completes on the call that fills it, and fits over
		// everything that call buffered: send the prefix alone.
		if _, _, err := m.Ingest(samples[:warmup]); err != nil {
			t.Fatal(err)
		}
		for lo := warmup; lo < n; lo += 64 {
			if _, _, err := m.Ingest(samples[lo:min(lo+64, n)]); err != nil {
				t.Fatal(err)
			}
		}
		recalled, lost := 0, 0
		for _, pr := range planted {
			est, err := m.EstimateKey(pr.Key(d))
			if err != nil {
				t.Fatal(err)
			}
			hit := est > 0.5*corr[pr]
			if hit {
				recalled++
			}
			if unseen(pr.A) || unseen(pr.B) {
				lost++
				if hit {
					t.Errorf("λ=%v: planted pair %v has a feature the warm-up did not see, yet reads %v", tc.lambda, pr, est)
				}
			}
		}
		m.Close()
		recall := float64(recalled) / float64(len(planted))
		t.Logf("λ=%v: %d planted pairs, recall %.4f (%d recalled); %d (%.4f) have a feature unseen in the %d-sample warm-up",
			tc.lambda, len(planted), recall, recalled, lost, float64(lost)/float64(len(planted)), warmup)
		if recalled < tc.wantRecalled-3 || recalled > tc.wantRecalled+3 {
			t.Errorf("λ=%v: %d planted pairs recalled (recall %.4f), pinned %d ± 3", tc.lambda, recalled, recall, tc.wantRecalled)
		}
	}
}
