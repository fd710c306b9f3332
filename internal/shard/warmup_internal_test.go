package shard

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// TestWarmupFitIgnoresRequestSplit pins that the warm-up fits over
// exactly Config.Warmup samples however the client batches them: a
// manager fed 64-sample requests (the second call completes the
// 100-sample warm-up and overshoots it by 28) must derive the same
// standardizer scales and ASCS schedule, bit for bit, as one fed the
// prefix in a single 100-sample call, and after the same stream both
// must serve the same estimates and top-k.
func TestWarmupFitIgnoresRequestSplit(t *testing.T) {
	const (
		d      = 6000
		n      = 640
		warmup = 100
	)
	cfg := dataset.URLConfig{
		Dim: d, GroupSize: 3, Groups: d / 3, ActiveGroups: 3,
		FireProb: 0.95, BackgroundNZ: 6, Seed: 5,
	}
	src, err := cfg.NewSource(n)
	if err != nil {
		t.Fatal(err)
	}
	samples := stream.Drain(src)
	newManager := func() *Manager {
		m, err := New(Config{
			Dim: d, Shards: 2, Warmup: warmup, Standardize: true,
			TrackCandidates: 1 << 10,
			Engine: EngineSpec{Kind: KindASCS,
				Sketch: countsketch.Config{Tables: 5, Range: 1 << 13, Seed: 3},
				T:      n},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ingest := func(m *Manager, cuts []int) {
		for i := 1; i < len(cuts); i++ {
			if _, _, err := m.Ingest(samples[cuts[i-1]:cuts[i]]); err != nil {
				t.Fatal(err)
			}
		}
	}
	split, whole := newManager(), newManager()
	defer split.Close()
	defer whole.Close()
	var cuts []int
	for lo := 0; lo < n; lo += 64 {
		cuts = append(cuts, lo)
	}
	ingest(split, append(cuts, n))
	ingest(whole, []int{0, warmup, 128, 300, n})

	if len(split.invStd) != d || len(whole.invStd) != d {
		t.Fatalf("invStd lengths %d, %d; want %d", len(split.invStd), len(whole.invStd), d)
	}
	for f := range split.invStd {
		if math.Float64bits(split.invStd[f]) != math.Float64bits(whole.invStd[f]) {
			t.Fatalf("feature %d: invStd %v (64-sample requests) != %v (one warm-up call)", f, split.invStd[f], whole.invStd[f])
		}
	}
	if !reflect.DeepEqual(split.spec, whole.spec) {
		t.Fatalf("derived spec differs:\n64-sample requests %+v\none warm-up call    %+v", split.spec, whole.spec)
	}
	if split.spec.Schedule == zeroSchedule {
		t.Fatal("no ASCS schedule was derived")
	}
	for _, pr := range cfg.SignalPairs() {
		a, err := split.EstimateKey(pr.Key(d))
		if err != nil {
			t.Fatal(err)
		}
		b, err := whole.EstimateKey(pr.Key(d))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("pair %v: estimate %v (64-sample requests) != %v (one warm-up call)", pr, a, b)
		}
	}
	ta, err := split.TopKMagnitude(50)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := whole.TopKMagnitude(50)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("top-k differs:\n64-sample requests %v\none warm-up call    %v", ta, tb)
	}
}
