package baselines

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
)

// sketchBytes serializes a raw count sketch for bit-level comparison.
func sketchBytes(t *testing.T, s *countsketch.Sketch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// driveDifferential replays one seeded stream through engine a per-call
// (Offer then Estimate — the pre-fusion covstream sequence) and through
// engine b's OfferEstimate, requiring bit-identical estimates per offer.
// The key universe is small so the ASketch filter churns (promotions,
// swaps) and the Cold Filter saturates keys into layer 2.
func driveDifferential(t *testing.T, a, b sketchapi.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	const steps, offersPerStep = 300, 24
	for step := 1; step <= steps; step++ {
		a.BeginStep(step)
		b.BeginStep(step)
		for o := 0; o < offersPerStep; o++ {
			key := rng.Uint64() % 256
			x := rng.NormFloat64()
			if key < 8 {
				x += 5 // a few persistent heavy keys drive promotions/saturation
			}
			a.Offer(key, x)
			ea := a.Estimate(key)
			eb, admitted := b.OfferEstimate(key, x)
			if !admitted {
				t.Fatalf("%s: ungated engine reported a rejected offer", a.Name())
			}
			if math.Float64bits(ea) != math.Float64bits(eb) {
				t.Fatalf("%s step %d offer %d key %d: per-call est %v, fused est %v",
					a.Name(), step, o, key, ea, eb)
			}
		}
	}
}

func newTestASketch(t *testing.T) *ASketch {
	t.Helper()
	a, err := NewASketch(countsketch.Config{Tables: 5, Range: 256, Seed: 31}, 7200, 6)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestASketchOfferEstimateBitIdentical(t *testing.T) {
	a, b := newTestASketch(t), newTestASketch(t)
	driveDifferential(t, a, b)
	if !bytes.Equal(sketchBytes(t, a.sk), sketchBytes(t, b.sk)) {
		t.Fatal("ASketch backing sketches diverged between per-call and fused paths")
	}
	if len(a.filter) != len(b.filter) {
		t.Fatalf("filter sizes diverged: %d vs %d", len(a.filter), len(b.filter))
	}
	for k, v := range a.filter {
		if bv, ok := b.filter[k]; !ok || math.Float64bits(v) != math.Float64bits(bv) {
			t.Fatalf("filter entry %d diverged: %v vs %v (present=%v)", k, v, bv, ok)
		}
	}
}

func newTestColdFilter(t *testing.T) *ColdFilter {
	t.Helper()
	l1 := countsketch.Config{Tables: 5, Range: 64, Seed: 41}
	l2 := countsketch.Config{Tables: 5, Range: 256, Seed: 42}
	c, err := NewColdFilter(l1, l2, 7200, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColdFilterOfferEstimateBitIdentical(t *testing.T) {
	a, b := newTestColdFilter(t), newTestColdFilter(t)
	driveDifferential(t, a, b)
	if !bytes.Equal(sketchBytes(t, a.l1), sketchBytes(t, b.l1)) {
		t.Fatal("ColdFilter layer-1 sketches diverged between per-call and fused paths")
	}
	if !bytes.Equal(sketchBytes(t, a.l2), sketchBytes(t, b.l2)) {
		t.Fatal("ColdFilter layer-2 sketches diverged between per-call and fused paths")
	}
	if sum := a.l2.L2Norm(); sum == 0 {
		t.Fatal("layer 2 never saw an overflow; saturation branch untested")
	}
}

// TestBaselineOfferPairsMatchesPerCall replays the stream through the
// batch entry point in random chunks and compares the final sketch state
// and per-offer estimates against the per-call twin.
func TestBaselineOfferPairsMatchesPerCall(t *testing.T) {
	engines := []struct {
		name string
		a, b sketchapi.Engine
		tabs func(e sketchapi.Engine) []*countsketch.Sketch
	}{
		{
			name: "ASketch",
			a:    newTestASketch(t), b: newTestASketch(t),
			tabs: func(e sketchapi.Engine) []*countsketch.Sketch { return []*countsketch.Sketch{e.(*ASketch).sk} },
		},
		{
			name: "ColdFilter",
			a:    newTestColdFilter(t), b: newTestColdFilter(t),
			tabs: func(e sketchapi.Engine) []*countsketch.Sketch {
				cf := e.(*ColdFilter)
				return []*countsketch.Sketch{cf.l1, cf.l2}
			},
		},
	}
	for _, tc := range engines {
		rng := rand.New(rand.NewSource(23))
		chunkRng := rand.New(rand.NewSource(5))
		const steps, offersPerStep = 200, 24
		keys := make([]uint64, offersPerStep)
		xs := make([]float64, offersPerStep)
		want := make([]float64, offersPerStep)
		got := make([]float64, offersPerStep)
		for step := 1; step <= steps; step++ {
			tc.a.BeginStep(step)
			tc.b.BeginStep(step)
			for o := 0; o < offersPerStep; o++ {
				keys[o] = rng.Uint64() % 256
				xs[o] = rng.NormFloat64()
				if keys[o] < 8 {
					xs[o] += 5
				}
				want[o], _ = tc.a.OfferEstimate(keys[o], xs[o])
			}
			for lo := 0; lo < offersPerStep; {
				hi := lo + 1 + chunkRng.Intn(offersPerStep)
				if hi > offersPerStep {
					hi = offersPerStep
				}
				tc.b.OfferPairs(keys[lo:hi], xs[lo:hi], got[lo:hi])
				lo = hi
			}
			for o := 0; o < offersPerStep; o++ {
				if math.Float64bits(want[o]) != math.Float64bits(got[o]) {
					t.Fatalf("%s step %d offer %d: per-call est %v, batch est %v", tc.name, step, o, want[o], got[o])
				}
			}
		}
		ta, tb := tc.tabs(tc.a), tc.tabs(tc.b)
		for i := range ta {
			if !bytes.Equal(sketchBytes(t, ta[i]), sketchBytes(t, tb[i])) {
				t.Fatalf("%s table %d diverged between per-call and batch paths", tc.name, i)
			}
		}
	}
}
