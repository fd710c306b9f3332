package baselines

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
)

// driveLockstep offers an identical seeded stream to both engines,
// failing on any divergence in per-offer estimates.
func driveLockstep(t *testing.T, a, b sketchapi.Engine, steps, perStep int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for step := 1; step <= steps; step++ {
		a.BeginStep(step)
		b.BeginStep(step)
		for i := 0; i < perStep; i++ {
			k := rng.Uint64() % 4096
			v := rng.NormFloat64()
			if i == 0 {
				k, v = uint64(step%17), 1+rng.Float64() // recurring hot keys
			}
			ae, _ := a.OfferEstimate(k, v)
			be, _ := b.OfferEstimate(k, v)
			if math.Float64bits(ae) != math.Float64bits(be) {
				t.Fatalf("step %d key %d: estimates diverged: %v vs %v", step, k, ae, be)
			}
		}
	}
}

// assertSameEstimates compares point estimates over a key sweep, bitwise.
func assertSameEstimates(t *testing.T, a, b sketchapi.Engine, span uint64) {
	t.Helper()
	for k := uint64(0); k < span; k++ {
		if math.Float64bits(a.Estimate(k)) != math.Float64bits(b.Estimate(k)) {
			t.Fatalf("estimate for key %d diverged: %v vs %v", k, a.Estimate(k), b.Estimate(k))
		}
	}
}

// TestASketchDecayedLambda1Differential pins λ=1 decay mode to the
// fixed-horizon ASketch bit-for-bit, including the serialized form.
func TestASketchDecayedLambda1Differential(t *testing.T) {
	cfg := countsketch.Config{Tables: 5, Range: 512, Seed: 3}
	const T = 250
	fixed, err := NewASketch(cfg, T, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewASketchDecayed(cfg, T, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	driveLockstep(t, fixed, dec, T, 10, 51)
	assertSameEstimates(t, fixed, dec, 4096)
	var fb, db bytes.Buffer
	if _, err := fixed.WriteTo(&fb); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.WriteTo(&db); err != nil {
		t.Fatal(err)
	}
	// The engines share filter and table state; only the decay-mode flag
	// differs in the header (λ=1 must survive a restore).
	if bytes.Equal(fb.Bytes(), db.Bytes()) {
		t.Fatal("decay flag lost: serialized forms identical")
	}
	restored, err := ReadASketchFrom(&db)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Decaying() || restored.DecayFactor() != 1 {
		t.Fatalf("restored ASketch lost decay mode")
	}
	assertSameEstimates(t, dec, restored, 4096)
}

// TestColdFilterDecayedLambda1Differential is the same pin for the Cold
// Filter.
func TestColdFilterDecayedLambda1Differential(t *testing.T) {
	l1 := countsketch.Config{Tables: 3, Range: 128, Seed: 8}
	l2 := countsketch.Config{Tables: 5, Range: 512, Seed: 4}
	const T = 250
	fixed, err := NewColdFilter(l1, l2, T, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewColdFilterDecayed(l1, l2, T, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	driveLockstep(t, fixed, dec, T, 10, 53)
	assertSameEstimates(t, fixed, dec, 4096)
}

// TestASketchSnapshotRoundTrip serializes a live (actively decayed)
// ASketch mid-stream and continues original and restored in lockstep.
func TestASketchSnapshotRoundTrip(t *testing.T) {
	const window = 120
	lambda := 1 - 1.0/window
	orig, err := NewASketchDecayed(countsketch.Config{Tables: 4, Range: 256, Seed: 6}, window, 6, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for step := 1; step <= 100; step++ {
		orig.BeginStep(step)
		for i := 0; i < 6; i++ {
			orig.Offer(rng.Uint64()%1024, rng.NormFloat64())
		}
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadASketchFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.FilterLen() != orig.FilterLen() {
		t.Fatalf("filter length diverged: %d vs %d", restored.FilterLen(), orig.FilterLen())
	}
	driveLockstep(t, orig, restored, 80, 6, 72)
	assertSameEstimates(t, orig, restored, 1024)
}

// TestColdFilterSnapshotRoundTrip is the same for the Cold Filter.
func TestColdFilterSnapshotRoundTrip(t *testing.T) {
	const window = 120
	lambda := 1 - 1.0/window
	l1 := countsketch.Config{Tables: 3, Range: 64, Seed: 5}
	l2 := countsketch.Config{Tables: 4, Range: 256, Seed: 9}
	orig, err := NewColdFilterDecayed(l1, l2, window, 0.02, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	for step := 1; step <= 100; step++ {
		orig.BeginStep(step)
		for i := 0; i < 6; i++ {
			orig.Offer(rng.Uint64()%1024, rng.NormFloat64())
		}
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadColdFilterFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.EffectiveSamples() != orig.EffectiveSamples() {
		t.Fatalf("N_eff diverged: %v vs %v", restored.EffectiveSamples(), orig.EffectiveSamples())
	}
	driveLockstep(t, orig, restored, 80, 6, 82)
	assertSameEstimates(t, orig, restored, 1024)
}

// TestBaselinesAgeOut checks the filters actually forget: a key that
// saturated the structures early decays away once it stops arriving.
func TestBaselinesAgeOut(t *testing.T) {
	const window = 40
	lambda := 1 - 1.0/window
	ask, err := NewASketchDecayed(countsketch.Config{Tables: 4, Range: 512, Seed: 2}, window, 4, lambda)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := NewColdFilterDecayed(
		countsketch.Config{Tables: 3, Range: 128, Seed: 7},
		countsketch.Config{Tables: 4, Range: 512, Seed: 1},
		window, 0.01, lambda)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sketchapi.Engine{ask, cf} {
		for step := 1; step <= window; step++ {
			eng.BeginStep(step)
			eng.Offer(42, 5)
		}
		peak := eng.Estimate(42)
		if peak <= 0 {
			t.Fatalf("%s: no mass accumulated", eng.Name())
		}
		eng.BeginStep(window * 8) // long silence
		if got := eng.Estimate(42); math.Abs(got) > math.Abs(peak)*0.01 {
			t.Fatalf("%s: estimate %v did not age out from peak %v", eng.Name(), got, peak)
		}
	}
}
