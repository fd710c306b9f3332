package wavetest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/topk"
)

// estimateDecays is the decay grid of the batch-read differentials:
// fixed horizon, λ=1 (unbounded, no aging), and λ<1 driven across a
// step gap long enough to force a renormalisation sweep.
var estimateDecays = []struct {
	name   string
	lambda float64
}{{"fixed", 0}, {"lambda1", 1}, {"renorm", 0.95}}

// renormGap is a step jump after which 0.95^gap ≈ 1e-134 sits below
// the shared renormalisation floor, so every decayed sketch sweeps.
const renormGap = 6000

// driveFrom feeds a seed-derived stream of n offers into e in variable
// batches starting at step, with occasional step gaps, and returns the
// next unused step.
func driveFrom(e engine, seed uint64, n, step int) int {
	sm := hashing.NewSplitMix64(seed)
	keys := make([]uint64, n)
	xs := make([]float64, n)
	for i := range keys {
		r := sm.Next()
		keys[i] = r % 600
		xs[i] = float64(int64(r%20001)-10000) / 13.0
	}
	for lo := 0; lo < n; {
		hi := min(lo+1+int(sm.Next()%97), n)
		e.BeginStep(step)
		e.OfferPairs(keys[lo:hi], xs[lo:hi], nil)
		lo = hi
		step += 1 + int(sm.Next()%3)
	}
	return step
}

// readKeys is the key list every batch read is checked on: the offered
// universe, keys never offered, and repeats, at a length that is no
// multiple of any tested group size.
func readKeys() []uint64 {
	keys := make([]uint64, 0, 777)
	for k := uint64(0); k < 600; k++ {
		keys = append(keys, k)
	}
	sm := hashing.NewSplitMix64(77)
	for len(keys) < cap(keys) {
		if r := sm.Next(); r%2 == 0 {
			keys = append(keys, r%600)
		} else {
			keys = append(keys, r)
		}
	}
	return keys
}

// checkEstimateKeys asserts EstimateKeys ≡ per-key Estimate, bit for
// bit, at wave groups 1 (the scalar loop), 7 and 32, restoring g.
func checkEstimateKeys(t *testing.T, label string, e engine, keys []uint64) {
	t.Helper()
	g0 := e.WaveGroup()
	defer e.SetWaveGroup(g0)
	out := make([]float64, len(keys))
	for _, g := range []int{1, 7, 32} {
		e.SetWaveGroup(g)
		e.EstimateKeys(keys, out)
		for i, key := range keys {
			if want := e.Estimate(key); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%s g=%d: EstimateKeys[%d] (key %d) = %v (%#x), Estimate = %v (%#x)",
					label, g, i, key, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	}
}

// checkTopBatch asserts that the tracker's batch Top over EstimateKeys
// returns the scalar Top's items in the same order with equal bits,
// under signed and magnitude ranks and several k.
func checkTopBatch(t *testing.T, label string, e engine, tk *topk.Tracker) {
	t.Helper()
	for _, rank := range []struct {
		name string
		f    func(float64) float64
	}{{"signed", func(v float64) float64 { return v }}, {"magnitude", math.Abs}} {
		for _, k := range []int{1, 10, 100, 1000} {
			want := tk.Top(k, func(key uint64) float64 { return rank.f(e.Estimate(key)) })
			got := tk.TopBatch(k, func(keys []uint64, scores []float64) {
				e.EstimateKeys(keys, scores)
				for i, v := range scores {
					scores[i] = rank.f(v)
				}
			})
			sameItems(t, fmt.Sprintf("%s %s k=%d", label, rank.name, k), got, want)
		}
	}
}

// sameItems fails unless got and want hold the same keys in the same
// order with bit-equal scores.
func sameItems(t *testing.T, label string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, scalar Top %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: item %d = {%d %v}, scalar Top {%d %v}",
				label, i, got[i].Key, got[i].Score, want[i].Key, want[i].Score)
		}
	}
}

// trackAll fills a tracker (capacity 256, so the 600-key universe
// prunes) the way a shard does: every key scored by |estimate|.
func trackAll(e engine) *topk.Tracker {
	tk := topk.NewTracker(256)
	for k := uint64(0); k < 600; k++ {
		tk.Offer(k, math.Abs(e.Estimate(k)))
	}
	return tk
}

// TestEstimateKeysMatchesEstimate is the batch-read differential: on
// all ten engine kinds, under every decay mode, at fold levels 0, 1
// and 2 and across an unfold→refold cycle, EstimateKeys returns
// Estimate's exact bits and the batch Top returns the scalar Top's
// exact answer. A fresh all-zero engine (every score ±0, all tied)
// is checked first.
func TestEstimateKeysMatchesEstimate(t *testing.T) {
	keys := readKeys()
	for kind := 0; kind < numKinds; kind++ {
		for _, d := range estimateDecays {
			label := fmt.Sprintf("kind=%d %s", kind, d.name)
			e := buildEngine(t, kind, d.lambda)
			check := func(stage string) {
				t.Helper()
				checkEstimateKeys(t, label+" "+stage, e, keys)
				checkTopBatch(t, label+" "+stage, e, trackAll(e))
			}
			check("fresh")
			step := driveFrom(e, uint64(300+kind), 2500, 1)
			if d.lambda != 0 && d.lambda != 1 {
				step = driveFrom(e, uint64(400+kind), 500, step+renormGap)
				if e.Health().DecayRenorms == 0 {
					t.Fatalf("%s: the step gap forced no renormalisation", label)
				}
			}
			check("level0")
			for level := 1; level <= 2; level++ {
				if err := e.Fold(1); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("level%d", level))
			}
			e.Unfold()
			check("unfolded")
			driveFrom(e, uint64(500+kind), 400, step)
			check("unfolded+ingest")
			if err := e.Fold(2); err != nil {
				t.Fatal(err)
			}
			check("refolded")
		}
	}
}

// TestEstimateKeysZeroAllocs pins the batch read at no allocation on
// all four engine families once the wave scratch exists, at the
// default group and on the scalar loop.
func TestEstimateKeysZeroAllocs(t *testing.T) {
	keys := readKeys()
	out := make([]float64, len(keys))
	for kind := 0; kind < 4; kind++ {
		e := buildEngine(t, kind, 0.999)
		driveFrom(e, uint64(600+kind), 2000, 1)
		for _, g := range []int{32, 1} {
			e.SetWaveGroup(g)
			e.EstimateKeys(keys, out) // builds the lazy wave scratch
			if avg := testing.AllocsPerRun(50, func() { e.EstimateKeys(keys, out) }); avg != 0 {
				t.Fatalf("kind=%d g=%d: EstimateKeys allocates %.1f per call", kind, g, avg)
			}
		}
	}
}
