package covstream

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// pairRecorder records the length of every OfferPairs flush, to pin
// flush boundaries against row boundaries.
type pairRecorder struct {
	sketchapi.Engine
	calls []int
}

func (r *pairRecorder) OfferPairs(keys []uint64, xs, ests []float64) {
	r.calls = append(r.calls, len(keys))
	r.Engine.OfferPairs(keys, xs, ests)
}

func denseSamples(seed int64, n, dim int, density float64) []stream.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Sample, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < density {
				row[j] = rng.NormFloat64()
			}
		}
		out[i] = stream.FromDense(row)
	}
	return out
}

// observeTwins builds an estimator over eng and a per-pair reference
// over ref from the same config, streams samples through both (the
// estimator row by row into row-aligned OfferPairs flushes, the
// reference one OfferEstimate per pair) and requires them to match.
func observeTwins(t *testing.T, label string, cfg Config, eng, ref sketchapi.Engine, samples []stream.Sample) {
	t.Helper()
	cfg.Engine = eng
	est, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = ref
	refEst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := est.Observe(s); err != nil {
			t.Fatal(err)
		}
		observePerPair(refEst, s)
	}
	requireMatchesPerPair(t, label, est, refEst)
}

// TestRowPathMatchesPairPath streams identical samples through an
// estimator, whose rows reach the engine as row-aligned OfferPairs
// flushes, and through a bare engine of the same kind offered every
// pair with OfferEstimate, for every engine kind, tracked and
// exhaustive retrieval — serialized engines and Top rankings must be
// bit-identical.
func TestRowPathMatchesPairPath(t *testing.T) {
	const dim, T = 40, 120
	samples := denseSamples(99, T, dim, 0.5)
	for _, track := range []int{0, 64} {
		for _, kind := range engineKinds {
			observeTwins(t, fmt.Sprintf("%s track=%d", kind, track),
				Config{Dim: dim, T: T, TrackCandidates: track},
				buildKind(t, kind, T, 0), buildKind(t, kind, T, 0), samples)
		}
	}
}

// TestRowPathDenseFallback drives samples dense enough that each one
// spans hundreds of row-aligned flushes, so the tracked estimate
// scratch grows past pairBatch for batches that overshoot it, and
// requires the estimator to still match the per-pair reference bit for
// bit.
func TestRowPathDenseFallback(t *testing.T) {
	const dim, T = 1500, 2
	if p := dim * (dim - 1) / 2; p <= 100*pairBatch {
		t.Fatalf("dim %d gives only %d pairs; too few flushes per sample", dim, p)
	}
	samples := denseSamples(11, T, dim, 1)
	observeTwins(t, "ASCS dense", Config{Dim: dim, T: T, TrackCandidates: 16},
		buildKind(t, "ASCS", T, 0), buildKind(t, "ASCS", T, 0), samples)
}

// TestFlushPairsRowAligned pins the flush boundaries: the pair buffer
// must flush only at row boundaries, never mid-row. Samples are dense
// enough that the buffer crosses pairBatch in the middle of a row, so
// flushing at exactly pairBatch and flushing at the first row end at or
// past pairBatch produce different call sizes.
func TestFlushPairsRowAligned(t *testing.T) {
	const dim, T = 200, 3
	samples := denseSamples(7, T, dim, 1)
	rec := &pairRecorder{Engine: buildKind(t, "CS", T, 0)}
	est, err := New(Config{Dim: dim, T: T, Engine: rec})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	sawOvershoot := false
	for _, s := range samples {
		m := len(s.Idx)
		buf := 0
		for i := 0; i+1 < m; i++ {
			buf += m - 1 - i
			if buf >= pairBatch {
				if buf > pairBatch {
					sawOvershoot = true
				}
				want = append(want, buf)
				buf = 0
			}
		}
		if buf > 0 {
			want = append(want, buf)
		}
		if err := est.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	if !sawOvershoot {
		t.Fatal("test samples never overshoot pairBatch at a row boundary; regression test is vacuous")
	}
	if len(rec.calls) != len(want) {
		t.Fatalf("flush count %d, want %d (calls %v, want %v)", len(rec.calls), len(want), rec.calls, want)
	}
	for i := range want {
		if rec.calls[i] != want[i] {
			t.Fatalf("flush %d has %d pairs, want row-aligned %d", i, rec.calls[i], want[i])
		}
	}
}
