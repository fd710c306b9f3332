package wavetest

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/sketchapi"
)

// driveStream feeds a seed-derived stream of n offers into e, in
// variable batches with occasional step gaps (so decayed engines tick
// across holes). Values are integer multiples of 1/8 so linear-map
// identities stay exact in float64.
func driveStream(e engine, seed uint64, n int) {
	sm := hashing.NewSplitMix64(seed)
	keys := make([]uint64, n)
	xs := make([]float64, n)
	for i := range keys {
		r := sm.Next()
		keys[i] = r % 600
		xs[i] = float64(int64(r%2001)-1000) / 8.0
	}
	step := 1
	for lo := 0; lo < n; {
		hi := lo + 1 + int(sm.Next()%97)
		if hi > n {
			hi = n
		}
		e.BeginStep(step)
		e.OfferPairs(keys[lo:hi], xs[lo:hi], nil)
		lo = hi
		step += 1 + int(sm.Next()%3)
	}
}

// foldLambdas is the decay grid every fold property is checked under:
// fixed horizon, λ=1 (unbounded, no aging), and a real sliding window.
var foldLambdas = []float64{0, 1, 0.999}

// TestFoldUnfoldPreservesEstimates pins the serving contract on all
// four engines under every decay mode: folding changes estimates only
// by collision noise (quantified in TestFoldAccuracyDegradesGracefully),
// while Unfold restores full-width tables with every estimate
// bit-identical to its folded value — queries never need an unfold.
func TestFoldUnfoldPreservesEstimates(t *testing.T) {
	for kind := 0; kind < 4; kind++ {
		for _, lambda := range foldLambdas {
			e := buildEngine(t, kind, lambda)
			driveStream(e, uint64(100+kind), 3000)

			f, ok := e.(sketchapi.Folder)
			if !ok {
				t.Fatalf("kind %d does not implement sketchapi.Folder", kind)
			}
			if err := f.Fold(2); err != nil {
				t.Fatal(err)
			}
			if f.FoldLevel() != 2 {
				t.Fatalf("kind %d λ=%v: FoldLevel = %d after Fold(2)", kind, lambda, f.FoldLevel())
			}
			folded := make([]float64, 600)
			for key := range folded {
				folded[key] = e.Estimate(uint64(key))
			}
			f.Unfold()
			if f.FoldLevel() != 0 {
				t.Fatalf("kind %d λ=%v: FoldLevel = %d after Unfold", kind, lambda, f.FoldLevel())
			}
			for key, want := range folded {
				if got := e.Estimate(uint64(key)); got != want {
					t.Fatalf("kind %d λ=%v key %d: estimate %v after unfold, %v folded",
						kind, lambda, key, got, want)
				}
			}
			// Ingest resumes at full resolution after the unfold.
			driveStream(e, uint64(200+kind), 500)
		}
	}
}

// TestFoldedWriteRoundTrip pins serialization v3 across the engines:
// WriteToFolded must produce a restorable blob whose estimates equal the
// in-memory folded engine's, and the blob must shrink by about 2^L on
// the dominant sketch payload.
func TestFoldedWriteRoundTrip(t *testing.T) {
	const level = 2
	for kind := 0; kind < 4; kind++ {
		for _, lambda := range foldLambdas {
			e := buildEngine(t, kind, lambda)
			driveStream(e, uint64(300+kind), 3000)

			var full, folded bytes.Buffer
			if _, err := e.WriteTo(&full); err != nil {
				t.Fatal(err)
			}
			fw, ok := e.(sketchapi.FoldedWriter)
			if !ok {
				t.Fatalf("kind %d does not implement sketchapi.FoldedWriter", kind)
			}
			if _, err := fw.WriteToFolded(&folded, level); err != nil {
				t.Fatal(err)
			}
			if e.(sketchapi.Folder).FoldLevel() != 0 {
				t.Fatalf("kind %d: WriteToFolded mutated the engine", kind)
			}
			if ratio := float64(full.Len()) / float64(folded.Len()); ratio < 2 {
				t.Errorf("kind %d λ=%v: folded blob only %.2fx smaller at level %d (%d B vs %d B)",
					kind, lambda, ratio, level, full.Len(), folded.Len())
			}

			// The restored folded engine serves the folded estimates.
			if err := e.(sketchapi.Folder).Fold(level); err != nil {
				t.Fatal(err)
			}
			r := restoreEngine(t, kind, folded.Bytes())
			if got := r.(sketchapi.Folder).FoldLevel(); got != level {
				t.Fatalf("kind %d λ=%v: restored fold level %d, want %d", kind, lambda, got, level)
			}
			for key := uint64(0); key < 600; key++ {
				if got, want := r.Estimate(key), e.Estimate(key); got != want {
					t.Fatalf("kind %d λ=%v key %d: restored estimate %v, folded %v",
						kind, lambda, key, got, want)
				}
			}
		}
	}
}

// TestFoldAccuracyDegradesGracefully quantifies the fold's accuracy
// cost at the engine level: against the uncompressed engine's estimates,
// the RMS deviation introduced by L fold levels must stay within the
// 2^(L/2) collision-noise envelope scaled by the engine's own level-0
// noise floor — folding trades memory for bounded extra noise, on every
// engine and decay mode.
func TestFoldAccuracyDegradesGracefully(t *testing.T) {
	for kind := 0; kind < 4; kind++ {
		for _, lambda := range foldLambdas {
			ref := buildEngine(t, kind, lambda)
			driveStream(ref, uint64(500+kind), 4000)
			refEst := make([]float64, 600)
			var energy float64
			for key := range refEst {
				refEst[key] = ref.Estimate(uint64(key))
				energy += refEst[key] * refEst[key]
			}
			// The engine's own noise scale: RMS estimate magnitude. A
			// fold of L levels shrinks the table 2^L; the collision
			// variance it adds is ~2^L times the level-0 collision
			// variance, which is itself well under the signal energy.
			scale := math.Sqrt(energy/float64(len(refEst))) + 1e-9

			f := ref.(sketchapi.Folder)
			prev := 0.0
			for level := 1; level <= 3; level++ {
				if err := f.Fold(1); err != nil {
					t.Fatal(err)
				}
				var sum float64
				for key, want := range refEst {
					d := ref.Estimate(uint64(key)) - want
					sum += d * d
				}
				rms := math.Sqrt(sum / float64(len(refEst)))
				bound := scale * math.Ldexp(1, (level+1)/2+1)
				t.Logf("kind %d λ=%v level %d: rms fold deviation %.4f (signal rms %.4f, bound %.4f)",
					kind, lambda, level, rms, scale, bound)
				if rms > bound {
					t.Errorf("kind %d λ=%v level %d: fold deviation %.4f exceeds envelope %.4f",
						kind, lambda, level, rms, bound)
				}
				if rms+1e-12 < prev/4 {
					t.Errorf("kind %d λ=%v level %d: deviation %.4f collapsed below level %d's %.4f — fold accounting suspect",
						kind, lambda, level, rms, level-1, prev)
				}
				prev = rms
			}
		}
	}
}

// runFoldDifferential is the fuzz body: one seed-derived stream, one
// engine folded and unfolded mid-stream, against an untouched twin fed
// the identical stream. After the fold/unfold detour both must end at
// the same fold level, and — because Unfold is estimate-preserving and
// ingest after Unfold lands on full-width tables — the detoured engine's
// estimates must track the twin's within the fold's collision noise,
// never NaN/Inf, and its serialized state must restore cleanly.
func runFoldDifferential(t *testing.T, seed uint64, kind, levels, n int) {
	kind = fuzzKind(kind)
	if n < 64 {
		n = 64
	}
	if n > 4096 {
		n = 4096
	}
	plain := buildEngine(t, kind, 0)
	detour := buildEngine(t, kind, 0)
	f := detour.(sketchapi.Folder)
	if levels < 1 {
		levels = 1
	}
	if max := f.MaxFoldLevels(); levels > max {
		levels = max
	}

	driveStream(plain, seed, n)
	driveStream(detour, seed, n)
	if err := f.Fold(levels); err != nil {
		t.Fatal(err)
	}
	f.Unfold()
	driveStream(plain, seed+1, n/2)
	driveStream(detour, seed+1, n/2)

	for key := uint64(0); key < 600; key++ {
		p, d := plain.Estimate(key), detour.Estimate(key)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("kind %d seed %d: non-finite estimate %v for key %d after fold detour", kind, seed, d, key)
		}
		// The detour loses resolution on the first tranche only; a
		// wildly diverging estimate means fold bookkeeping corrupted
		// the table rather than adding bounded collision noise.
		if diff := math.Abs(p - d); diff > 1e6 {
			t.Fatalf("kind %d seed %d: key %d estimate diverged: plain %v, fold-detour %v", kind, seed, key, p, d)
		}
	}
	var buf bytes.Buffer
	if _, err := detour.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := restoreEngine(t, kind, buf.Bytes())
	for key := uint64(0); key < 600; key++ {
		if got, want := r.Estimate(key), detour.Estimate(key); got != want {
			t.Fatalf("kind %d seed %d: restored estimate %v != live %v for key %d", kind, seed, got, want, key)
		}
	}
}

// FuzzFoldDifferential fuzzes the fold/unfold detour across engine
// kinds, fold depths and stream shapes.
func FuzzFoldDifferential(f *testing.F) {
	f.Add(uint64(1), 0, 1, 512)
	f.Add(uint64(2), 1, 2, 1024)
	f.Add(uint64(3), 2, 3, 768)
	f.Add(uint64(4), 3, 2, 512)
	f.Fuzz(func(t *testing.T, seed uint64, kind, levels, n int) {
		runFoldDifferential(t, seed, kind, levels, n)
	})
}

// TestFoldDifferentialSeeded replays a seeded grid of the fuzz cases on
// every ordinary `go test` run (and under -race in CI).
func TestFoldDifferentialSeeded(t *testing.T) {
	for kind := 0; kind < 4; kind++ {
		for _, levels := range []int{1, 3} {
			runFoldDifferential(t, uint64(2000+kind), kind, levels, 1500)
		}
	}
}
