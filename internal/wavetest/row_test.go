// Row-path differentials: OfferRow must be bit-identical to OfferPairs
// over caller-materialized keys on all four engines, at any
// wave group size (including the scalar g=1 path), fixed-horizon and
// decayed, and on engines restored from a snapshot mid-stream.
package wavetest

import (
	"bytes"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/hashing"
)

// restoreEngine round-trips a snapshot through the kind's reader and
// returns the reconstructed engine. The returned value must satisfy
// the full engine interface — including OfferRow — or this fails to
// compile.
func restoreEngine(t *testing.T, kind int, data []byte) engine {
	t.Helper()
	r := bytes.NewReader(data)
	var (
		e   engine
		err error
	)
	switch kinds[kind].family {
	case familyCS:
		e, err = countsketch.ReadMeanSketchFrom(r)
	case familyASCS:
		e, err = core.ReadEngineFrom(r)
	case familyASketch:
		e, err = baselines.ReadASketchFrom(r)
	default:
		e, err = baselines.ReadColdFilterFrom(r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func compareStates(t *testing.T, label string, a, b engine) {
	t.Helper()
	var ab, bb bytes.Buffer
	if _, err := a.WriteTo(&ab); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatalf("%s: serialized state diverges", label)
	}
}

// runRowDifferential drives the same derived stream through OfferRow on
// one engine and OfferPairs (keys materialized as rowBase+partner, with
// the same wrapping-add semantics) on its twin.
func runRowDifferential(t *testing.T, seed uint64, kind, group int, lambda float64, rows int) {
	kind = fuzzKind(kind)
	if group < 1 {
		group = 1
	}
	if group > 128 {
		group = 128
	}
	if rows < 1 {
		rows = 1
	}
	if rows > 400 {
		rows = 400
	}
	pair := buildEngine(t, kind, lambda)
	row := buildEngine(t, kind, lambda)
	pair.SetWaveGroup(group)
	row.SetWaveGroup(group)

	sm := hashing.NewSplitMix64(seed)
	var (
		partners, keys []uint64
		xs, pe, re     []float64
	)
	step := 1
	for r := 0; r < rows; r++ {
		m := 1 + int(sm.Next()%45)
		base := sm.Next() % 500
		if sm.Next()%8 == 0 {
			// Wrap-around base: pairs.RowBase(0, d) is the two's
			// complement of -1, so rowBase+partner must wrap mod 2^64.
			base = ^uint64(0)
		}
		partners, keys = partners[:0], keys[:0]
		xs = xs[:0]
		for j := 0; j < m; j++ {
			p := sm.Next() % 100
			partners = append(partners, p)
			keys = append(keys, base+p)
			xs = append(xs, float64(int64(sm.Next()%20001)-10000)/13.0)
		}
		pair.BeginStep(step)
		row.BeginStep(step)
		var pd, rd []float64
		if sm.Next()%2 == 0 {
			pe = append(pe[:0], xs...)
			re = append(re[:0], xs...)
			pd, rd = pe, re
		}
		pair.OfferPairs(keys, xs, pd)
		row.OfferRow(base, partners, xs, rd)
		if pd != nil {
			for i := range pd {
				if pd[i] != rd[i] {
					t.Fatalf("kind=%d λ=%v g=%d row=%d: est[%d] pairs %v != row %v",
						kind, lambda, group, r, i, pd[i], rd[i])
				}
			}
		}
		step += 1 + int(sm.Next()%3)
	}
	compareStates(t, "row vs pairs", pair, row)
}

// FuzzRowVsPairs fuzzes OfferRow against materialized OfferPairs across kinds, group sizes (incl. scalar) and decay modes.
func FuzzRowVsPairs(f *testing.F) {
	f.Add(uint64(1), 0, 32, uint8(0), 60)
	f.Add(uint64(2), 1, 1, uint8(1), 60)
	f.Add(uint64(3), 2, 8, uint8(2), 40)
	f.Add(uint64(4), 3, 5, uint8(3), 40)
	f.Add(uint64(5), 1, 64, uint8(2), 100)
	f.Fuzz(func(t *testing.T, seed uint64, kind, group int, decaySel uint8, n int) {
		lambdas := []float64{0, 1, 0.999, 0.95}
		runRowDifferential(t, seed, kind, group, lambdas[decaySel%4], n)
	})
}

// TestRowVsPairsSeeded replays a seeded grid in every ordinary test run
// so row-path coverage does not depend on the fuzzer.
func TestRowVsPairsSeeded(t *testing.T) {
	for kind := 0; kind < numKinds; kind++ {
		for _, lambda := range []float64{0, 1, 0.999, 0.95} {
			for _, g := range []int{1, 2, 32} {
				runRowDifferential(t, uint64(2000+kind), kind, g, lambda, 200)
			}
		}
	}
}

// TestRowOffererRestored streams rows, snapshots the row-path engine,
// restores it from bytes and continues via OfferRow — the restored
// engine must lazily rebuild its wave scratch and stay bit-identical to
// an uninterrupted twin fed through OfferPairs.
func TestRowOffererRestored(t *testing.T) {
	for kind := 0; kind < numKinds; kind++ {
		for _, lambda := range []float64{0, 0.999} {
			pair := buildEngine(t, kind, lambda)
			row := buildEngine(t, kind, lambda)
			pair.SetWaveGroup(32)
			row.SetWaveGroup(32)

			sm := hashing.NewSplitMix64(uint64(7000 + kind))
			var partners, keys []uint64
			var xs []float64
			step := 1
			feed := func(rows int) {
				for r := 0; r < rows; r++ {
					m := 1 + int(sm.Next()%45)
					base := sm.Next() % 500
					partners, keys = partners[:0], keys[:0]
					xs = xs[:0]
					for j := 0; j < m; j++ {
						p := sm.Next() % 100
						partners = append(partners, p)
						keys = append(keys, base+p)
						xs = append(xs, float64(int64(sm.Next()%20001)-10000)/13.0)
					}
					pair.BeginStep(step)
					row.BeginStep(step)
					pair.OfferPairs(keys, xs, nil)
					row.OfferRow(base, partners, xs, nil)
					step += 1 + int(sm.Next()%3)
				}
			}
			feed(50)

			var snap bytes.Buffer
			if _, err := row.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			row = restoreEngine(t, kind, snap.Bytes())
			row.SetWaveGroup(32)

			feed(50)
			compareStates(t, "restored row engine", pair, row)
		}
	}
}
