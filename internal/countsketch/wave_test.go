package countsketch

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/hashing"
)

func waveKeys(n int, seed uint64) []uint64 {
	sm := hashing.NewSplitMix64(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = sm.Next() % 5000 // repeats across the stream
	}
	return keys
}

func waveVals(n int, seed uint64) []float64 {
	sm := hashing.NewSplitMix64(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(int64(sm.Next()%4001)-2000) / 17.0
	}
	return xs
}

// TestLocateBatchMatchesLocate pins stage 1 against the per-key path.
func TestLocateBatchMatchesLocate(t *testing.T) {
	s := MustNew(Config{Tables: 5, Range: 1 << 10, Seed: 7})
	keys := waveKeys(67, 1)
	batch := make([]Slot, len(keys)*s.K())
	s.LocateBatch(keys, batch)
	var one [MaxTables]Slot
	for i, key := range keys {
		s.Locate(key, &one)
		for e := 0; e < s.K(); e++ {
			if batch[i*s.K()+e] != one[e] {
				t.Fatalf("key %d table %d: %+v != %+v", key, e, batch[i*s.K()+e], one[e])
			}
		}
	}
}

// TestEstimateSlotsBatchMatchesWithRaw pins the gather stage: each
// group member's (est, raw) must be bit-identical to
// EstimateSlotsWithRaw, including under an active decay scale.
func TestEstimateSlotsBatchMatchesWithRaw(t *testing.T) {
	for _, tables := range []int{4, 5} {
		for _, decay := range []float64{1, 0.5} {
			s := MustNew(Config{Tables: tables, Range: 1 << 9, Seed: 3})
			keys := waveKeys(200, 2)
			xs := waveVals(200, 3)
			for i, key := range keys {
				s.Add(key, xs[i])
			}
			s.Decay(decay)
			group := keys[:33]
			slots := make([]Slot, len(group)*tables)
			s.LocateBatch(group, slots)
			ests := make([]float64, len(group))
			raws := make([]float64, len(group))
			s.EstimateSlotsBatch(NewWave(tables, len(group)), slots, ests, raws)
			var one [MaxTables]Slot
			for i, key := range group {
				s.Locate(key, &one)
				est, raw := s.EstimateSlotsWithRaw(&one)
				if est != ests[i] || raw != raws[i] {
					t.Fatalf("K=%d decay=%v key %d: batch (%v,%v) != scalar (%v,%v)",
						tables, decay, key, ests[i], raws[i], est, raw)
				}
			}
		}
	}
}

// TestAddSlotsBatchMatchesScalar pins the scatter stage on a clean
// (conflict-free) group: tables and post-add estimates must be
// bit-identical to per-pair AddSlotsWithEstimateRaw in group order, for
// odd and even K and with a decay scale active.
func TestAddSlotsBatchMatchesScalar(t *testing.T) {
	for _, tables := range []int{4, 5} {
		for _, decay := range []float64{1, 0.25} {
			a := MustNew(Config{Tables: tables, Range: 1 << 12, Seed: 11})
			b := a.Clone()
			// Distinct keys; with R=4096 and 24 keys the group is almost
			// surely clean — require it so the equivalence claim applies.
			keys := make([]uint64, 24)
			for i := range keys {
				keys[i] = uint64(1000 + i)
			}
			xs := waveVals(len(keys), 5)
			seed := waveVals(len(keys), 6)
			for i, key := range keys {
				a.Add(key, seed[i])
				b.Add(key, seed[i])
			}
			a.Decay(decay)
			b.Decay(decay)

			slots := make([]Slot, len(keys)*tables)
			a.LocateBatch(keys, slots)
			w := NewWave(tables, len(keys))
			if !w.Clean(slots) {
				t.Skipf("K=%d: group not conflict-free under this seed", tables)
			}
			ests := make([]float64, len(keys))
			raws := make([]float64, len(keys))
			a.EstimateSlotsBatch(w, slots, ests, raws)
			admit := make([]bool, len(keys))
			vs := make([]float64, len(keys))
			for i := range keys {
				admit[i] = i%3 != 0
				if admit[i] {
					vs[i] = xs[i]
				}
			}
			a.AddSlotsBatch(slots, vs, admit, raws, ests)

			var one [MaxTables]Slot
			for i, key := range keys {
				b.Locate(key, &one)
				est, raw := b.EstimateSlotsWithRaw(&one)
				if admit[i] {
					est = b.AddSlotsWithEstimateRaw(&one, xs[i], raw)
				}
				if est != ests[i] {
					t.Fatalf("K=%d decay=%v key %d: batch est %v != scalar %v", tables, decay, key, ests[i], est)
				}
			}
			var ba, bb bytes.Buffer
			if _, err := a.WriteTo(&ba); err != nil {
				t.Fatal(err)
			}
			if _, err := b.WriteTo(&bb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
				t.Fatalf("K=%d decay=%v: batch and scalar tables diverge", tables, decay)
			}
		}
	}
}

// TestWaveCleanDetectsSharedCells pins the conflict screen: a repeated
// key must flag the group dirty, and screening must not leak state
// between groups (epoch stamping).
func TestWaveCleanDetectsSharedCells(t *testing.T) {
	s := MustNew(Config{Tables: 5, Range: 1 << 12, Seed: 1})
	w := NewWave(s.K(), 8)
	dup := []uint64{10, 11, 12, 10} // same key twice: all K cells shared
	slots := w.Slots(len(dup))
	s.LocateBatch(dup, slots)
	if w.Clean(slots) {
		t.Fatal("duplicate key not detected as a shared cell")
	}
	// A fresh disjoint group must screen clean right after (no residue).
	uniq := []uint64{20, 21, 22, 23}
	slots = w.Slots(len(uniq))
	s.LocateBatch(uniq, slots)
	if !w.Clean(slots) {
		t.Fatal("clean group flagged dirty after a dirty one (stale screen state)")
	}
}

// TestTouchSlotsReadsEveryCell sanity-checks the prefetch pass: the
// returned sum is the plain sum of the addressed raw cells, so the
// loads demonstrably happen.
func TestTouchSlotsReadsEveryCell(t *testing.T) {
	s := MustNew(Config{Tables: 3, Range: 64, Seed: 5})
	keys := []uint64{1, 2, 3, 4}
	s.Add(keys[0], 2.5)
	slots := make([]Slot, len(keys)*s.K())
	s.LocateBatch(keys, slots)
	want := 0.0
	for _, sl := range slots {
		want += s.w[sl.Off]
	}
	if got := s.TouchSlots(slots); got != want {
		t.Fatalf("touch sum %v != %v", got, want)
	}
}

// TestMeanSketchWaveMatchesScalar drives identical streams through the
// wave OfferPairs (several group sizes) and the scalar loop, fixed and
// decayed, and requires bit-identical serialized state and estimates.
func TestMeanSketchWaveMatchesScalar(t *testing.T) {
	const T = 1 << 20
	for _, lambda := range []float64{0, 1, 0.999} {
		for _, g := range []int{2, 8, 32} {
			mkEngine := func() *MeanSketch {
				cfg := Config{Tables: 5, Range: 1 << 10, Seed: 9}
				if lambda == 0 {
					m, err := NewMeanSketch(cfg, T)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				m, err := NewMeanSketchDecayed(cfg, T, lambda)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			scalar, wave := mkEngine(), mkEngine()
			scalar.SetWaveGroup(1)
			wave.SetWaveGroup(g)
			keys := waveKeys(3000, 21)
			xs := waveVals(3000, 22)
			se := make([]float64, 100)
			we := make([]float64, 100)
			for step, lo := 1, 0; lo < len(keys); step, lo = step+1, lo+100 {
				scalar.BeginStep(step)
				wave.BeginStep(step)
				var sd, wd []float64
				if step%2 == 0 { // alternate pure-ingest and estimating calls
					sd, wd = se, we
				}
				scalar.OfferPairs(keys[lo:lo+100], xs[lo:lo+100], sd)
				wave.OfferPairs(keys[lo:lo+100], xs[lo:lo+100], wd)
				if sd != nil {
					for i := range sd {
						if sd[i] != wd[i] {
							t.Fatalf("λ=%v g=%d step %d: est[%d] scalar %v != wave %v", lambda, g, step, i, sd[i], wd[i])
						}
					}
				}
			}
			var bs, bw bytes.Buffer
			if _, err := scalar.WriteTo(&bs); err != nil {
				t.Fatal(err)
			}
			if _, err := wave.WriteTo(&bw); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bs.Bytes(), bw.Bytes()) {
				t.Fatalf("λ=%v g=%d: serialized state diverges", lambda, g)
			}
			for k := uint64(0); k < 64; k++ {
				if a, b := scalar.Estimate(k), wave.Estimate(k); a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("λ=%v g=%d key %d: %v != %v", lambda, g, k, a, b)
				}
			}
		}
	}
}
