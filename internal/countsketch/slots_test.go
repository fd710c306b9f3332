package countsketch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hashing"
)

// TestSlotPathBitIdentical drives one sketch through Add/Estimate and a
// twin through Locate+AddSlots/EstimateSlots with the same seeded stream
// and requires bit-identical tables and estimates, for every hash family
// and for odd and even K (the differential safety net of the fused
// ingest refactor).
func TestSlotPathBitIdentical(t *testing.T) {
	kinds := []hashing.Kind{hashing.KindMix, hashing.KindPoly, hashing.KindPoly4, hashing.KindTabulation}
	for _, kind := range kinds {
		for _, k := range []int{1, 4, 5} {
			cfg := Config{Tables: k, Range: 512, Seed: 99, Hash: kind}
			a := MustNew(cfg)
			b := MustNew(cfg)
			rng := rand.New(rand.NewSource(7))
			var slots [MaxTables]Slot
			for i := 0; i < 5000; i++ {
				key := rng.Uint64() % 4096
				v := rng.NormFloat64() * 1e-3
				a.Add(key, v)
				b.Locate(key, &slots)
				b.AddSlots(&slots, v)
				ea := a.Estimate(key)
				eb := b.EstimateSlots(&slots)
				if math.Float64bits(ea) != math.Float64bits(eb) {
					t.Fatalf("%v K=%d: estimate mismatch at op %d: %v vs %v", kind, k, i, ea, eb)
				}
			}
			var bufA, bufB bytes.Buffer
			if _, err := a.WriteTo(&bufA); err != nil {
				t.Fatal(err)
			}
			if _, err := b.WriteTo(&bufB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
				t.Fatalf("%v K=%d: tables diverged between Add and AddSlots paths", kind, k)
			}
		}
	}
}

// TestLocateMatchesPerTableHashes checks Locate against the per-table
// Bucket/Sign interface methods cell by cell.
func TestLocateMatchesPerTableHashes(t *testing.T) {
	for _, kind := range []hashing.Kind{hashing.KindMix, hashing.KindPoly, hashing.KindPoly4, hashing.KindTabulation} {
		cfg := Config{Tables: 6, Range: 321, Seed: 5, Hash: kind}
		s := MustNew(cfg)
		h := hashing.MustNew(kind, cfg.Tables, cfg.Range, cfg.Seed)
		rng := rand.New(rand.NewSource(3))
		var slots [MaxTables]Slot
		for i := 0; i < 2000; i++ {
			key := rng.Uint64()
			s.Locate(key, &slots)
			for e := 0; e < cfg.Tables; e++ {
				wantOff := e*cfg.Range + h.Bucket(e, key)
				wantSign := h.Sign(e, key)
				if slots[e].Off != wantOff || slots[e].Sign != wantSign {
					t.Fatalf("%v table %d key %d: slot {%d,%v}, want {%d,%v}",
						kind, e, key, slots[e].Off, slots[e].Sign, wantOff, wantSign)
				}
			}
		}
	}
}

// TestAddSlotsEstimate pins the fused add-and-estimate step against
// AddSlots followed by EstimateSlots on a twin sketch, bit for bit:
// every returned estimate and the cells afterwards, across K = 1..7
// (the K = 5 kernel and the generic path) at decay scale 1 and under an
// active scale. A small range and a tie- and zero-heavy value mix keep
// cell collisions, cancellations and ±0 medians routine.
func TestAddSlotsEstimate(t *testing.T) {
	for k := 1; k <= 7; k++ {
		for _, decay := range []float64{1, 0.93} {
			cfg := Config{Tables: k, Range: 64, Seed: 12}
			a, b := MustNew(cfg), MustNew(cfg)
			rng := rand.New(rand.NewSource(int64(11 + k)))
			var slots [MaxTables]Slot
			for i := 0; i < 20000; i++ {
				if i%500 == 499 {
					a.Decay(decay)
					b.Decay(decay)
				}
				key := rng.Uint64() % 512
				var v float64
				switch rng.Intn(4) {
				case 0:
					v = 0
				case 1:
					v = float64(rng.Intn(5) - 2)
				default:
					v = rng.NormFloat64() / 3
				}
				a.Locate(key, &slots)
				got := a.AddSlotsEstimate(&slots, v)
				b.AddSlots(&slots, v)
				want := b.EstimateSlots(&slots)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("K=%d decay=%v op %d: AddSlotsEstimate=%v (%#x), AddSlots+EstimateSlots=%v (%#x)",
						k, decay, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				// EstimateSlots itself runs median5 at K = 5; the
				// insertion sort over the stored cells is the
				// independent reference.
				var buf [MaxTables]float64
				for e := 0; e < k; e++ {
					buf[e] = b.w[slots[e].Off] * slots[e].Sign
				}
				if ref := medianInPlace(buf[:k]) * b.scale; math.Float64bits(ref) != math.Float64bits(want) {
					t.Fatalf("K=%d decay=%v op %d: EstimateSlots=%v, insertion sort over the cells=%v", k, decay, i, want, ref)
				}
			}
			if decay != 1 && a.DecayScale() == 1 {
				t.Fatalf("K=%d: decay never moved the scale", k)
			}
			var bufA, bufB bytes.Buffer
			if _, err := a.WriteTo(&bufA); err != nil {
				t.Fatal(err)
			}
			if _, err := b.WriteTo(&bufB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
				t.Fatalf("K=%d decay=%v: cells diverged between AddSlotsEstimate and AddSlots", k, decay)
			}
		}
	}
}

// checkMedian5 compares median5 with its oracle, the insertion sort
// every other K uses.
func checkMedian5(t *testing.T, x [5]float64) {
	t.Helper()
	got := median5(x[0], x[1], x[2], x[3], x[4])
	sorted := x
	want := medianInPlace(sorted[:])
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("median5%v = %v (%#x), insertion sort %v (%#x)",
			x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestMedian5MatchesInsertionSort requires median5 to return the
// insertion sort's bits on every input: all 9⁵ tuples over the values
// whose order and bits are delicate (±0, ±Inf, NaN, ties), then random
// tuples drawn from a small pool so ties, ±0 and NaN recur.
func TestMedian5MatchesInsertionSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{math.Inf(-1), -2, -1, negZero, 0, 1, 2, math.Inf(1), math.NaN()}
	var x [5]float64
	var walk func(i int)
	walk = func(i int) {
		if i == len(x) {
			checkMedian5(t, x)
			return
		}
		for _, v := range vals {
			x[i] = v
			walk(i + 1)
		}
	}
	walk(0)

	pool := append(vals, -0.5, 0.5, 3, -3, math.SmallestNonzeroFloat64, -math.MaxFloat64)
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 1_000_000; n++ {
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = rng.NormFloat64()
			} else {
				x[i] = pool[rng.Intn(len(pool))]
			}
		}
		checkMedian5(t, x)
	}
}

// FuzzMedian5 checks median5 against the insertion sort on arbitrary
// inputs, NaN payloads and signed zeros included.
func FuzzMedian5(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0)
	f.Add(0.0, math.Copysign(0, -1), 0.0, math.Copysign(0, -1), 0.0)
	f.Add(math.NaN(), 1.0, -1.0, math.Inf(1), math.Inf(-1))
	f.Add(-1.0, -1.0, 0.0, 2.0, 2.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		checkMedian5(t, [5]float64{a, b, c, d, e})
	})
}

// TestAddSlotsNonFinitePanics keeps the Add contract on the slot path: a
// NaN would silently poison colliding estimates.
func TestAddSlotsNonFinitePanics(t *testing.T) {
	s := MustNew(Config{Tables: 3, Range: 16, Seed: 1})
	var slots [MaxTables]Slot
	s.Locate(42, &slots)
	defer func() {
		if recover() == nil {
			t.Fatal("AddSlots(NaN) did not panic")
		}
	}()
	s.AddSlots(&slots, math.NaN())
}
