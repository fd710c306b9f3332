package hashing

import (
	"testing"
)

// fillGoRef runs the portable reference kernel for a family's seeds —
// the oracle every architecture kernel must match bit for bit.
func fillGoRef(f *mixFamily, keys []uint64) []Slot {
	slots := make([]Slot, len(keys)*f.tables)
	mixFillSlotsBatchGo(keys, slots, f.bucketSeeds, f.signSeeds, f.rng)
	return slots
}

// TestMixFillSlotsBatchMatchesReference compares the dispatched
// FillSlotsBatch (AVX-512 8-key blocks, then AVX2 quads, on capable
// amd64 hosts; the portable loop elsewhere and under -tags purego)
// against the pure-Go reference across table counts, ranges (including
// non-powers of two and the largest range below the 2^32
// vector-fastRange guard), and batch lengths that exercise the block
// and quad loops plus every tail size.
func TestMixFillSlotsBatchMatchesReference(t *testing.T) {
	t.Logf("cpu features: avx2=%v avx512=%v bmi2=%v", cpuAVX2, cpuAVX512, cpuBMI2)
	sm := NewSplitMix64(0xfeedface)
	ranges := []int{1, 2, 7, 256, 1 << 14, 200000, 1<<31 - 1, 1<<32 - 1}
	for _, k := range []int{1, 2, 3, 5, 8, 11} {
		for _, r := range ranges {
			f := newMixFamily(k, r, sm.Next())
			for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 64, 67} {
				keys := make([]uint64, n)
				for i := range keys {
					switch i % 3 {
					case 0:
						keys[i] = sm.Next()
					case 1:
						keys[i] = uint64(i) // small structured keys
					default:
						keys[i] = ^uint64(0) - uint64(i)
					}
				}
				want := fillGoRef(f, keys)
				got := make([]Slot, n*k)
				f.FillSlotsBatch(keys, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("K=%d R=%d n=%d: slot %d = %+v, reference %+v", k, r, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMixFillSlotsBatchHugeRange pins the dispatcher's R ≥ 2^32 guard:
// the vector fastRange is only exact below 2^32, so such ranges must
// take the portable kernel (and still agree with it, trivially).
func TestMixFillSlotsBatchHugeRange(t *testing.T) {
	if intSize := 32 << (^uint(0) >> 63); intSize < 64 {
		t.Skip("range beyond 2^32 needs 64-bit int")
	}
	f := &mixFamily{
		bucketSeeds: []uint64{0xdeadbeefcafef00d, 0x0123456789abcdef},
		signSeeds:   []uint64{0x1111111111111111, 0x2222222222222223},
		tables:      2,
		rng:         1 << 33,
	}
	keys := []uint64{0, 1, ^uint64(0), 0x9e3779b97f4a7c15, 42, 43, 44, 45, 46}
	want := fillGoRef(f, keys)
	got := make([]Slot, len(keys)*2)
	f.FillSlotsBatch(keys, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// FuzzMixFillSlotsBatch fuzzes the kernel-vs-reference equivalence over
// seeds, shapes, and key contents.
func FuzzMixFillSlotsBatch(f *testing.F) {
	f.Add(uint64(1), uint64(99), 5, 1<<14)
	f.Add(uint64(0), uint64(0), 1, 1)
	f.Add(^uint64(0), uint64(7), 8, 3)
	f.Add(uint64(42), uint64(3), 8, 200000)
	f.Fuzz(func(t *testing.T, seed, keyseed uint64, k, r int) {
		k = 1 + abs(k)%MaxTables
		r = 1 + abs(r)%(1<<20)
		fam := newMixFamily(k, r, seed)
		sm := NewSplitMix64(keyseed)
		n := int(sm.Next() % 70)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = sm.Next() >> (sm.Next() % 64) // mixed magnitudes
		}
		want := fillGoRef(fam, keys)
		got := make([]Slot, n*k)
		fam.FillSlotsBatch(keys, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("K=%d R=%d n=%d: slot %d = %+v, reference %+v", k, r, n, i, got[i], want[i])
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		// Avoid MinInt overflow by folding to a fixed positive value.
		if v == -v {
			return 1
		}
		return -v
	}
	return v
}
