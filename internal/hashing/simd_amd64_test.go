//go:build amd64 && !purego

package hashing

import (
	"testing"
)

// kernelKeys returns n keys mixing random, small structured and
// near-max values, so every lane sees all three kinds.
func kernelKeys(sm *SplitMix64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch i % 3 {
		case 0:
			keys[i] = sm.Next()
		case 1:
			keys[i] = uint64(i)
		default:
			keys[i] = ^uint64(0) - uint64(i)
		}
	}
	return keys
}

// kernelRanges are the table ranges the direct kernel tests cover: tiny,
// non-powers of two, the daemon's sizes, and the largest range the
// vector fastRange supports (2^32 − 1).
var kernelRanges = []uint64{1, 2, 7, 256, 1 << 14, 200000, 1<<31 - 1, 1<<32 - 1}

// checkKernel runs kernel over keys whose count is a multiple of block
// and compares every slot against mixFillSlotsBatchGo.
func checkKernel(t *testing.T, name string, kernel func(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64), f *mixFamily, keys []uint64) {
	t.Helper()
	want := fillGoRef(f, keys)
	got := make([]Slot, len(keys)*f.tables)
	kernel(keys, got, f.bucketSeeds, f.signSeeds, f.rng)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s K=%d R=%d n=%d: slot %d = %+v, reference %+v", name, f.tables, f.rng, len(keys), i, got[i], want[i])
		}
	}
}

// TestMixFillSlotsAVX2MatchesReference calls the AVX2 kernel directly,
// so it keeps its coverage on hosts where the dispatcher hands most
// keys to the AVX-512 kernel.
func TestMixFillSlotsAVX2MatchesReference(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("CPU or OS lacks AVX2: the AVX2 kernel cannot run here")
	}
	sm := NewSplitMix64(0xa2a2)
	for k := 1; k <= 11; k++ {
		for _, r := range kernelRanges {
			f := newMixFamily(k, int(r), sm.Next())
			for _, n := range []int{4, 8, 12, 32, 68} {
				checkKernel(t, "avx2", mixFillSlotsAVX2, f, kernelKeys(sm, n))
			}
		}
	}
}

// TestMixFillSlotsAVX512MatchesReference calls the AVX-512 kernel
// directly for K = 1–8 and ranges up to 2^32 − 1. The dispatcher's
// hand-off to AVX2 quads and the scalar tail is covered by
// TestMixFillSlotsBatchMatchesReference and FuzzMixFillSlotsBatch.
func TestMixFillSlotsAVX512MatchesReference(t *testing.T) {
	if !cpuAVX512 {
		t.Skip("CPU or OS lacks AVX512F/AVX512DQ (or the opmask/ZMM state in XCR0): the AVX-512 kernel cannot run here")
	}
	sm := NewSplitMix64(0x512512)
	for k := 1; k <= 8; k++ {
		for _, r := range kernelRanges {
			f := newMixFamily(k, int(r), sm.Next())
			for _, n := range []int{8, 16, 24, 32, 64, 136} {
				checkKernel(t, "avx512", mixFillSlotsAVX512, f, kernelKeys(sm, n))
			}
		}
	}
}

// BenchmarkMixFillSlots times each slot-fill kernel, called directly,
// on one wave group (32 keys, K = 5), so the stage-1 share of a read
// can be split by kernel. The fill never reads the table, so its cost
// does not depend on R. Reports ns per key.
func BenchmarkMixFillSlots(b *testing.B) {
	kernels := []struct {
		name string
		ok   bool
		fill func(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64)
	}{
		{"go", true, mixFillSlotsBatchGo},
		{"avx2", cpuAVX2, mixFillSlotsAVX2},
		{"avx512", cpuAVX512, mixFillSlotsAVX512},
	}
	f := newMixFamily(5, 200000, 7)
	keys := kernelKeys(NewSplitMix64(1), 32)
	slots := make([]Slot, len(keys)*5)
	for _, kn := range kernels {
		b.Run(kn.name, func(b *testing.B) {
			if !kn.ok {
				b.Skip("kernel not supported on this CPU")
			}
			for i := 0; i < b.N; i++ {
				kn.fill(keys, slots, f.bucketSeeds, f.signSeeds, f.rng)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
		})
	}
}
