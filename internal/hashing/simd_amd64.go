//go:build amd64 && !purego

package hashing

// cpuAVX2, cpuAVX512 and cpuBMI2 record the CPU-feature detection made
// once at package init (CPUID + XGETBV; see cpu_amd64.s). cpuAVX2 arms
// the AVX2 slot-fill kernel and cpuAVX512 (AVX512F and AVX512DQ, with
// the OS saving opmask and ZMM state) the AVX-512 one. No kernel needs
// BMI2; it is detected only so benchmarks can record it (CPUFeatures).
var cpuAVX2, cpuAVX512, cpuBMI2 = detectFeatures()

// mixFillSlotsBatch dispatches the mix family's batch slot fill: blocks
// of 8 keys go through the AVX-512 kernel, then quads through the AVX2
// kernel, and the ≤ 3 remaining keys (every key when neither kernel is
// armed) through the portable reference.
//
// The vector fastRange computes hi64(h·R) with two 32×32-bit products,
// which is exact only for R < 2^32 (any practical table: 2^32 buckets
// is a 32 GiB table). Larger ranges — and the purego build — take the
// reference kernel unconditionally.
func mixFillSlotsBatch(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64) {
	if rng < 1<<32 {
		k := len(bseeds)
		if cpuAVX512 && len(keys) >= 8 {
			o := len(keys) &^ 7
			mixFillSlotsAVX512(keys[:o], slots[:o*k], bseeds, sseeds, rng)
			keys = keys[o:]
			slots = slots[o*k:]
		}
		if cpuAVX2 && len(keys) >= 4 {
			q := len(keys) &^ 3
			mixFillSlotsAVX2(keys[:q], slots[:q*k], bseeds, sseeds, rng)
			keys = keys[q:]
			slots = slots[q*k:]
		}
	}
	mixFillSlotsBatchGo(keys, slots, bseeds, sseeds, rng)
}

// mixFillSlotsAVX2 fills slots for len(keys) keys (a multiple of 4,
// ≥ 4) across K = len(bseeds) tables, bit-identically to
// mixFillSlotsBatchGo. Requires AVX2 and rng < 2^32. Implemented in
// slotfill_amd64.s.
//
//go:noescape
func mixFillSlotsAVX2(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64)

// mixFillSlotsAVX512 is mixFillSlotsAVX2 for len(keys) a multiple of 8
// (≥ 8), eight keys per iteration. Requires AVX512F+DQ (with the OS
// state checks of detectFeatures) and rng < 2^32. Implemented in
// slotfill_amd64.s.
//
//go:noescape
func mixFillSlotsAVX512(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64)

// cpuid executes CPUID with the given leaf/subleaf. Implemented in
// cpu_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE). Implemented in cpu_amd64.s.
func xgetbv0() (eax, edx uint32)

// detectFeatures checks for AVX2 and for AVX512F+DQ, each including the
// OS state-save support its kernel relies on, and for BMI2.
func detectFeatures() (avx2, avx512, bmi2 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	_, b7, _, _ := cpuid(7, 0)
	bmi2 = b7&(1<<8) != 0
	if c1&osxsave == 0 || c1&avx == 0 {
		return false, false, bmi2
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM state on context
	// switch. Without them, executing the kernels would corrupt other
	// threads' registers. AVX-512 also needs bits 5–7 (opmask, the upper
	// halves of ZMM0–15, and ZMM16–31).
	xl, _ := xgetbv0()
	if xl&0x6 != 0x6 {
		return false, false, bmi2
	}
	avx2 = b7&(1<<5) != 0
	const avx512f, avx512dq = 1 << 16, 1 << 17
	avx512 = b7&avx512f != 0 && b7&avx512dq != 0 && xl&0xE6 == 0xE6
	return avx2, avx512, bmi2
}
