package hashing

// CPUFeatures reports the instruction-set extensions the kernels
// detected at startup, as lowercase tags ("avx2", then "avx512f" and
// "avx512dq" when the AVX-512 slot fill is armed, then "bmi2"). Empty
// on architectures or builds (purego) without assembly kernels — the
// benchmark reports record it next to the CPU model so BENCH file
// numbers carry the code path that produced them.
func CPUFeatures() []string {
	var fs []string
	if cpuAVX2 {
		fs = append(fs, "avx2")
	}
	if cpuAVX512 {
		fs = append(fs, "avx512f", "avx512dq")
	}
	if cpuBMI2 {
		fs = append(fs, "bmi2")
	}
	return fs
}

// AVX2 reports whether CPUID, and XGETBV for the OS's YMM state save,
// show AVX2 (always false on builds without assembly kernels). Other
// packages arm their own AVX2 kernels on it.
func AVX2() bool { return cpuAVX2 }
