//go:build amd64 && !purego

package countsketch

import "repro/internal/hashing"

// vecMedian5 arms the AVX2 median-of-5 kernel. The hashing package
// owns the CPU detection (CPUID + XGETBV, including the OS YMM
// state-save check).
var vecMedian5 = hashing.AVX2()

// median5RowsAVX2 writes the median of each lane's five row values to
// out and reports whether any lane was flagged for the scalar rule
// (those with a NaN input or a zero median; they hold a NaN). len(out)
// is a nonzero multiple of 4, at most stride; rows holds 5·stride
// values. Implemented in median_amd64.s.
//
//go:noescape
func median5RowsAVX2(rows []float64, stride int, out []float64) bool
