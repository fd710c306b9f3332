//go:build !amd64 || purego

package countsketch

// No assembly on this build (non-amd64, or the purego tag): every
// median-of-5 lane takes median5.
const vecMedian5 = false

func median5RowsAVX2(rows []float64, stride int, out []float64) bool {
	panic("countsketch: median5RowsAVX2 without assembly")
}
