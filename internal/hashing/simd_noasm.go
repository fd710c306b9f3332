//go:build !amd64 || purego

package hashing

// No assembly kernels on this build (non-amd64, or the purego tag): the
// portable reference is the only implementation and no CPU features are
// claimed.
var cpuAVX2, cpuAVX512, cpuBMI2 = false, false, false

func mixFillSlotsBatch(keys []uint64, slots []Slot, bseeds, sseeds []uint64, rng uint64) {
	mixFillSlotsBatchGo(keys, slots, bseeds, sseeds, rng)
}
