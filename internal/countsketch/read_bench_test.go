package countsketch

import (
	"fmt"
	"testing"

	"repro/internal/hashing"
)

// BenchmarkEstimateKeys times the K = 5 read path over 16 384 keys of a
// sketch with 200 000 prior inserts, in groups of 32, at R = 2^14
// (cache-resident table) and R = 200 000 (the daemon's per-shard size),
// in four configurations that call the stages directly:
//
//   - scalar: one Estimate per key (the g ≤ 1 reference loop);
//   - touch+median5: LocateBatch, the TouchSlots pass and one
//     median5Slots per key — the read as it ran before the row gather;
//   - median5: LocateBatch and median5Slots per key, no touch pass;
//   - rows+median5: LocateBatch, gatherRows5, then median5 per lane —
//     the row gather without the vector network;
//   - rows: LocateBatch, gatherRows5 and median5Rows (the vector kernel
//     where armed) — EstimateKeys as shipped.
//
// LocateBatch runs whichever slot-fill kernel this CPU arms (named in
// the log line); internal/hashing BenchmarkMixFillSlots times each fill
// kernel alone. Reports ns per key.
func BenchmarkEstimateKeys(b *testing.B) {
	b.Logf("cpu features: %v", hashing.CPUFeatures())
	const nKeys, g = 1 << 14, 32
	for _, r := range []int{1 << 14, 200000} {
		s := MustNew(Config{Tables: 5, Range: r, Seed: 3})
		sm := hashing.NewSplitMix64(9)
		keys := make([]uint64, nKeys)
		for i := 0; i < 200000; i++ {
			key := sm.Next()
			if i < nKeys {
				keys[i] = key // the read rescores keys the sketch was offered
			}
			s.Add(key, float64(int64(sm.Next()%2001)-1000)/7)
		}
		out := make([]float64, nKeys)
		w := NewWave(5, g)
		perKey := func(touch bool) func() {
			return func() {
				for lo := 0; lo < nKeys; lo += g {
					slots := w.Slots(g)
					s.LocateBatch(keys[lo:lo+g], slots)
					if touch {
						w.Sink += s.TouchSlots(slots)
					}
					for i := 0; i < g; i++ {
						out[lo+i] = median5Slots(s.w, slots[5*i:5*i+5]) * s.scale
					}
				}
			}
		}
		rowsScalar := func() {
			for lo := 0; lo < nKeys; lo += g {
				slots := w.Slots(g)
				s.LocateBatch(keys[lo:lo+g], slots)
				rows := w.rows[:5*g]
				gatherRows5(s.w, slots, rows)
				for i := 0; i < g; i++ {
					out[lo+i] = median5(rows[i], rows[g+i], rows[2*g+i], rows[3*g+i], rows[4*g+i]) * s.scale
				}
			}
		}
		arms := []struct {
			name string
			read func()
		}{
			{"scalar", func() { s.EstimateKeys(nil, 1, keys, out) }},
			{"touch+median5", perKey(true)},
			{"median5", perKey(false)},
			{"rows+median5", rowsScalar},
			{"rows", func() { s.EstimateKeys(w, g, keys, out) }},
		}
		for _, arm := range arms {
			b.Run(fmt.Sprintf("R=%d/%s", r, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arm.read()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nKeys), "ns/key")
			})
		}
	}
}
