package topk

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hashing"
)

// refTop is Top as it was before the batch form: one rescore call per
// entry in entry order, each pushed straight into the heap. It is the
// differential reference of TopBatch and of the Top adapter.
func refTop(t *Tracker, k int, rescore func(uint64) float64) []Item {
	h := NewHeap(k)
	t.Each(func(key uint64, sc float64) {
		if rescore != nil {
			sc = rescore(key)
		}
		h.Push(key, sc)
	})
	return h.SortedDesc()
}

// batchOf lifts a per-key score into TopBatch's chunk rescore.
func batchOf(f func(uint64) float64) func([]uint64, []float64) {
	return func(keys []uint64, scores []float64) {
		for i, key := range keys {
			scores[i] = f(key)
		}
	}
}

// tieScores are the rescore functions of the differential: tie-heavy
// (all +0, +0/−0 mixed, three duplicate values), NaN/±Inf, and
// distinct scores.
var tieScores = map[string]func(uint64) float64{
	"zero": func(uint64) float64 { return 0 },
	"signed-zero": func(key uint64) float64 {
		if hashing.Mix64(key)&1 == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	},
	"duplicates": func(key uint64) float64 { return float64(hashing.Mix64(key) % 3) },
	"nan-inf": func(key uint64) float64 {
		switch hashing.Mix64(key) % 5 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return float64(key % 4)
	},
	"distinct": rescoreByKey,
}

// TestTopBatchMatchesScalar pins the batch Top to the per-key loop:
// for tracker sizes on both sides of the chunk length and of k, every
// rescore above, and the no-rescore (logical score) read under decay,
// TopBatch and the Top adapter return the reference's items in the
// same order with equal bits.
func TestTopBatchMatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, 7, topChunk - 1, topChunk, topChunk + 1, 700, 2048} {
		tr := NewTracker(1024)
		for i := 0; i < n; i++ {
			tr.Offer(hashing.Mix64(uint64(i)), float64(i%13))
		}
		tr.Decay(0.5)
		for _, k := range []int{1, 5, 100, 4096} {
			label := fmt.Sprintf("n=%d k=%d", n, k)
			want := refTop(tr, k, nil)
			if got := tr.TopBatch(k, nil); !itemsEqual(got, want) {
				t.Fatalf("%s no rescore: TopBatch %v, reference %v", label, got, want)
			}
			if got := tr.Top(k, nil); !itemsEqual(got, want) {
				t.Fatalf("%s no rescore: Top %v, reference %v", label, got, want)
			}
			// A rescore that writes nothing sees the logical scores.
			if got := tr.TopBatch(k, func([]uint64, []float64) {}); !itemsEqual(got, want) {
				t.Fatalf("%s identity rescore: TopBatch %v, reference %v", label, got, want)
			}
			for name, f := range tieScores {
				want := refTop(tr, k, f)
				if got := tr.TopBatch(k, batchOf(f)); !itemsEqual(got, want) {
					t.Fatalf("%s %s: TopBatch %v, reference %v", label, name, got, want)
				}
				if got := tr.Top(k, f); !itemsEqual(got, want) {
					t.Fatalf("%s %s: Top %v, reference %v", label, name, got, want)
				}
			}
		}
	}
}

// TestTopBatchChunks checks the chunk contract: every tracked key is
// rescored exactly once, in entry order, in chunks of at most
// topChunk keys.
func TestTopBatchChunks(t *testing.T) {
	tr := NewTracker(512)
	for i := 0; i < 1000; i++ {
		tr.Offer(uint64(i), float64(i))
	}
	var order []uint64
	tr.Each(func(key uint64, _ float64) { order = append(order, key) })
	var seen []uint64
	tr.TopBatch(3, func(keys []uint64, scores []float64) {
		if len(keys) == 0 || len(keys) > topChunk || len(scores) != len(keys) {
			t.Fatalf("chunk of %d keys, %d scores", len(keys), len(scores))
		}
		seen = append(seen, keys...)
	})
	if fmt.Sprint(seen) != fmt.Sprint(order) {
		t.Fatalf("rescored %d keys out of entry order", len(seen))
	}
}

// TestTopBatchAllocs pins TopBatch at the allocations of the k-sized
// heap and its sorted result alone: the rescore chunk is the
// tracker's own, so the read allocates nothing per tracked key.
func TestTopBatchAllocs(t *testing.T) {
	const k = 100
	tr := NewTracker(1024)
	for i := 0; i < 2048; i++ {
		tr.Offer(hashing.Mix64(uint64(i)), float64(i))
	}
	heapOnly := testing.AllocsPerRun(50, func() {
		h := NewHeap(k)
		for i := 0; i < k; i++ {
			h.Push(uint64(i), float64(i))
		}
		h.SortedDesc()
	})
	rescore := batchOf(rescoreByKey)
	if got := testing.AllocsPerRun(50, func() { tr.TopBatch(k, rescore) }); got > heapOnly {
		t.Fatalf("TopBatch allocates %.1f per call; the k-sized heap alone takes %.1f", got, heapOnly)
	}
}
