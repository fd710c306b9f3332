package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapSelectsTopK(t *testing.T) {
	h := NewHeap(3)
	scores := []float64{5, 1, 9, 3, 7, 2}
	for i, s := range scores {
		h.Push(uint64(i), s)
	}
	got := h.SortedDesc()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Score != 9 || got[1].Score != 7 || got[2].Score != 5 {
		t.Errorf("top3 = %v", got)
	}
	if got[0].Key != 2 || got[1].Key != 4 || got[2].Key != 0 {
		t.Errorf("keys = %v", got)
	}
}

func TestHeapFewerThanK(t *testing.T) {
	h := NewHeap(10)
	h.Push(1, 1)
	h.Push(2, 2)
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}
	got := h.SortedDesc()
	if len(got) != 2 || got[0].Key != 2 {
		t.Errorf("items = %v", got)
	}
	m, ok := h.Min()
	if !ok || m.Score != 1 {
		t.Errorf("Min = %v, %v", m, ok)
	}
}

func TestHeapEmptyMin(t *testing.T) {
	h := NewHeap(2)
	if _, ok := h.Min(); ok {
		t.Error("Min of empty heap should report !ok")
	}
	if len(h.SortedDesc()) != 0 {
		t.Error("SortedDesc of empty should be empty")
	}
}

func TestHeapZeroCapacityClamped(t *testing.T) {
	h := NewHeap(0)
	h.Push(1, 1)
	h.Push(2, 2)
	if h.Len() != 1 {
		t.Errorf("clamped heap Len = %d, want 1", h.Len())
	}
}

func TestHeapMatchesSortProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		scores := make([]float64, n)
		h := NewHeap(k)
		for i := range scores {
			scores[i] = rng.NormFloat64()
			h.Push(uint64(i), scores[i])
		}
		sorted := append([]float64(nil), scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		got := h.SortedDesc()
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Score != sorted[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrackerRetainsHighScores(t *testing.T) {
	tr := NewTracker(10)
	for i := 0; i < 1000; i++ {
		tr.Offer(uint64(i), float64(i))
	}
	if tr.Len() > 20 {
		t.Errorf("tracker grew to %d, cap*2 = 20", tr.Len())
	}
	top := tr.Top(5, nil)
	if len(top) != 5 || top[0].Key != 999 || top[4].Key != 995 {
		t.Errorf("top = %v", top)
	}
	if tr.Capacity() != 10 {
		t.Errorf("Capacity = %d", tr.Capacity())
	}
}

func TestTrackerUpdatesScore(t *testing.T) {
	tr := NewTracker(4)
	tr.Offer(1, 1)
	tr.Offer(1, 100)
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1 (update, not insert)", tr.Len())
	}
	top := tr.Top(1, nil)
	if top[0].Score != 100 {
		t.Errorf("score = %v, want 100", top[0].Score)
	}
}

func TestTrackerRescore(t *testing.T) {
	tr := NewTracker(4)
	tr.Offer(1, 1)
	tr.Offer(2, 2)
	top := tr.Top(2, func(k uint64) float64 { return -float64(k) })
	if top[0].Key != 1 {
		t.Errorf("rescored top = %v", top)
	}
}

func TestTrackerKeys(t *testing.T) {
	tr := NewTracker(4)
	tr.Offer(7, 1)
	tr.Offer(9, 2)
	var keys []uint64
	tr.Each(func(k uint64, _ float64) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != 2 || keys[0] != 7 || keys[1] != 9 {
		t.Errorf("tracked keys = %v, want [7 9]", keys)
	}
}

func TestTrackerCapacityClamp(t *testing.T) {
	tr := NewTracker(0)
	tr.Offer(1, 1)
	if tr.Capacity() != 1 {
		t.Errorf("Capacity = %d, want 1", tr.Capacity())
	}
}

func TestTrackerPruneKeepsBest(t *testing.T) {
	tr := NewTracker(5)
	// Interleave so pruning happens multiple times; the final top-5 by
	// last-offered score must survive.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tr.Offer(uint64(rng.Intn(100)), rng.Float64())
	}
	// Now give keys 90..94 dominant scores.
	for k := uint64(90); k < 95; k++ {
		tr.Offer(k, 10+float64(k))
	}
	top := tr.Top(5, nil)
	for _, it := range top {
		if it.Key < 90 || it.Key > 94 {
			t.Errorf("dominant key missing from top: %v", top)
			break
		}
	}
}

func BenchmarkHeapPush(b *testing.B) {
	h := NewHeap(1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		h.Push(uint64(i), rng.Float64())
	}
}
