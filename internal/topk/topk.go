// Package topk provides bounded top-k selection utilities: a one-shot
// min-heap for selecting the k largest-scored keys from a scan, and an
// updatable bounded tracker used to keep retrieval candidates when the
// pair universe is too large to enumerate (Table 2 scale).
package topk

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/hashing"
	"repro/internal/sketchapi"
)

// Item pairs a key with a score.
type Item struct {
	Key   uint64
	Score float64
}

// Heap selects the k items with the largest scores from a stream of
// Push calls. The zero value is unusable; construct with NewHeap.
type Heap struct {
	k     int
	items []Item // min-heap ordered by Score
}

// NewHeap returns a selector for the k largest scores (k ≥ 1). The
// initial capacity reservation is bounded: k is a retention limit, not
// a promise of k pushes, so a huge k must not preallocate huge memory.
func NewHeap(k int) *Heap {
	if k < 1 {
		k = 1
	}
	reserve := k
	if reserve > 4096 {
		reserve = 4096
	}
	return &Heap{k: k, items: make([]Item, 0, reserve)}
}

// Push offers an item; it is retained only if it ranks in the current
// top k.
func (h *Heap) Push(key uint64, score float64) {
	if len(h.items) < h.k {
		h.items = append(h.items, Item{key, score})
		h.up(len(h.items) - 1)
		return
	}
	if score <= h.items[0].Score {
		return
	}
	h.items[0] = Item{key, score}
	h.down(0)
}

// Len returns the number of retained items (≤ k).
func (h *Heap) Len() int { return len(h.items) }

// Min returns the smallest retained score (the admission bar once full).
func (h *Heap) Min() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

// SortedDesc returns the retained items ordered by descending score,
// consuming nothing (the heap remains valid).
func (h *Heap) SortedDesc() []Item {
	out := append([]Item(nil), h.items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Score <= h.items[i].Score {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].Score < h.items[small].Score {
			small = l
		}
		if r < n && h.items[r].Score < h.items[small].Score {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// Tracker is a bounded map from key to latest score that retains
// (approximately) the highest-scored keys seen. Scores may be updated;
// when the tracker exceeds twice its capacity it prunes to the capacity
// highest scores. It backs candidate retrieval for huge pair universes,
// where keys that ever pass the ASCS gate are the only plausible heavy
// hitters.
//
// The layout is flat: a dense entry slice holding every tracked
// (key, raw score) pair, plus a power-of-two open-addressed index of
// int32 positions into it (linear probing on Mix64(key), 0 = empty
// slot) with at least four slots per unit of capacity, so the load
// factor stays at or below one half even just before a prune. Offer
// updates an entry in place or appends one; prune selects the
// survivors in place (quickselect under ranksAbove), truncates the
// slice and rebuilds the index. Nothing allocates after NewTracker.
//
// For exponential-decay serving the tracker supports O(1) aging: Decay
// multiplies every retained score by a factor lazily (a global scale,
// exactly like the count sketch's lazy decay), so candidates that stop
// being offered sink relative to fresh ones and eventually prune out —
// admitted pairs age out of top-k instead of squatting forever.
type Tracker struct {
	cap     int
	entries []trackEntry // dense; len ≤ 2·cap between calls
	index   []int32      // entry position + 1 per slot; 0 = empty
	mask    uint64       // len(index) - 1

	scale float64 // lazy decay accumulator
	inv   float64 // 1/scale, applied on Offer

	pruned uint64 // cumulative keys evicted by prune (churn telemetry)
}

// trackEntry is one tracked key; its logical score is score · scale.
type trackEntry struct {
	key   uint64
	score float64
}

// trackerRenormFloor is the shared lazy-decay renormalization floor:
// fold the lazy scale into the raw scores before it underflows.
const trackerRenormFloor = sketchapi.RenormFloor

// maxTrackerCapacity keeps 2·capacity+1 entry positions within the
// int32 index.
const maxTrackerCapacity = 1 << 29

// NewTracker returns a tracker retaining roughly capacity keys (≥ 1).
func NewTracker(capacity int) *Tracker {
	capacity = max(1, min(capacity, maxTrackerCapacity))
	slots := 1 << bits.Len(uint(4*capacity-1))
	return &Tracker{
		cap:     capacity,
		entries: make([]trackEntry, 0, 2*capacity+1),
		index:   make([]int32, slots),
		mask:    uint64(slots - 1),
		scale:   1,
		inv:     1,
	}
}

// lookup returns the index slot for key and the entry position stored
// there plus one: 0 means key is untracked and slot is where it goes.
func (t *Tracker) lookup(key uint64) (slot uint64, pos int32) {
	slot = hashing.Mix64(key) & t.mask
	for {
		pos = t.index[slot]
		if pos == 0 || t.entries[pos-1].key == key {
			return slot, pos
		}
		slot = (slot + 1) & t.mask
	}
}

// Offer records (or refreshes) the score for key.
func (t *Tracker) Offer(key uint64, score float64) {
	raw := score * t.inv
	slot, pos := t.lookup(key)
	if pos != 0 {
		t.entries[pos-1].score = raw
		return
	}
	t.entries = append(t.entries, trackEntry{key, raw})
	t.index[slot] = int32(len(t.entries))
	if len(t.entries) > 2*t.cap {
		t.prune()
	}
}

// Decay multiplies every retained score by f ∈ (0,1] in O(1) via the
// lazy scale accumulator. Decay(1) is an exact no-op; relative order of
// retained scores never changes, only their weight against future
// offers.
func (t *Tracker) Decay(f float64) {
	if f == 1 {
		return
	}
	t.scale *= f
	if t.scale < trackerRenormFloor {
		for i := range t.entries {
			t.entries[i].score *= t.scale
		}
		t.scale, t.inv = 1, 1
		return
	}
	t.inv = 1 / t.scale
}

// Len returns the number of tracked keys.
func (t *Tracker) Len() int { return len(t.entries) }

// Capacity returns the configured retention target.
func (t *Tracker) Capacity() int { return t.cap }

// Each invokes fn for every tracked (key, score) entry, with scores in
// logical (decayed) units (serialization and diagnostics; do not
// mutate during iteration). The order is unspecified but deterministic:
// the same sequence of calls on two trackers visits the same order.
func (t *Tracker) Each(fn func(key uint64, score float64)) {
	for _, e := range t.entries {
		fn(e.key, e.score*t.scale)
	}
}

// Top returns the k highest-scored tracked keys, rescored by rescore if
// non-nil (e.g. the final sketch estimates), in descending order.
// Without a rescore the retained scores are reported in logical
// (decayed) units.
func (t *Tracker) Top(k int, rescore func(uint64) float64) []Item {
	h := NewHeap(k)
	for _, e := range t.entries {
		sc := e.score
		if rescore != nil {
			sc = rescore(e.key)
		} else {
			sc *= t.scale
		}
		h.Push(e.key, sc)
	}
	return h.SortedDesc()
}

// prune keeps the cap highest-ranked entries under rankOrder and
// re-indexes them, in place. On distinct scores the survivors are the
// cap highest scores; ties at the cut go to the smaller key.
func (t *Tracker) prune() {
	selectTop(t.entries, t.cap, 8*len(t.entries))
	t.pruned += uint64(len(t.entries) - t.cap)
	t.entries = t.entries[:t.cap]
	clear(t.index)
	for i, e := range t.entries {
		slot, _ := t.lookup(e.key)
		t.index[slot] = int32(i + 1)
	}
}

// Pruned returns the cumulative number of keys evicted by pruning —
// the top-k churn signal: how many once-admitted candidates have been
// displaced by fresher or heavier ones.
func (t *Tracker) Pruned() uint64 { return t.pruned }

// ranksAbove is the strict total order prune selects under: higher
// score first, NaN below every number (±Inf rank by value), and the
// smaller key first among equal scores (+0 and -0 are equal). Tracked
// keys are distinct, so no two entries tie.
func ranksAbove(a, b trackEntry) bool {
	switch {
	case a.score > b.score:
		return true
	case a.score < b.score:
		return false
	case a.score == b.score:
		return a.key < b.key
	}
	if an, bn := math.IsNaN(a.score), math.IsNaN(b.score); an != bn {
		return bn
	}
	return a.key < b.key
}

// rankOrder is ranksAbove as a slices.SortFunc comparison.
func rankOrder(a, b trackEntry) int {
	switch {
	case ranksAbove(a, b):
		return -1
	case ranksAbove(b, a):
		return 1
	}
	return 0
}

// selectTop reorders es so that es[:k] holds its k highest-ranked
// entries (in no particular order). It is quickselect with a
// median-of-three pivot. budget caps the entries its partitions may
// scan in total (random input needs about 3·len(es)); past it the
// remaining range is sorted outright, which bounds adversarial inputs
// at O(n log n).
func selectTop(es []trackEntry, k, budget int) {
	lo, hi := 0, len(es)
	if k <= 0 || k >= hi {
		return
	}
	// Invariant: es[:lo] ranks above es[lo:hi], which ranks above
	// es[hi:], and lo ≤ k ≤ hi.
	for hi-lo > 12 {
		if budget < hi-lo {
			slices.SortFunc(es[lo:hi], rankOrder)
			return
		}
		budget -= hi - lo
		p := partition(es, lo, hi)
		switch {
		case p < k-1:
			lo = p + 1
		case p > k:
			hi = p
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && ranksAbove(es[j], es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// partition splits es[lo:hi] around a pivot and returns the pivot's
// final position p: es[lo:p] ranks above es[p], which ranks above
// es[p+1:hi]. The pivot is the median of three positions drawn by
// hashing (lo, hi). Drawn rather than fixed positions keep structured
// input, such as the last prune's survivors ahead of fresh entries,
// from skewing every split, and the draw is a pure function of the
// range, so the selection stays deterministic.
func partition(es []trackEntry, lo, hi int) int {
	n := uint64(hi - lo)
	h := hashing.Mix64(uint64(lo)<<32 ^ uint64(hi))
	m := median3(es, lo+int(h%n), lo+int((h>>21)%n), lo+int((h>>42)%n))
	last := hi - 1
	es[m], es[last] = es[last], es[m]
	pivot := es[last]
	p := lo
	for j := lo; j < last; j++ {
		// Swap unconditionally and advance conditionally: the compare
		// is a coin flip on random input, so this beats a branchy swap.
		e := es[j]
		es[j] = es[p]
		es[p] = e
		if ranksAbove(e, pivot) {
			p++
		}
	}
	es[p], es[last] = es[last], es[p]
	return p
}

// median3 returns whichever of positions a, b, c holds the median
// entry under ranksAbove.
func median3(es []trackEntry, a, b, c int) int {
	if ranksAbove(es[b], es[a]) {
		a, b = b, a
	}
	if ranksAbove(es[c], es[b]) {
		b = c
		if ranksAbove(es[c], es[a]) {
			b = a
		}
	}
	return b
}
