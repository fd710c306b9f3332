package topk

import "repro/internal/hashing"

// BottomK maintains a uniform sample of the *distinct* keys offered to
// it, using the classic bottom-k (KMV) construction: a key is retained
// iff its hashed priority ranks among the k smallest seen. Duplicate
// offers of a key are idempotent, the sample is deterministic given the
// seed, and the k-th smallest priority yields an unbiased estimate of
// the number of distinct keys. The warm-up census uses it so percentile
// ranks stay unbiased when the distinct pair universe exceeds memory.
type BottomK struct {
	k    int
	seed uint64
	// items is a max-heap on priority so the largest retained priority
	// is evictable in O(log k).
	items []bottomKItem
	pos   map[uint64]struct{}
}

type bottomKItem struct {
	key      uint64
	priority uint64
}

// NewBottomK returns a sampler retaining at most k distinct keys (k ≥ 1).
func NewBottomK(k int, seed uint64) *BottomK {
	if k < 1 {
		k = 1
	}
	return &BottomK{k: k, seed: seed, pos: map[uint64]struct{}{}}
}

// Offer presents a key (idempotently).
func (b *BottomK) Offer(key uint64) {
	if _, ok := b.pos[key]; ok {
		return
	}
	pr := hashing.Mix64(key ^ b.seed)
	if len(b.items) < b.k {
		b.pos[key] = struct{}{}
		b.items = append(b.items, bottomKItem{key, pr})
		b.up(len(b.items) - 1)
		return
	}
	if pr >= b.items[0].priority {
		return
	}
	delete(b.pos, b.items[0].key)
	b.pos[key] = struct{}{}
	b.items[0] = bottomKItem{key, pr}
	b.down(0)
}

// Len returns the number of retained keys.
func (b *BottomK) Len() int { return len(b.items) }

// Keys returns the retained keys (unordered).
func (b *BottomK) Keys() []uint64 {
	out := make([]uint64, len(b.items))
	for i, it := range b.items {
		out[i] = it.key
	}
	return out
}

// Saturated reports whether the sampler has evicted (i.e. the sample is
// a strict subset of the distinct keys seen).
func (b *BottomK) Saturated() bool { return len(b.items) == b.k }

// DistinctEstimate estimates the number of distinct keys offered. Below
// saturation it is exact; at saturation it uses the KMV estimator
// (k−1)·2^64/maxPriority.
func (b *BottomK) DistinctEstimate() float64 {
	if !b.Saturated() {
		return float64(len(b.items))
	}
	maxPr := b.items[0].priority
	if maxPr == 0 {
		return float64(len(b.items))
	}
	return float64(b.k-1) * (18446744073709551616.0 / float64(maxPr))
}

func (b *BottomK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.items[parent].priority >= b.items[i].priority {
			return
		}
		b.items[parent], b.items[i] = b.items[i], b.items[parent]
		i = parent
	}
}

func (b *BottomK) down(i int) {
	n := len(b.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && b.items[l].priority > b.items[big].priority {
			big = l
		}
		if r < n && b.items[r].priority > b.items[big].priority {
			big = r
		}
		if big == i {
			return
		}
		b.items[i], b.items[big] = b.items[big], b.items[i]
		i = big
	}
}
