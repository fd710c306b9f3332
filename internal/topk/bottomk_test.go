package topk

import (
	"math"
	"runtime"
	"testing"
)

func TestBottomKBelowCapacityKeepsAll(t *testing.T) {
	b := NewBottomK(100, 1)
	for k := uint64(0); k < 50; k++ {
		b.Offer(k)
		b.Offer(k) // duplicates are idempotent
	}
	if b.Len() != 50 {
		t.Fatalf("Len = %d, want 50", b.Len())
	}
	if b.Saturated() {
		t.Error("should not be saturated")
	}
	if got := b.DistinctEstimate(); got != 50 {
		t.Errorf("DistinctEstimate = %v, want exact 50", got)
	}
	seen := map[uint64]bool{}
	for _, k := range b.Keys() {
		seen[k] = true
	}
	if len(seen) != 50 {
		t.Errorf("keys not distinct: %d", len(seen))
	}
}

func TestBottomKDeterministicSample(t *testing.T) {
	mk := func() []uint64 {
		b := NewBottomK(32, 7)
		for k := uint64(0); k < 10000; k++ {
			b.Offer(k)
		}
		return b.Keys()
	}
	a, c := mk(), mk()
	am := map[uint64]bool{}
	for _, k := range a {
		am[k] = true
	}
	for _, k := range c {
		if !am[k] {
			t.Fatal("sample not deterministic")
		}
	}
	if len(a) != 32 {
		t.Fatalf("sample size %d", len(a))
	}
}

func TestBottomKOrderInvariant(t *testing.T) {
	// The retained set depends only on the key set, not offer order.
	fwd := NewBottomK(16, 3)
	rev := NewBottomK(16, 3)
	const n = 5000
	for k := uint64(0); k < n; k++ {
		fwd.Offer(k)
		rev.Offer(n - 1 - k)
	}
	fm := map[uint64]bool{}
	for _, k := range fwd.Keys() {
		fm[k] = true
	}
	for _, k := range rev.Keys() {
		if !fm[k] {
			t.Fatal("sample depends on offer order")
		}
	}
}

func TestBottomKDistinctEstimateAccuracy(t *testing.T) {
	// KMV with k=512 has relative error ~ 1/sqrt(k) ≈ 4.4%; allow 20%.
	const distinct = 200000
	b := NewBottomK(512, 9)
	for k := uint64(0); k < distinct; k++ {
		b.Offer(k)
	}
	est := b.DistinctEstimate()
	if math.Abs(est-distinct)/distinct > 0.2 {
		t.Errorf("DistinctEstimate = %.0f, want ≈ %d", est, distinct)
	}
}

func TestBottomKUniformity(t *testing.T) {
	// Keys 0..9999: a bottom-1000 sample should cover low and high
	// halves roughly equally (the hash decorrelates key value from
	// priority).
	b := NewBottomK(1000, 11)
	for k := uint64(0); k < 10000; k++ {
		b.Offer(k)
	}
	low := 0
	for _, k := range b.Keys() {
		if k < 5000 {
			low++
		}
	}
	if low < 400 || low > 600 {
		t.Errorf("low-half count = %d, want ≈ 500", low)
	}
}

func TestBottomKCapacityClamp(t *testing.T) {
	b := NewBottomK(0, 1)
	b.Offer(1)
	b.Offer(2)
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

// bottomKSink keeps the sampler under measurement reachable.
var bottomKSink *BottomK

// TestBottomKLargeCapAllocatesNothingUpFront pins the census memory: the
// warm-up's 5M-key cap is a retention bound, not a presized map, so
// building the sampler costs a few hundred bytes rather than ~180 MB.
func TestBottomKLargeCapAllocatesNothingUpFront(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	bottomKSink = NewBottomK(5_000_000, 0xB077)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewBottomK(5_000_000) allocated %d bytes, want < 64 KiB", got)
	}
	// The cap still bounds retention once offers arrive.
	for k := uint64(0); k < 1000; k++ {
		bottomKSink.Offer(k)
	}
	if bottomKSink.Len() != 1000 || bottomKSink.Saturated() {
		t.Fatalf("Len = %d saturated = %v after 1000 distinct offers", bottomKSink.Len(), bottomKSink.Saturated())
	}
}
