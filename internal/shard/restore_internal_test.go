package shard

import (
	"bytes"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/stream"
	"repro/internal/topk"
)

// TestRestoreKeepsFusedPath pins that Restore wires the engine
// (worker.eng, which carries the OfferPairs ingest path) exactly as
// Manager.start does: the worker has no other way to apply a batch.
func TestRestoreKeepsFusedPath(t *testing.T) {
	m, err := New(Config{
		Dim: 10,
		Engine: EngineSpec{
			Kind:   KindCS,
			Sketch: countsketch.Config{Tables: 3, Range: 64, Seed: 1},
			T:      100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, w := range m.workers {
		if w.eng == nil {
			t.Fatal("fresh manager worker lacks the fused path (test setup broken)")
		}
	}
	if _, _, err := m.Ingest([]stream.Sample{{Idx: []int{0, 1}, Val: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := m.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, w := range r.workers {
		if w.eng == nil {
			t.Fatalf("restored worker %d lost the fused OfferPairs path", i)
		}
	}
}

// TestTrackerBlobFloor pins the tracker blob's floor trailer: an armed
// floor round-trips, a blob without the trailer (a tracker that never
// pruned, or one written before the floor existed) restores with the
// floor unarmed until the first prune, and a torn trailer fails.
func TestTrackerBlobFloor(t *testing.T) {
	tr := topk.NewTracker(4)
	for k := uint64(1); k <= 9; k++ {
		tr.Offer(k, float64(k))
	}
	tr.Offer(3, 0.5) // tracked entries may sit below the floor
	var blob bytes.Buffer
	if err := writeTracker(&blob, tr); err != nil {
		t.Fatal(err)
	}
	back, err := readTracker(bytes.NewReader(blob.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	wk, ws, _ := tr.Floor()
	if k, s, ok := back.Floor(); !ok || k != wk || s != ws || back.Len() != tr.Len() {
		t.Fatalf("restored floor (%d, %v, %v) with %d entries, want (%d, %v, true) with %d",
			k, s, ok, back.Len(), wk, ws, tr.Len())
	}

	// Without the trailer: the pre-floor layout.
	entries := blob.Bytes()[:blob.Len()-20]
	old, err := readTracker(bytes.NewReader(entries), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := old.Floor(); ok || old.Len() != tr.Len() {
		t.Fatalf("pre-floor blob restored with the floor armed (%v) or %d entries, want unarmed with %d", ok, old.Len(), tr.Len())
	}
	for k := uint64(20); k < 30; k++ {
		old.Offer(k, 100)
	}
	if _, _, ok := old.Floor(); !ok {
		t.Fatal("a pre-floor restore never armed the floor at its first prune")
	}

	// A tracker that never pruned writes the pre-floor bytes exactly.
	small := topk.NewTracker(4)
	small.Offer(1, 1)
	var sb bytes.Buffer
	if err := writeTracker(&sb, small); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 4+16 {
		t.Fatalf("unarmed tracker blob is %d bytes, want 20 (no trailer)", sb.Len())
	}

	if _, err := readTracker(bytes.NewReader(blob.Bytes()[:blob.Len()-3]), 4); err == nil {
		t.Fatal("a torn floor trailer restored")
	}
}
