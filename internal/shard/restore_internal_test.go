package shard

import (
	"testing"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// TestRestoreKeepsFusedPath pins that Restore wires the row ingest path
// (worker.row) exactly as Manager.start does: the worker has no other
// way to apply a batch.
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
		if w.row == nil {
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
		if w.row == nil {
			t.Fatalf("restored worker %d lost the fused OfferPairs path", i)
		}
	}
}

// TestRowEngineRequired pins that worker construction refuses an engine
// without the row path instead of running without one.
func TestRowEngineRequired(t *testing.T) {
	if _, err := rowEngine(struct{ sketchapi.Snapshotter }{}); err == nil {
		t.Fatal("rowEngine accepted an engine without OfferRow")
	}
}
