package shard_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/stream"
)

// TestSnapshotRestoreRoundTrip checkpoints a live manager mid-stream,
// continues the original, restores a twin from disk, feeds it the same
// remainder, and requires bit-identical estimates and retrievals: the
// restored worker state (engine tables, schedule position, candidate
// tracker) is exactly the serialized one, and the op routing is
// deterministic, so the two histories coincide.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const (
		d      = 50
		n      = 1400
		shards = 3
		cut    = 700
	)
	ds := dataset.Simulation(d, n, 0.015, 31)
	samples := samplesOf(ds)
	skCfg := countsketch.Config{Tables: 5, Range: 2048, Seed: 23}

	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: shards, Warmup: 150, Standardize: true, Alpha: 0.01,
		Engine: shard.EngineSpec{Kind: shard.KindASCS, Sketch: skCfg, T: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, _, err := mgr.Ingest(samples[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := mgr.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}

	restored, err := shard.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Step() != cut {
		t.Fatalf("restored Step = %d, want %d", restored.Step(), cut)
	}
	if restored.Warming() {
		t.Fatal("restored manager must not be warming")
	}

	// Continue both histories with the identical remainder.
	for _, m := range []*shard.Manager{mgr, restored} {
		if _, _, err := m.Ingest(samples[cut:]); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	origTop, err := mgr.TopKMagnitude(15)
	if err != nil {
		t.Fatal(err)
	}
	restTop, err := restored.TopKMagnitude(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(origTop) != len(restTop) {
		t.Fatalf("topk lengths differ: %d vs %d", len(origTop), len(restTop))
	}
	for i := range origTop {
		if origTop[i] != restTop[i] {
			t.Fatalf("topk[%d] differs: %+v vs %+v", i, origTop[i], restTop[i])
		}
	}
	for _, p := range origTop {
		oe, err := mgr.EstimateKey(p.Key)
		if err != nil {
			t.Fatal(err)
		}
		re, err := restored.EstimateKey(p.Key)
		if err != nil {
			t.Fatal(err)
		}
		if oe != re {
			t.Fatalf("estimate for key %d differs: %v vs %v", p.Key, oe, re)
		}
	}

	origStats, err := mgr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	restStats, err := restored.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if origStats.Ops != restStats.Ops || origStats.Step != restStats.Step {
		t.Fatalf("stats diverge: %+v vs %+v", origStats, restStats)
	}
}

// TestSnapshotCrashSafety simulates a crash mid-snapshot: blobs from an
// aborted snapshot (plus a stale manifest temp file) must not disturb
// the committed recovery point, and the next successful snapshot must
// garbage-collect them.
func TestSnapshotCrashSafety(t *testing.T) {
	const d, n, shards = 30, 600, 2
	ds := dataset.Simulation(d, n, 0.02, 17)
	samples := samplesOf(ds)
	skCfg := countsketch.Config{Tables: 4, Range: 1024, Seed: 7}
	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: shards,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: skCfg, T: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, _, err := mgr.Ingest(samples[:300]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := mgr.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	// A later snapshot that died partway: truncated blob under a new id,
	// manifest temp file never renamed.
	for _, junk := range []string{"shard-0000-00000000deadbeef.bin", "manifest.json.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := shard.Restore(dir)
	if err != nil {
		t.Fatalf("restore ignored the committed manifest: %v", err)
	}
	if restored.Step() != 300 {
		t.Fatalf("restored Step = %d, want 300", restored.Step())
	}
	restored.Close()

	// The next successful snapshot garbage-collects the aborted blob.
	if _, _, err := mgr.Ingest(samples[300:400]); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000-00000000deadbeef.bin")); !os.IsNotExist(err) {
		t.Fatalf("aborted blob not garbage-collected (stat err: %v)", err)
	}
	restored2, err := shard.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored2.Close()
	if restored2.Step() != 400 {
		t.Fatalf("second restore Step = %d, want 400", restored2.Step())
	}
}

// TestRestoreErrors covers unrecoverable snapshot directories.
func TestRestoreErrors(t *testing.T) {
	if _, err := shard.Restore(t.TempDir()); err == nil {
		t.Fatal("restore of empty dir should fail (no manifest)")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Restore(dir); err == nil {
		t.Fatal("restore of corrupt manifest should fail")
	}
}

// manifestCRCs reads the per-shard blob checksums from a committed
// manifest.
func manifestCRCs(t *testing.T, dir string) []uint32 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Files []struct {
			CRC32C uint32 `json:"crc32c"`
		} `json:"files"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(man.Files))
	for i, f := range man.Files {
		out[i] = f.CRC32C
	}
	return out
}

// TestSnapshotShardFilesDeterministic requires reproducible shard
// files: two managers fed one stream, and a restore-then-continue
// against an uninterrupted run, must write blobs with equal CRC32C.
// The candidate tracker is small enough to prune many times, so the
// check covers the serialized tracker's entry order and prune cuts.
// Both runs ingest the stream in the same two calls: the warm-up
// prefix is the first call's samples, so the split is part of the
// stream's identity.
func TestSnapshotShardFilesDeterministic(t *testing.T) {
	const (
		d      = 50
		n      = 1200
		shards = 2
		cut    = 500
	)
	samples := samplesOf(dataset.Simulation(d, n, 0.015, 41))
	cfg := shard.Config{
		Dim: d, Shards: shards, Warmup: 100, Standardize: true, Alpha: 0.01,
		TrackCandidates: 48,
		Engine: shard.EngineSpec{Kind: shard.KindASCS,
			Sketch: countsketch.Config{Tables: 5, Range: 2048, Seed: 23}, T: n},
	}
	ingest := func(m *shard.Manager, part []stream.Sample) {
		t.Helper()
		if _, _, err := m.Ingest(part); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func(m *shard.Manager, dir string) []uint32 {
		t.Helper()
		if err := m.Snapshot(dir); err != nil {
			t.Fatal(err)
		}
		return manifestCRCs(t, dir)
	}
	run := func() *shard.Manager {
		t.Helper()
		m, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		ingest(m, samples[:cut])
		return m
	}

	a, b := run(), run()
	cutDir := t.TempDir()
	atCut := snapshot(a, cutDir)
	if got := snapshot(b, t.TempDir()); !slices.Equal(got, atCut) {
		t.Fatalf("same stream, different shard files at the cut: CRC32C %08x vs %08x", got, atCut)
	}
	ingest(a, samples[cut:])
	ingest(b, samples[cut:])
	want := snapshot(a, t.TempDir())
	if len(want) != shards {
		t.Fatalf("manifest lists %d files, want %d", len(want), shards)
	}
	if got := snapshot(b, t.TempDir()); !slices.Equal(got, want) {
		t.Fatalf("same stream, different shard files: CRC32C %08x vs %08x", got, want)
	}
	st, err := a.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range st.PerShard {
		if s.Health.TrackerPruned == 0 {
			t.Fatalf("shard %d tracker never pruned; the test would not cover prune order", i)
		}
	}

	restored, err := shard.Restore(cutDir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	ingest(restored, samples[cut:])
	if got := snapshot(restored, t.TempDir()); !slices.Equal(got, want) {
		t.Fatalf("restore+continue differs from the uninterrupted run: CRC32C %08x vs %08x", got, want)
	}
}
