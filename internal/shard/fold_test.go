package shard

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/countsketch"
	"repro/internal/obs"
	"repro/internal/stream"
)

// newFoldManager builds a small CS manager (no warm-up) whose fold
// behavior the tests below drive directly.
func newFoldManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	cfg.Dim = 24
	if cfg.Engine.Kind == "" {
		cfg.Engine = EngineSpec{
			Kind:   KindCS,
			Sketch: countsketch.Config{Tables: 3, Range: 1024, Seed: 31},
			T:      100_000,
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func foldSamples(n int) []stream.Sample {
	out := make([]stream.Sample, n)
	for i := range out {
		a := i % 21
		out[i] = stream.Sample{Idx: []int{a, a + 1, a + 2}, Val: []float64{1, -2, 3}}
	}
	return out
}

// waitFoldLevel polls the published per-shard fold levels until the
// manager-wide max reaches want (or the deadline passes).
func waitFoldLevel(t *testing.T, m *Manager, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.MaxShardFoldLevel() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fold level never reached %d (at %d)", want, m.MaxShardFoldLevel())
}

// TestIdleFoldPolicy drives the elastic-memory lifecycle end to end:
// quiet shards fold after the configured idle ticks, folded shards keep
// answering queries, and the first ingest batch unfolds them.
func TestIdleFoldPolicy(t *testing.T) {
	m := newFoldManager(t, Config{
		Shards:        2,
		FoldIdle:      5 * time.Millisecond,
		FoldIdleTicks: 1,
		FoldLevels:    2,
	})
	if _, _, err := m.Ingest(foldSamples(200)); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := m.TopKMagnitude(5)
	if err != nil {
		t.Fatal(err)
	}

	// Idle: both shards must fold to level 2.
	waitFoldLevel(t, m, 2)

	// Folded shards still serve; unfold-by-replication means the folded
	// estimates are exactly what post-unfold estimates will be.
	folded, err := m.TopKMagnitude(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) != len(before) {
		t.Fatalf("folded top-k returned %d pairs, want %d", len(folded), len(before))
	}
	for i, p := range folded {
		if math.IsNaN(p.Estimate) || math.IsInf(p.Estimate, 0) {
			t.Fatalf("folded top-k[%d] non-finite: %+v", i, p)
		}
	}

	// Ingest unfolds on the first batch; the published level returns to 0.
	if _, _, err := m.Ingest(foldSamples(50)); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.MaxShardFoldLevel(); got != 0 {
		t.Fatalf("fold level %d after ingest, want 0", got)
	}

	st, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var folds, unfolds uint64
	for _, sh := range st.PerShard {
		folds += sh.Health.Folds
		unfolds += sh.Health.Unfolds
	}
	if folds == 0 || unfolds == 0 {
		t.Fatalf("fold lifecycle counters: folds=%d unfolds=%d, want both > 0", folds, unfolds)
	}
}

// TestSnapshotFoldShrink pins the headline economy: a SnapshotFold=2
// deployment writes snapshots at least 2× smaller than the full-
// resolution form of the same state, the folded snapshot restores, and
// the restored manager unfolds on its first ingest batch.
func TestSnapshotFoldShrink(t *testing.T) {
	const fold = 2
	full := newFoldManager(t, Config{Shards: 2})
	folded := newFoldManager(t, Config{Shards: 2, SnapshotFold: fold})
	for _, m := range []*Manager{full, folded} {
		if _, _, err := m.Ingest(foldSamples(300)); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fullDir, foldDir := t.TempDir(), t.TempDir()
	if err := full.Snapshot(fullDir); err != nil {
		t.Fatal(err)
	}
	if err := folded.Snapshot(foldDir); err != nil {
		t.Fatal(err)
	}
	fb, pb := full.LastSnapshotBytes(), folded.LastSnapshotBytes()
	if fb == 0 || pb == 0 {
		t.Fatalf("snapshot byte gauges unset: full=%d folded=%d", fb, pb)
	}
	if ratio := float64(fb) / float64(pb); ratio < 2 {
		t.Fatalf("SnapshotFold=%d shrink only %.2fx (full %d B, folded %d B), want ≥ 2x", fold, ratio, fb, pb)
	}
	if full.Snapshots() != 1 || folded.Snapshots() != 1 {
		t.Fatalf("snapshot counters: %d / %d, want 1 / 1", full.Snapshots(), folded.Snapshots())
	}

	restored, err := Restore(foldDir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.MaxShardFoldLevel(); got != fold {
		t.Fatalf("restored fold level %d, want %d", got, fold)
	}
	// The folded restore serves, and the first ingest unfolds it.
	if _, err := restored.TopKMagnitude(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := restored.Ingest(foldSamples(50)); err != nil {
		t.Fatal(err)
	}
	if err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := restored.MaxShardFoldLevel(); got != 0 {
		t.Fatalf("restored manager still folded at level %d after ingest", got)
	}
	if restored.Step() != full.Step()+50 {
		t.Fatalf("restored Step = %d, want %d", restored.Step(), full.Step()+50)
	}
}

// TestTelemetryBaselinePersistence is the satellite-1 contract: the
// manifest carries the cumulative telemetry baselines, a restored
// manager resumes them (monotonic counters across restore), and a
// second snapshot never reports less than the first.
func TestTelemetryBaselinePersistence(t *testing.T) {
	// A 4-key tracker over the ~60 keys of foldSamples prunes and
	// refuses, so its counters have a baseline to carry.
	m := newFoldManager(t, Config{Shards: 2, TrackCandidates: 4})
	if _, _, err := m.Ingest(foldSamples(200)); err != nil {
		t.Fatal(err)
	}
	// Two zero increments, so the zero counter has a baseline to carry.
	if _, _, err := m.Ingest([]stream.Sample{{Idx: []int{0, 1, 2}, Val: []float64{0, 1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// Manager-level robustness counters: set directly (driving real
	// sheds needs a parked worker; the persistence contract is the same).
	m.shedRequests.Store(7)
	m.deadlineOps.Store(11)
	m.deadlineQueries.Store(3)

	dir := t.TempDir()
	if err := m.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Telemetry *telemetryBaseline `json:"telemetry"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.Telemetry == nil {
		t.Fatal("manifest carries no telemetry baseline block")
	}
	if man.Telemetry.ShedRequests != 7 || man.Telemetry.DeadlineOps != 11 || man.Telemetry.DeadlineQueries != 3 {
		t.Fatalf("manifest baselines %+v, want shed=7 deadlineOps=11 deadlineQueries=3", man.Telemetry)
	}
	var batches, zeros uint64
	for _, sb := range man.Telemetry.Shards {
		batches += sb.Batches
		zeros += sb.ZeroIncrements
		if sb.TrackerRefused == 0 || sb.TrackerPruned <= sb.TrackerRefused {
			t.Fatalf("manifest tracker baseline pruned=%d refused=%d, want 0 < refused < pruned", sb.TrackerPruned, sb.TrackerRefused)
		}
	}
	if batches == 0 {
		t.Fatal("manifest shard baselines carry no applied batches")
	}
	if zeros != 2 {
		t.Fatalf("manifest shard baselines carry %d zero increments, want 2", zeros)
	}

	restored, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	adm := restored.AdmissionState()
	if adm.ShedRequests != 7 || adm.DeadlineOps != 11 || adm.DeadlineQueries != 3 {
		t.Fatalf("restored admission counters %+v, want the snapshotted baselines", adm)
	}
	// The tracker counters resume from the baseline, in the stats and
	// in the published /metrics slots alike.
	st, err := restored.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i, sb := range man.Telemetry.Shards {
		h := st.PerShard[i].Health
		if h.TrackerPruned != sb.TrackerPruned || h.TrackerRefused != sb.TrackerRefused {
			t.Fatalf("shard %d restored tracker counters %d/%d, want the baseline %d/%d",
				i, h.TrackerPruned, h.TrackerRefused, sb.TrackerPruned, sb.TrackerRefused)
		}
		if z := st.PerShard[i].ZeroIncrements; z != sb.ZeroIncrements {
			t.Fatalf("shard %d restored zero increments %d, want the baseline %d", i, z, sb.ZeroIncrements)
		}
		tel := &restored.Tel(i).Snap
		if got := tel.Load(obs.ShardTrackerPruned); got != sb.TrackerPruned {
			t.Fatalf("shard %d published pruned total %d after restore, want %d", i, got, sb.TrackerPruned)
		}
		if got := tel.Load(obs.ShardTrackerRefused); got != sb.TrackerRefused {
			t.Fatalf("shard %d published refused total %d after restore, want %d", i, got, sb.TrackerRefused)
		}
	}

	// Monotonicity: more traffic, second snapshot, baselines only grow.
	if _, _, err := restored.Ingest(foldSamples(100)); err != nil {
		t.Fatal(err)
	}
	if err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := restored.Snapshot(dir2); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(filepath.Join(dir2, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man2 struct {
		Telemetry *telemetryBaseline `json:"telemetry"`
	}
	if err := json.Unmarshal(raw2, &man2); err != nil {
		t.Fatal(err)
	}
	var batches2 uint64
	for i, sb := range man2.Telemetry.Shards {
		batches2 += sb.Batches
		if first := man.Telemetry.Shards[i]; sb.TrackerPruned < first.TrackerPruned || sb.TrackerRefused < first.TrackerRefused {
			t.Fatalf("shard %d tracker baseline fell across restore: %d/%d then %d/%d",
				i, first.TrackerPruned, first.TrackerRefused, sb.TrackerPruned, sb.TrackerRefused)
		}
	}
	if batches2 <= batches {
		t.Fatalf("batch baseline not monotonic across restore: %d then %d", batches, batches2)
	}
}

// TestFoldPolicyIngestAllocFree pins the elastic-memory acceptance
// bar: arming the idle-fold policy must cost the steady-state ingest
// path nothing — the routing path stays allocation-free with the fold
// ticker live (a long idle window keeps it from firing mid-measure;
// the armed-policy bookkeeping, the quiet-tick reset and the
// unfold-on-ingest check, is what this measures).
func TestFoldPolicyIngestAllocFree(t *testing.T) {
	m := newFoldManager(t, Config{
		Shards:        2,
		FoldIdle:      time.Hour,
		FoldIdleTicks: 2,
		FoldLevels:    3,
	})
	batch := foldSamples(8)
	for i := 0; i < 50; i++ {
		if _, _, err := m.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := m.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	})
	// Same allowance as TestRouteStagingReuse: the routing path itself
	// is allocation-free; the slack absorbs worker-side noise that
	// AllocsPerRun's global counters pick up.
	if avg > 3 {
		t.Fatalf("fold-policy ingest steady state allocates %.1f times per call, want 0", avg)
	}
}

// TestTopKMemo pins the estimate cache: a repeated folded-tolerant
// top-k is served from the memo, and any ingest or flush invalidates it.
func TestTopKMemo(t *testing.T) {
	m := newFoldManager(t, Config{Shards: 2})
	if _, _, err := m.Ingest(foldSamples(200)); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	first, cached, err := m.TopKCachedT(ctx, 5, "", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first query reported cached")
	}
	second, cached, err := m.TopKCachedT(ctx, 5, "", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("repeat query missed the memo")
	}
	if len(first) != len(second) {
		t.Fatalf("memo result differs: %d vs %d pairs", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("memo pair %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}

	// A different shape misses.
	if _, cached, err = m.TopKCachedT(ctx, 3, "", true, nil); err != nil || cached {
		t.Fatalf("k=3 after k=5: cached=%v err=%v, want fresh fan-out", cached, err)
	}

	// Ingest invalidates.
	if _, _, err := m.Ingest(foldSamples(30)); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, cached, err = m.TopKCachedT(ctx, 3, "", true, nil); err != nil || cached {
		t.Fatalf("post-ingest query: cached=%v err=%v, want invalidated", cached, err)
	}
	if _, cached, err = m.TopKCachedT(ctx, 3, "", true, nil); err != nil || !cached {
		t.Fatalf("repeat after rewarm: cached=%v err=%v, want hit", cached, err)
	}

	// Flush invalidates even with no new samples.
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, cached, err = m.TopKCachedT(ctx, 3, "", true, nil); err != nil || cached {
		t.Fatalf("post-flush query: cached=%v err=%v, want invalidated", cached, err)
	}

	// The plain uncached path must never report a memo hit but still
	// warm the memo for folded-tolerant readers.
	if _, err := m.TopKMagnitude(7); err != nil {
		t.Fatal(err)
	}
	if _, cached, err = m.TopKCachedT(ctx, 7, "", true, nil); err != nil || !cached {
		t.Fatalf("memo not warmed by the uncached path: cached=%v err=%v", cached, err)
	}
}
