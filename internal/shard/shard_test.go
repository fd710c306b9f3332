package shard_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/dataset"
	"repro/internal/pairs"
	"repro/internal/shard"
	"repro/internal/stream"
)

// spec2Engine builds the serial reference engine for an ASCS spec.
func spec2Engine(sp shard.EngineSpec) (*core.Engine, error) {
	return core.NewEngine(sp.Sketch, sp.Schedule, !sp.OneSided)
}

// samplesOf converts a materialized dataset into sparse samples.
func samplesOf(ds *dataset.Dataset) []stream.Sample {
	out := make([]stream.Sample, len(ds.Rows))
	for i, r := range ds.Rows {
		out[i] = stream.FromDense(r)
	}
	return out
}

// keySet extracts the pair keys of a retrieval.
func keySet(ps []shard.PairEstimate) map[uint64]bool {
	out := make(map[uint64]bool, len(ps))
	for _, p := range ps {
		out[p.Key] = true
	}
	return out
}

// TestShardedCSMatchesSerial drives the same deterministic stream
// through a 4-shard CS manager and a serial covstream estimator with an
// identical sketch configuration. Linearity makes the merged shard
// sketch equal the serial sketch exactly (up to float summation order),
// and shard-local estimates agree within collision-noise tolerance.
func TestShardedCSMatchesSerial(t *testing.T) {
	const (
		d      = 60
		n      = 1200
		shards = 4
	)
	ds := dataset.Simulation(d, n, 0.01, 7)
	samples := samplesOf(ds)
	skCfg := countsketch.Config{Tables: 5, Range: 8192, Seed: 11}

	eng, err := countsketch.NewMeanSketch(skCfg, n)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := covstream.New(covstream.Config{
		Dim: d, T: n, Engine: eng, TrackCandidates: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := serial.Observe(s); err != nil {
			t.Fatal(err)
		}
	}

	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: shards,
		Engine:          shard.EngineSpec{Kind: shard.KindCS, Sketch: skCfg, T: n},
		TrackCandidates: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for lo := 0; lo < len(samples); lo += 100 {
		hi := min(lo+100, len(samples))
		if _, _, err := mgr.Ingest(samples[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Step(); got != n {
		t.Fatalf("Step = %d, want %d", got, n)
	}

	// Exact fan-in: merged shard tables == serial table.
	merged, err := mgr.MergedSketch()
	if err != nil {
		t.Fatal(err)
	}
	p := pairs.Count(d)
	for key := uint64(0); key < uint64(p); key++ {
		if diff := math.Abs(merged.Estimate(key) - eng.Estimate(key)); diff > 1e-9 {
			t.Fatalf("merged estimate for key %d off by %g", key, diff)
		}
	}

	// Shard-local estimates see strictly less collision mass than the
	// serial sketch; both sit within noise of each other.
	worst := 0.0
	for key := uint64(0); key < uint64(p); key++ {
		local, err := mgr.EstimateKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(local - eng.Estimate(key)); diff > worst {
			worst = diff
		}
	}
	if worst > 0.1 {
		t.Fatalf("worst shard-local vs serial estimate gap %g > 0.1", worst)
	}

	// Fan-out/merge retrieval agrees with the serial ranking.
	got, err := mgr.TopKMagnitude(10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.TopMagnitude(10)
	if err != nil {
		t.Fatal(err)
	}
	gotKeys := keySet(got)
	overlap := 0
	for _, w := range want {
		if gotKeys[w.Key] {
			overlap++
		}
	}
	if overlap < 8 {
		t.Fatalf("top-10 overlap with serial retrieval = %d, want ≥ 8", overlap)
	}
}

// TestShardedASCSMatchesSerial runs ASCS with one fixed solved schedule
// through an 8-shard manager and through serial covstream, asserting
// the retrieved heavy pairs agree and are genuine planted signals.
func TestShardedASCSMatchesSerial(t *testing.T) {
	const (
		d      = 80
		n      = 1600
		shards = 8
	)
	ds := dataset.Simulation(d, n, 0.01, 3)
	samples := samplesOf(ds)
	skCfg := countsketch.Config{Tables: 5, Range: 4096, Seed: 5}

	spec, err := shard.AutoSpec(samples[:200], d, 1, n, skCfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Schedule.T != n || spec.Schedule.T0 < 1 {
		t.Fatalf("implausible solved schedule %+v", spec.Schedule)
	}

	serialEng, err := spec2Engine(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := covstream.New(covstream.Config{
		Dim: d, T: n, Engine: serialEng, TrackCandidates: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := serial.Observe(s); err != nil {
			t.Fatal(err)
		}
	}

	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: shards, Engine: spec, TrackCandidates: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, _, err := mgr.Ingest(samples); err != nil {
		t.Fatal(err)
	}

	got, err := mgr.TopKMagnitude(10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.TopMagnitude(10)
	if err != nil {
		t.Fatal(err)
	}
	gotKeys := keySet(got)
	overlap := 0
	for _, w := range want {
		if gotKeys[w.Key] {
			overlap++
		}
	}
	if overlap < 6 {
		t.Fatalf("ASCS top-10 overlap sharded vs serial = %d, want ≥ 6", overlap)
	}
	// The retrieved pairs must be real module pairs: planted signal
	// correlations are ≥ 0.5, everything else is exactly 0.
	signals := 0
	for _, g := range got {
		truth, err := ds.CorrOf(int64(g.Key))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(truth) >= 0.5 {
			signals++
		}
	}
	if signals < 8 {
		t.Fatalf("only %d/10 retrieved pairs are planted signals", signals)
	}
}

// TestConcurrentIngestAndQueries hammers one manager from concurrent
// producers and queriers; run under -race this is the serving-layer
// concurrency proof. Estimates are not asserted (interleaving-defined);
// invariants are: no data race, no deadlock, all samples accounted for.
func TestConcurrentIngestAndQueries(t *testing.T) {
	const (
		d         = 40
		producers = 4
		perProd   = 400
		batch     = 20
	)
	n := producers * perProd
	ds := dataset.Simulation(d, n, 0.02, 9)
	samples := samplesOf(ds)
	skCfg := countsketch.Config{Tables: 4, Range: 2048, Seed: 17}

	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: 4,
		Engine:   shard.EngineSpec{Kind: shard.KindCS, Sketch: skCfg, T: n},
		QueueLen: 8, FlushOps: 256, TrackCandidates: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := samples[w*perProd : (w+1)*perProd]
			for lo := 0; lo < len(chunk); lo += batch {
				if _, _, err := mgr.Ingest(chunk[lo : lo+batch]); err != nil {
					t.Errorf("producer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := mgr.TopKMagnitude(5); err != nil {
					t.Errorf("querier %d topk: %v", q, err)
					return
				}
				if _, err := mgr.Estimate(q, q+1); err != nil {
					t.Errorf("querier %d estimate: %v", q, err)
					return
				}
				if _, err := mgr.Stats(); err != nil {
					t.Errorf("querier %d stats: %v", q, err)
					return
				}
			}
		}(q)
	}
	// Producers finish, then queriers are released and the manager
	// drains; all counts must reconcile.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Wait for producers by polling Step (bounded by the test timeout).
	for mgr.Step() < n {
		if _, err := mgr.TopKMagnitude(3); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != n {
		t.Fatalf("Stats.Step = %d, want %d", st.Step, n)
	}
	var wantOps uint64
	for _, s := range samples {
		m := uint64(s.NNZ())
		wantOps += m * (m - 1) / 2
	}
	if st.Ops != wantOps {
		t.Fatalf("Stats.Ops = %d, want %d", st.Ops, wantOps)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Ingest(samples[:1]); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("Ingest after Close: %v, want ErrClosed", err)
	}
	if _, err := mgr.TopK(1); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("TopK after Close: %v, want ErrClosed", err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestManagerWarmingGates asserts query behaviour while the warm-up
// prefix is still buffering.
func TestManagerWarmingGates(t *testing.T) {
	const d, n = 30, 600
	ds := dataset.Simulation(d, n, 0.02, 21)
	samples := samplesOf(ds)
	skCfg := countsketch.Config{Tables: 4, Range: 2048, Seed: 13}
	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: 2, Warmup: 100, Standardize: true,
		Engine: shard.EngineSpec{Kind: shard.KindASCS, Sketch: skCfg, T: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if !mgr.Warming() {
		t.Fatal("manager should start warming")
	}
	if _, _, err := mgr.Ingest(samples[:50]); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.TopK(5); !errors.Is(err, shard.ErrWarmingUp) {
		t.Fatalf("TopK while warming: %v, want ErrWarmingUp", err)
	}
	if err := mgr.Snapshot(t.TempDir()); !errors.Is(err, shard.ErrWarmingUp) {
		t.Fatalf("Snapshot while warming: %v, want ErrWarmingUp", err)
	}
	st, err := mgr.Stats()
	if err != nil || !st.Warming || st.Step != 50 {
		t.Fatalf("warming stats = %+v, err %v", st, err)
	}
	if _, _, err := mgr.Ingest(samples[50:200]); err != nil {
		t.Fatal(err)
	}
	if mgr.Warming() {
		t.Fatal("manager should be live after the warm-up prefix")
	}
	if _, _, err := mgr.Ingest(samples[200:]); err != nil {
		t.Fatal(err)
	}
	top, err := mgr.TopKMagnitude(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("TopKMagnitude returned %d pairs", len(top))
	}
	// Horizon enforcement after the stream completes.
	if _, _, err := mgr.Ingest(samples[:1]); !errors.Is(err, shard.ErrHorizon) {
		t.Fatalf("Ingest past horizon: %v, want ErrHorizon", err)
	}
}
