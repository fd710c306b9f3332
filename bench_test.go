// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per exhibit, reporting the headline quality metric alongside
// wall-clock), plus micro-benchmarks of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The exhibits run at a reduced scale; `cmd/experiments -scale medium`
// (or `paper`) regenerates them at larger sizes.
package ascs_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/pairs"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/topk"

	ascs "repro"
)

// benchOptions sizes the exhibit benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:    dataset.Scale{Dim: 160, Samples: 1000},
		Seed:     42,
		Reps:     60,
		K:        5,
		RDivisor: 25,
	}
}

func BenchmarkFig1CorrelationCDF(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MeanStdCDF(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3IndependenceHist(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4QQNormality(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5SNRRatio(b *testing.B) {
	opt := benchOptions()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(opt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		s := res.Series["simulation"]
		if len(s) > 0 {
			last = s[len(s)-1].Measured
		}
	}
	b.ReportMetric(last, "final-ROSNR")
}

func BenchmarkFig6F1(b *testing.B) {
	opt := benchOptions()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(opt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		gap = fig6Gap(res)
	}
	b.ReportMetric(gap, "ASCS-minus-CS-F1")
}

func BenchmarkFig6AlphaRobustness(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6Alpha(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// fig6Gap averages (best ASCS curve − CS curve) across datasets.
func fig6Gap(res experiments.Fig6Result) float64 {
	total, n := 0.0, 0
	for _, curves := range res.Curves {
		var cs, best float64
		for _, c := range curves {
			m := 0.0
			for _, f := range c.F1 {
				m += f
			}
			m /= float64(len(c.F1))
			if c.Label == "CS" {
				cs = m
			} else if m > best {
				best = m
			}
		}
		total += best - cs
		n++
	}
	return total / float64(n)
}

func BenchmarkTable1TheoremValidation(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2LargeScale(b *testing.B) {
	opt := benchOptions()
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(opt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: ASCS−CS at the tightest URL memory row.
		for _, row := range res.Rows {
			if row.Dataset == "URL" {
				gain = row.MeanTopCorr["ASCS"] - row.MeanTopCorr["CS"]
				break
			}
		}
	}
	b.ReportMetric(gain, "ASCS-minus-CS@tight")
}

func BenchmarkTable3Roster(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4TopFraction(b *testing.B) {
	opt := benchOptions()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(opt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		gap = 0
		n := 0
		for _, name := range dataset.SmallNames() {
			cs, _ := res.Cell(name, "CS")
			as, _ := res.Cell(name, "ASCS")
			if len(cs.ByFraction) > 2 && len(as.ByFraction) > 2 {
				gap += as.ByFraction[2] - cs.ByFraction[2]
				n++
			}
		}
		gap /= float64(n)
	}
	b.ReportMetric(gap, "ASCS-minus-CS@0.1αp")
}

func BenchmarkTable5KSensitivity(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6Timing(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSchedule(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSchedule(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGate(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGate(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHash(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHash(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorOfferCS measures the per-offer cost of the vanilla
// engine through the public API (dense samples, pair enumeration
// included).
func BenchmarkEstimatorOfferCS(b *testing.B)   { benchEstimatorOffer(b, ascs.EngineCS) }
func BenchmarkEstimatorOfferASCS(b *testing.B) { benchEstimatorOffer(b, ascs.EngineASCS) }

func benchEstimatorOffer(b *testing.B, kind ascs.EngineKind) {
	const d = 64 // 2016 pairs per dense sample
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	samples := b.N/256 + 2*256
	est, err := ascs.NewEstimator(ascs.Config{
		Dim: d, Samples: samples * 256, MemoryFloats: 4096, Engine: kind, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.ObserveDense(rows[i%256]); err != nil {
			b.Fatal(err)
		}
	}
	// Offers per Observe: d(d-1)/2 = 2016 pair updates each.
}

// BenchmarkMeanSketchOffer measures the raw keyed-offer path.
func BenchmarkMeanSketchOffer(b *testing.B) {
	ms, err := ascs.NewMeanSketch(ascs.MeanConfig{Tables: 5, Range: 1 << 14, Samples: 1 << 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ms.BeginStep(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Offer(uint64(i), 1.0)
	}
}

// benchKeys is the working set of the ingest micro-benchmarks: large
// enough to defeat trivial caching of one key, small enough that every
// key stays admitted through the ASCS gate once primed.
const benchKeys = 1024

// newSamplingMeanSketch builds a mean sketch in the regime the paper's
// throughput numbers measure: ASCS in its sampling phase with a primed
// working set every offer of which passes the τ gate (the tracked,
// admitted-pair hot path), or vanilla CS when schedule is false.
func newSamplingMeanSketch(b testing.TB, schedule bool) *ascs.MeanSketch {
	return newSamplingMeanSketchKeys(b, schedule, benchKeys)
}

// newSamplingMeanSketchKeys is newSamplingMeanSketch with an explicit
// primed-working-set size (the row arms prime a whole triangle's pair
// range, which is slightly larger than benchKeys).
func newSamplingMeanSketchKeys(b testing.TB, schedule bool, nkeys int) *ascs.MeanSketch {
	b.Helper()
	cfg := ascs.MeanConfig{Tables: 5, Range: 1 << 14, Samples: 1 << 30, Seed: 1}
	if schedule {
		cfg.Schedule = ascs.Schedule{T0: 1, Theta: 0, Tau0: 1e-12, T: cfg.Samples}
	}
	ms, err := ascs.NewMeanSketch(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ms.BeginStep(1)
	for k := 0; k < nkeys; k++ {
		ms.Offer(uint64(k), 1e6)
	}
	ms.BeginStep(2) // past T0: ASCS is sampling; primed keys clear τ
	return ms
}

// BenchmarkIngestPerCall* is the per-call tracked ingest pair — Offer
// through the Ingestor interface plus the separate Estimate the
// candidate tracker used to make — for comparison with the fused paths
// below (ns/op is ns per offered pair in all of them).
func BenchmarkIngestPerCallASCS(b *testing.B) { benchIngestPerCall(b, true) }
func BenchmarkIngestPerCallCS(b *testing.B)   { benchIngestPerCall(b, false) }

func benchIngestPerCall(b *testing.B, schedule bool) {
	ms := newSamplingMeanSketch(b, schedule)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		key := uint64(i % benchKeys)
		ms.Offer(key, 1e6)
		sink += ms.Estimate(key)
	}
	_ = sink
}

// BenchmarkIngestOfferEstimate* is the fused fast path: one hash of the
// key serves the gate, the insert, and the tracker estimate.
func BenchmarkIngestOfferEstimateASCS(b *testing.B) { benchIngestOfferEstimate(b, true) }
func BenchmarkIngestOfferEstimateCS(b *testing.B)   { benchIngestOfferEstimate(b, false) }

func benchIngestOfferEstimate(b *testing.B, schedule bool) {
	ms := newSamplingMeanSketch(b, schedule)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		est, _ := ms.OfferEstimate(uint64(i%benchKeys), 1e6)
		sink += est
	}
	_ = sink
}

// BenchmarkIngestOfferPairs* adds batching on top of the fused path:
// one interface call per chunk of pairs instead of one per pair (wave
// group pinned to 1 — the scalar batch loop, the pre-wave number).
func BenchmarkIngestOfferPairsASCS(b *testing.B) { benchIngestOfferPairs(b, true, 1) }
func BenchmarkIngestOfferPairsCS(b *testing.B)   { benchIngestOfferPairs(b, false, 1) }

// BenchmarkIngestOfferPairsWave* is the wave-pipelined group path at
// the default group size: group hashing, touch/prefetch of the K·G
// cells so their misses overlap, gather, gate/scatter. At this
// cache-resident record config the win over the scalar batch loop is
// modest; the range sweep in cmd/ascsbench shows the DRAM-resident
// regime the pipeline exists for.
func BenchmarkIngestOfferPairsWaveASCS(b *testing.B) { benchIngestOfferPairs(b, true, 0) }
func BenchmarkIngestOfferPairsWaveCS(b *testing.B)   { benchIngestOfferPairs(b, false, 0) }

// benchIngestOfferPairs measures OfferPairs with the given wave group
// (0 = default wave group, 1 = scalar batch loop).
func benchIngestOfferPairs(b *testing.B, schedule bool, group int) {
	ms := newSamplingMeanSketch(b, schedule)
	if group > 0 {
		ms.SetWaveGroup(group)
	}
	const chunk = 512
	// The chunks walk the full primed working set so the cache footprint
	// matches the per-call and OfferEstimate arms exactly.
	keys := make([]uint64, benchKeys)
	xs := make([]float64, benchKeys)
	ests := make([]float64, benchKeys)
	for i := range keys {
		keys[i] = uint64(i)
		xs[i] = 1e6
	}
	b.ReportAllocs()
	b.ResetTimer()
	pos := 0
	for lo := 0; lo < b.N; lo += chunk {
		n := chunk
		if lo+n > b.N {
			n = b.N - lo
		}
		if pos+n > benchKeys {
			pos = 0
		}
		ms.OfferPairs(keys[pos:pos+n], xs[pos:pos+n], ests[pos:pos+n])
		pos += n
	}
}

// TestWaveOfferPairsZeroAllocs guards the wave group pipeline's scratch
// discipline at the engine layer: once the per-engine Wave scratch is
// built (first OfferPairs call), the steady-state group path — group
// hashing, touch, screen, gather, gate/scatter — performs zero
// allocations per batch, for ASCS and CS alike.
func TestWaveOfferPairsZeroAllocs(t *testing.T) {
	for _, schedule := range []bool{true, false} {
		ms := newSamplingMeanSketch(t, schedule)
		keys := make([]uint64, 512)
		xs := make([]float64, 512)
		ests := make([]float64, 512)
		for i := range keys {
			keys[i] = uint64(i % benchKeys)
			xs[i] = 1e6
		}
		ms.OfferPairs(keys, xs, ests) // builds the lazy wave scratch
		avg := testing.AllocsPerRun(50, func() {
			ms.OfferPairs(keys, xs, ests)
		})
		if avg != 0 {
			t.Fatalf("schedule=%v: wave OfferPairs allocates %.1f per batch; group scratch is not being reused", schedule, avg)
		}
	}
}

// TestRowWaveOfferZeroAllocs guards the row path's scratch discipline
// at the engine layer: once the wave scratch exists, steady-state
// OfferRow — key expansion included — allocates nothing, for ASCS and
// CS alike.
func TestRowWaveOfferZeroAllocs(t *testing.T) {
	const m = 46 // row of 45 partners, inside the benchKeys working set
	for _, schedule := range []bool{true, false} {
		ms := newSamplingMeanSketchKeys(t, schedule, m*(m-1)/2)
		partners := make([]uint64, m-1)
		xs := make([]float64, m-1)
		for j := range partners {
			partners[j] = uint64(j + 1)
			xs[j] = 1e6
		}
		rowEsts := make([]float64, len(partners))
		ms.OfferRow(0, partners, xs, rowEsts) // builds the lazy wave scratch
		if avg := testing.AllocsPerRun(50, func() {
			ms.OfferRow(0, partners, xs, rowEsts)
		}); avg != 0 {
			t.Fatalf("schedule=%v: OfferRow allocates %.1f per row", schedule, avg)
		}
	}
}

// servedRowCS builds the CS engine of the served dense shape — K = 5,
// range 200 000, the shard worker's engine — and the OfferRow arguments
// of `samples` dense d-dimensional samples: per sample and row i, the
// partners i+1..d−1 and the products x_i·x_j a shard worker hands over.
func servedRowCS(tb testing.TB, d, samples int) (eng *countsketch.MeanSketch, bases []uint64, partners [][]uint64, xs [][][]float64) {
	tb.Helper()
	eng, err := countsketch.NewMeanSketch(countsketch.Config{Tables: 5, Range: 200_000, Seed: 1}, 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bases = make([]uint64, d-1)
	partners = make([][]uint64, d-1)
	for i := range bases {
		bases[i] = uint64(pairs.RowBase(i, d))
		for j := i + 1; j < d; j++ {
			partners[i] = append(partners[i], uint64(j))
		}
	}
	xs = make([][][]float64, samples)
	x := make([]float64, d)
	for s := range xs {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[s] = make([][]float64, d-1)
		for i := range xs[s] {
			for j := i + 1; j < d; j++ {
				xs[s][i] = append(xs[s][i], x[i]*x[j])
			}
		}
	}
	return eng, bases, partners, xs
}

// BenchmarkServedRowCS is the dense CS workload's engine row path:
// d = 160 dense rows through OfferRow, each pair returning its post-add
// estimate for the tracker, K = 5, range 200 000. ns/op is ns per
// offered pair. (The shard worker offers a step's rows as one
// OfferPairs call; dense rows fill the wave groups either way.)
func BenchmarkServedRowCS(b *testing.B) {
	const d = 160
	eng, bases, partners, xs := servedRowCS(b, d, 16)
	ests := make([]float64, d-1)
	b.ReportAllocs()
	b.ResetTimer()
	for done, s := 0, 0; done < b.N; s++ {
		eng.BeginStep(s + 1)
		sample := xs[s%len(xs)]
		for i, base := range bases {
			eng.OfferRow(base, partners[i], sample[i], ests[:len(partners[i])])
		}
		done += d * (d - 1) / 2
	}
}

// TestServedRowCSZeroAllocs pins the served CS estimate path at no
// allocation: the fused add-and-estimate step on its own, and OfferRow
// with estimates in the served shape once the wave scratch exists.
func TestServedRowCSZeroAllocs(t *testing.T) {
	const d = 160
	eng, bases, partners, xs := servedRowCS(t, d, 1)
	sk := eng.Sketch()
	var slots [countsketch.MaxTables]countsketch.Slot
	sk.Locate(12345, &slots)
	sink := 0.0
	if avg := testing.AllocsPerRun(200, func() {
		sink += sk.AddSlotsEstimate(&slots, 0.5)
	}); avg != 0 {
		t.Fatalf("AddSlotsEstimate allocates %.1f per call", avg)
	}
	_ = sink
	ests := make([]float64, d-1)
	offer := func() {
		for i, base := range bases {
			eng.OfferRow(base, partners[i], xs[0][i], ests[:len(partners[i])])
		}
	}
	offer() // builds the lazy wave scratch
	if avg := testing.AllocsPerRun(20, offer); avg != 0 {
		t.Fatalf("served-shape OfferRow with estimates allocates %.1f per sample", avg)
	}
	// The shard worker's call: one OfferPairs over a step's materialized
	// keys.
	var keys []uint64
	var flat []float64
	for i, base := range bases {
		for j, p := range partners[i] {
			keys = append(keys, base+p)
			flat = append(flat, xs[0][i][j])
		}
	}
	stepEsts := make([]float64, len(keys))
	if avg := testing.AllocsPerRun(20, func() { eng.OfferPairs(keys, flat, stepEsts) }); avg != 0 {
		t.Fatalf("served-shape OfferPairs with estimates allocates %.1f per sample", avg)
	}
}

// servedTopK builds the per-shard read shape of the sparse ASCS
// workload: a K = 5, range 100 000 sketch holding 2M random inserts and
// a tracker (capacity 2¹⁴, the daemon default) filled to its 2¹⁵-entry
// prune bound with keys drawn from the same universe.
func servedTopK(tb testing.TB) (*countsketch.MeanSketch, *topk.Tracker) {
	tb.Helper()
	eng, err := countsketch.NewMeanSketch(countsketch.Config{Tables: 5, Range: 100_000, Seed: 1}, 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 4096)
	xs := make([]float64, len(keys))
	for done := 0; done < 2_000_000; done += len(keys) {
		for i := range keys {
			keys[i] = rng.Uint64() % 5e9
			xs[i] = rng.NormFloat64()
		}
		eng.OfferPairs(keys, xs, nil)
	}
	tk := topk.NewTracker(1 << 14)
	for tk.Len() < 1<<15 {
		tk.Offer(rng.Uint64()%5e9, rng.Float64())
	}
	return eng, tk
}

// BenchmarkTopKRescore times a shard's top-100 read at the served
// sparse shape: every tracked key rescored by |estimate|, one scalar
// Estimate per key (scalar) or through the engine's wave-staged
// EstimateKeys in tracker chunks (batch). ns/key is per tracked key.
func BenchmarkTopKRescore(b *testing.B) {
	eng, tk := servedTopK(b)
	arms := []struct {
		name string
		top  func() []topk.Item
	}{
		{"scalar", func() []topk.Item {
			return tk.Top(100, func(key uint64) float64 { return math.Abs(eng.Estimate(key)) })
		}},
		{"batch", func() []topk.Item {
			return tk.TopBatch(100, func(keys []uint64, scores []float64) {
				eng.EstimateKeys(keys, scores)
				for i, v := range scores {
					scores[i] = math.Abs(v)
				}
			})
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.top()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tk.Len()), "ns/key")
		})
	}
}

// TestShardIngestSteadyStateAllocs guards the serving-layer scratch
// discipline end to end: after warm-up, Manager.Ingest (pair
// enumeration, staging buffers, channel ship, worker apply through the
// wave group pipeline) must not allocate per call — the route staging
// freelist and the per-worker slot/estimate scratch are both on this
// path. A small allowance absorbs worker-goroutine noise picked up by
// AllocsPerRun's global counters.
func TestShardIngestSteadyStateAllocs(t *testing.T) {
	const d = 48
	rng := rand.New(rand.NewSource(5))
	row := make([]float64, d)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	batch := []stream.Sample{stream.FromDense(row)}
	// The admission front door (shed bound check, governor pressure
	// read) sits on this same path and must not add allocations under
	// any policy. The queue is deep enough that the measurement loop
	// can outrun the workers without tripping the bound — the check
	// itself still runs on every call.
	for _, adm := range []shard.AdmissionPolicy{shard.AdmitBlock, shard.AdmitShed, shard.AdmitDegrade} {
		t.Run(string(adm), func(t *testing.T) {
			mgr, err := shard.New(shard.Config{
				Dim: d, Shards: 2, Admission: adm, QueueLen: 1 << 12,
				Engine: shard.EngineSpec{
					Kind:   shard.KindCS,
					Sketch: countsketch.Config{Tables: 5, Range: 1 << 12, Seed: 1},
					T:      1 << 30,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			for i := 0; i < 50; i++ {
				if _, _, err := mgr.Ingest(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := mgr.Flush(); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(100, func() {
				if _, _, err := mgr.Ingest(batch); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 3 {
				t.Fatalf("shard ingest steady state (admission=%s) allocates %.1f per call; staging/worker scratch is not being reused", adm, avg)
			}
		})
	}
}

// BenchmarkShardIngest measures the serving subsystem's ingest path
// (pair enumeration + routing + sharded sketch updates, no HTTP) per
// shard count. cmd/ascsload produces the end-to-end BENCH_server.json
// counterpart over real HTTP; shard speedups require as many cores.
func BenchmarkShardIngest(b *testing.B) {
	const d = 64 // 2016 pair offers per dense sample
	rng := rand.New(rand.NewSource(1))
	samples := make([]stream.Sample, 256)
	for i := range samples {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		samples[i] = stream.FromDense(row)
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			mgr, err := shard.New(shard.Config{
				Dim: d, Shards: shards,
				Engine: shard.EngineSpec{
					Kind:   shard.KindCS,
					Sketch: countsketch.Config{Tables: 5, Range: 1 << 13, Seed: 1},
					T:      b.N + 1,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for lo := 0; lo < b.N; lo += 64 {
				hi := lo + 64
				if hi > b.N {
					hi = b.N
				}
				batch := make([]stream.Sample, 0, hi-lo)
				for i := lo; i < hi; i++ {
					batch = append(batch, samples[i%256])
				}
				if _, _, err := mgr.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := mgr.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(d*(d-1)/2), "offers/op")
		})
	}
	b.Run("sparse-ascs", func(b *testing.B) { benchShardIngestSparse(b, 0) })
	b.Run("sparse-ascs-std", func(b *testing.B) { benchShardIngestSparse(b, 2000) })
}

// benchShardIngestSparse is BenchmarkShardIngest at the served sparse
// shape: URL-like samples (d = 100 000, ~14.5 nonzeros, so each sample's
// ~100 pairs form ~13 short rows) through an ASCS manager with 2
// shards. An op is one sample; ns/pair is per routed pair, and
// pairs/group is the wave groups' mean occupancy (nonzero pairs ÷
// wave_groups from Stats), which shows whether a shard's short row
// runs are packed into full groups.
//
// With warmup > 0 the manager standardizes, as ascsd does: it fits the
// scales on the first warmup samples (ingested before the timer
// starts, and never timed again), so every feature absent from them
// scales to zero, and zero/pair is the share of the timed pairs whose
// increment was zero and so skipped the engine and the tracker. With
// warmup = 0 every value is 1 and no increment is zero.
func benchShardIngestSparse(b *testing.B, warmup int) {
	const d = 100_000
	cfg := dataset.URLConfig{
		Dim: d, GroupSize: 3, Groups: d / 3, ActiveGroups: 3,
		FireProb: 0.95, BackgroundNZ: 6, Seed: 1,
	}
	src, err := cfg.NewSource(warmup + 4096)
	if err != nil {
		b.Fatal(err)
	}
	samples := stream.Drain(src)
	T := warmup + b.N + 1
	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: 2, Warmup: warmup, Standardize: warmup > 0,
		Engine: shard.EngineSpec{
			Kind:     shard.KindASCS,
			Sketch:   countsketch.Config{Tables: 5, Range: 100_000, Seed: 1},
			T:        T,
			Schedule: core.Hyperparams{T0: min(200, T), Theta: 0.05, Tau0: 1e-5, T: T},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	for lo := 0; lo < warmup; lo += 64 {
		if _, _, err := mgr.Ingest(samples[lo:min(lo+64, warmup)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := mgr.Flush(); err != nil {
		b.Fatal(err)
	}
	totals := func() (ops, zeros, groups uint64) {
		st, err := mgr.Stats()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range st.PerShard {
			ops += s.Ops
			zeros += s.ZeroIncrements
			groups += s.Health.WaveGroups
		}
		return ops, zeros, groups
	}
	ops0, zeros0, groups0 := totals()
	pairsIn := 0
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += 64 {
		hi := min(lo+64, b.N)
		batch := make([]stream.Sample, 0, hi-lo)
		for i := lo; i < hi; i++ {
			s := samples[warmup+i%4096]
			batch = append(batch, s)
			pairsIn += s.NNZ() * (s.NNZ() - 1) / 2
		}
		if _, _, err := mgr.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := mgr.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	ops, zeros, groups := totals()
	ops, zeros, groups = ops-ops0, zeros-zeros0, groups-groups0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairsIn), "ns/pair")
	if groups > 0 {
		b.ReportMetric(float64(ops-zeros)/float64(groups), "pairs/group")
	}
	if warmup > 0 && ops > 0 {
		b.ReportMetric(float64(zeros)/float64(ops), "zero/pair")
	}
}

func BenchmarkAblationPagh(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPagh(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
