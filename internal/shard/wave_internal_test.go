package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// setWaveGroup flips every worker engine's wave group on its own
// goroutine (exec), so the change is ordered with ingest like any other
// fresh-lane closure.
func setWaveGroup(t *testing.T, m *Manager, g int) {
	t.Helper()
	err := m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
		w.row.(sketchapi.WaveTuner).SetWaveGroup(g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardWaveMatchesScalar pins the wave pipeline at the serving
// layer: a manager whose shard engines run wave-grouped OfferPairs
// (the default apply path) must produce bit-identical merged sketches,
// top-k, and op counts to one forced onto the scalar batch loop —
// fixed-horizon and unbounded (λ = 1 and λ < 1).
func TestShardWaveMatchesScalar(t *testing.T) {
	const dim, T = 40, 400
	rng := rand.New(rand.NewSource(99))
	samples := make([]stream.Sample, 160)
	for i := range samples {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.6 {
				row[j] = rng.NormFloat64()
			}
		}
		row[2] = row[9]*0.9 + 0.1*rng.NormFloat64()
		samples[i] = stream.FromDense(row)
	}
	for _, lambda := range []float64{0, 1, 0.999} {
		build := func() *Manager {
			spec := EngineSpec{
				Kind:     KindASCS,
				Sketch:   countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 3},
				T:        T,
				Schedule: core.Hyperparams{T0: 20, Theta: 0.05, Tau0: 1e-5, T: T},
				Lambda:   lambda,
			}
			m, err := New(Config{Dim: dim, Shards: 3, Engine: spec})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		scalar, wave := build(), build()
		defer scalar.Close()
		defer wave.Close()
		setWaveGroup(t, scalar, 1)
		for lo := 0; lo < len(samples); lo += 32 {
			hi := lo + 32
			if hi > len(samples) {
				hi = len(samples)
			}
			if _, _, err := scalar.Ingest(samples[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := wave.Ingest(samples[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := scalar.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := wave.Flush(); err != nil {
			t.Fatal(err)
		}
		st, err := scalar.TopKMagnitude(12)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := wave.TopKMagnitude(12)
		if err != nil {
			t.Fatal(err)
		}
		if len(st) != len(wt) {
			t.Fatalf("λ=%v: top-k lengths %d vs %d", lambda, len(st), len(wt))
		}
		for i := range st {
			if st[i] != wt[i] {
				t.Fatalf("λ=%v rank %d: scalar %+v != wave %+v", lambda, i, st[i], wt[i])
			}
		}
		ss, err := scalar.MergedSketch()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := wave.MergedSketch()
		if err != nil {
			t.Fatal(err)
		}
		var bs, bw bytes.Buffer
		if _, err := ss.WriteTo(&bs); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.WriteTo(&bw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs.Bytes(), bw.Bytes()) {
			t.Fatalf("λ=%v: merged shard sketches diverge", lambda)
		}
		sst, err := scalar.Stats()
		if err != nil {
			t.Fatal(err)
		}
		wst, err := wave.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if sst.Ops != wst.Ops {
			t.Fatalf("λ=%v: op counts diverge: %d vs %d", lambda, sst.Ops, wst.Ops)
		}
	}
}

// TestRouteStagingReuse pins the Ingest staging-buffer bugfix: after a
// warm-up round has populated the freelists, further Ingest calls must
// recycle their op buffers instead of growing fresh ones per call.
func TestRouteStagingReuse(t *testing.T) {
	const dim = 32
	m, err := New(Config{Dim: dim, Shards: 2, Engine: EngineSpec{
		Kind:   KindCS,
		Sketch: countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 1},
		T:      1 << 30,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(7))
	row := make([]float64, dim)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	batch := []stream.Sample{stream.FromDense(row)}
	// Warm the freelists and the worker scratch.
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
	// The routing path itself must be allocation-free; the small
	// allowance absorbs worker-side noise (tracker map growth on first
	// sightings) that AllocsPerRun's global counters pick up.
	if avg > 3 {
		t.Fatalf("Ingest steady state allocates %.1f times per call; staging buffers are not being reused", avg)
	}
}

// TestShardWaveMatchesScalarShortRuns is TestShardWaveMatchesScalar in
// the paper's sparse regime, on every engine kind: a URL-like stream
// whose samples break into many short row runs, a FlushOps small enough
// that runs split across batches while each batch spans several steps,
// and a tracker small enough to prune and refuse. A default manager
// (step-packed OfferPairs at the default wave group) must match one
// forced onto the scalar loop on the served top-k, every offered key's
// estimate, the tracker's pruned and refused counts, and the op count.
func TestShardWaveMatchesScalarShortRuns(t *testing.T) {
	const dim, T = 2400, 400
	cfg := dataset.URLConfig{
		Dim: dim, GroupSize: 3, Groups: dim / 3, ActiveGroups: 2,
		FireProb: 0.95, BackgroundNZ: 2, Seed: 17,
	}
	src, err := cfg.NewSource(T)
	if err != nil {
		t.Fatal(err)
	}
	samples := stream.Drain(src)
	offered := make(map[uint64]bool)
	for _, s := range samples {
		for i, a := range s.Idx {
			for _, b := range s.Idx[i+1:] {
				offered[pairs.Key(a, b, dim)] = true
			}
		}
	}
	for _, kind := range []Kind{KindCS, KindASCS, KindASketch, KindColdFilter} {
		for _, lambda := range []float64{0, 1, 0.999} {
			label := fmt.Sprintf("%s λ=%v", kind, lambda)
			build := func() *Manager {
				spec := EngineSpec{
					Kind:   kind,
					Sketch: countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 3},
					T:      T,
					Lambda: lambda,
				}
				if kind == KindASCS {
					spec.Schedule = core.Hyperparams{T0: 40, Theta: 0.05, Tau0: 1e-5, T: T}
				}
				m, err := New(Config{Dim: dim, Shards: 3, FlushOps: 61, TrackCandidates: 32, Engine: spec})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			scalar, wave := build(), build()
			setWaveGroup(t, scalar, 1)
			for lo := 0; lo < len(samples); lo += 37 {
				hi := min(lo+37, len(samples))
				if _, _, err := scalar.Ingest(samples[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if _, _, err := wave.Ingest(samples[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			st, err := scalar.TopKMagnitude(12)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := wave.TopKMagnitude(12)
			if err != nil {
				t.Fatal(err)
			}
			if len(st) != len(wt) {
				t.Fatalf("%s: top-k lengths %d vs %d", label, len(st), len(wt))
			}
			for i := range st {
				if st[i] != wt[i] {
					t.Fatalf("%s rank %d: scalar %+v != wave %+v", label, i, st[i], wt[i])
				}
			}
			for key := range offered {
				se, err := scalar.EstimateKey(key)
				if err != nil {
					t.Fatal(err)
				}
				we, err := wave.EstimateKey(key)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(se) != math.Float64bits(we) {
					t.Fatalf("%s key %d: scalar %v != wave %v", label, key, se, we)
				}
			}
			sst, err := scalar.Stats()
			if err != nil {
				t.Fatal(err)
			}
			wst, err := wave.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if sst.Ops != wst.Ops {
				t.Fatalf("%s: op counts diverge: %d vs %d", label, sst.Ops, wst.Ops)
			}
			var pruned, refused uint64
			for i, s := range sst.PerShard {
				h, w := s.Health, wst.PerShard[i].Health
				if h.TrackerPruned != w.TrackerPruned || h.TrackerRefused != w.TrackerRefused {
					t.Fatalf("%s shard %d: tracker pruned/refused scalar %d/%d, wave %d/%d",
						label, i, h.TrackerPruned, h.TrackerRefused, w.TrackerPruned, w.TrackerRefused)
				}
				pruned += h.TrackerPruned
				refused += h.TrackerRefused
			}
			if pruned == 0 || refused == 0 {
				t.Fatalf("%s: trackers pruned %d and refused %d offers; the stream must exercise both", label, pruned, refused)
			}
			scalar.Close()
			wave.Close()
		}
	}
}

// TestApplyLateStepsMatchesPerPair applies hand-built batches on a live
// worker: one whose runs all belong to steps below the worker's lastT
// (a request that routed after a later one was applied), and one that
// mixes late runs with a new step. Each must leave the engine, the
// tracker and the op count exactly as the per-run reference does — a
// beginStep only for a run ahead of lastT, then one OfferEstimate and
// one tracker offer per pair.
func TestApplyLateStepsMatchesPerPair(t *testing.T) {
	const dim, T = 64, 400
	rng := rand.New(rand.NewSource(5))
	samples := make([]stream.Sample, 100)
	for i := range samples {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.2 {
				row[j] = rng.NormFloat64()
			}
		}
		samples[i] = stream.FromDense(row)
	}
	batch := func(steps ...int) *rowBatch {
		b := &rowBatch{}
		for _, st := range steps {
			a := rng.Intn(dim - 1)
			base := uint64(pairs.RowBase(a, dim))
			for n := 1 + rng.Intn(5); n > 0; n-- {
				b.add(base, st, uint64(a+1+rng.Intn(dim-a-1)), rng.NormFloat64())
			}
		}
		return b
	}
	state := func(w *worker) []byte {
		var buf bytes.Buffer
		if _, err := w.eng.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "|lastT=%d ops=%d pruned=%d refused=%d", w.lastT, w.ops, w.track.Pruned(), w.track.Refused())
		w.track.Each(func(key uint64, score float64) { fmt.Fprintf(&buf, "|%d:%x", key, math.Float64bits(score)) })
		key, score, ok := w.track.Floor()
		fmt.Fprintf(&buf, "|floor %d:%x:%v", key, math.Float64bits(score), ok)
		return buf.Bytes()
	}
	for _, kind := range []Kind{KindCS, KindASCS, KindASketch, KindColdFilter} {
		for _, lambda := range []float64{0, 0.99} {
			for _, steps := range [][]int{{90, 90, 37, 37, 37, 12, 99}, {97, 98, 98, 101, 60, 101, 102, 102, 5}} {
				label := fmt.Sprintf("%s λ=%v steps %v", kind, lambda, steps)
				b := batch(steps...)
				spec := EngineSpec{
					Kind:   kind,
					Sketch: countsketch.Config{Tables: 5, Range: 1 << 8, Seed: 9},
					T:      T,
					Lambda: lambda,
				}
				if kind == KindASCS {
					spec.Schedule = core.Hyperparams{T0: 30, Theta: 0.05, Tau0: 1e-5, T: T}
				}
				var got, want []byte
				for _, ref := range []bool{false, true} {
					m, err := New(Config{Dim: dim, Shards: 1, TrackCandidates: 8, Engine: spec})
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := m.Ingest(samples); err != nil {
						t.Fatal(err)
					}
					err = m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
						if !ref {
							w.apply(b)
							got = state(w)
							return
						}
						o := 0
						for _, h := range b.hdrs {
							if h.t > w.lastT {
								w.beginStep(h.t)
							}
							for i, p := range b.prt[o : o+h.n] {
								est, _ := w.row.OfferEstimate(h.base+p, b.xs[o+i])
								w.track.Offer(h.base+p, math.Abs(est))
							}
							o += h.n
							w.ops += uint64(h.n)
						}
						want = state(w)
					})
					if err != nil {
						t.Fatal(err)
					}
					m.Close()
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: step-packed apply diverges from the per-pair reference", label)
				}
			}
		}
	}
}

// TestApplyZeroIncrementSkip pins the worker's zero-increment skip on a
// standardized URL-like stream: most features are absent from the
// warm-up prefix, so the frozen standardizer scales them to zero and
// most routed pairs carry an exactly-zero increment. For every engine
// kind, fixed-horizon and decayed, at the default wave group and on the
// scalar loop, a 2-shard manager runs beside a reference that offers
// every pair, one OfferEstimate at a time, to engines built from the
// manager's spec, with the same beginStep sequence. For CS and ASCS the
// merged sketch must be bit-identical to the reference's; for CS, ASCS
// and Cold Filter so must the estimate of every offered key (zero ones
// included). ASketch is exempt from both, since it no longer runs
// filter promotion on zero offers. For every kind, ops must still count
// every routed pair, each shard must reach the reference's step, the
// zero counter must count exactly the zero increments, and no tracked
// candidate may be a key that only ever received zeros.
func TestApplyZeroIncrementSkip(t *testing.T) {
	const (
		d      = 6000
		n      = 900
		warmup = 100
	)
	cfg := dataset.URLConfig{
		Dim: d, GroupSize: 3, Groups: d / 3, ActiveGroups: 3,
		FireProb: 0.95, BackgroundNZ: 6, Seed: 11,
	}
	src, err := cfg.NewSource(n)
	if err != nil {
		t.Fatal(err)
	}
	samples := stream.Drain(src)
	var wantOps uint64
	for _, s := range samples {
		wantOps += uint64(len(s.Idx) * (len(s.Idx) - 1) / 2)
	}
	for _, kind := range []Kind{KindCS, KindASCS, KindColdFilter, KindASketch} {
		mergeable := kind == KindCS || kind == KindASCS
		sameEstimates := kind != KindASketch
		for _, lambda := range []float64{0, 0.999} {
			for _, g := range []int{0, 1} {
				label := fmt.Sprintf("%s λ=%v group=%d", kind, lambda, g)
				m, err := New(Config{
					Dim: d, Shards: 2, Warmup: warmup, Standardize: true,
					// More candidates than a shard sees keys: every key
					// the worker offers stays tracked, so a zero key that
					// reached the tracker would still be there.
					TrackCandidates: 1 << 16,
					Engine: EngineSpec{Kind: kind, Sketch: countsketch.Config{Tables: 5, Range: 1 << 12, Seed: 5},
						T: n, Lambda: lambda},
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := m.Ingest(samples[:warmup]); err != nil {
					t.Fatal(err)
				}
				if g > 0 {
					setWaveGroup(t, m, g)
				}
				for lo := warmup; lo < n; lo += 64 {
					if _, _, err := m.Ingest(samples[lo:min(lo+64, n)]); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}

				// The reference: every pair offered, in route's order.
				refs := make([]sketchapi.RowOfferer, 2)
				for i := range refs {
					eng, err := m.spec.build()
					if err != nil {
						t.Fatal(err)
					}
					if refs[i], err = rowEngine(eng); err != nil {
						t.Fatal(err)
					}
				}
				refLast := make([]int, 2)
				refZeros := make([]uint64, 2)
				// nonzero holds every offered key: whether it ever
				// received a nonzero increment.
				nonzero := make(map[uint64]bool)
				for k, s := range samples {
					step := k + 1
					for i := 0; i+1 < len(s.Idx); i++ {
						ya := s.Val[i] * m.invStd[s.Idx[i]]
						for j := i + 1; j < len(s.Idx); j++ {
							key := uint64(pairs.RowBase(s.Idx[i], d)) + uint64(s.Idx[j])
							x := ya * (s.Val[j] * m.invStd[s.Idx[j]])
							sh := m.shardOf(key)
							if step > refLast[sh] {
								refs[sh].BeginStep(step)
								refLast[sh] = step
							}
							refs[sh].OfferEstimate(key, x)
							nonzero[key] = nonzero[key] || x != 0
							if x == 0 {
								refZeros[sh]++
							}
						}
					}
				}
				if refZeros[0]+refZeros[1] < wantOps/2 {
					t.Fatalf("%s: only %d of %d increments are zero; the stream must be mostly zero-scaled", label, refZeros[0]+refZeros[1], wantOps)
				}

				if mergeable {
					got, err := m.MergedSketch()
					if err != nil {
						t.Fatal(err)
					}
					var want *countsketch.Sketch
					for _, r := range refs {
						c := r.(sketcher).Sketch().Clone()
						c.Renormalize()
						if want == nil {
							want = c
						} else if err := want.Merge(c); err != nil {
							t.Fatal(err)
						}
					}
					var bg, bw bytes.Buffer
					if _, err := got.WriteTo(&bg); err != nil {
						t.Fatal(err)
					}
					if _, err := want.WriteTo(&bw); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bg.Bytes(), bw.Bytes()) {
						t.Fatalf("%s: merged sketch diverges from the every-pair reference", label)
					}
				}
				if sameEstimates {
					for key, nz := range nonzero {
						ge, err := m.EstimateKey(key)
						if err != nil {
							t.Fatal(err)
						}
						if we := refs[m.shardOf(key)].Estimate(key); math.Float64bits(ge) != math.Float64bits(we) {
							t.Fatalf("%s key %d (nonzero %v): estimate %v, reference %v", label, key, nz, ge, we)
						}
					}
				}
				zeroKeys := make([]int, 2)
				err = m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
					w.track.Each(func(key uint64, _ float64) {
						if !nonzero[key] {
							zeroKeys[w.id]++
						}
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				if zeroKeys[0]+zeroKeys[1] > 0 {
					t.Fatalf("%s: %d tracked candidates only ever received zero increments", label, zeroKeys[0]+zeroKeys[1])
				}

				st, err := m.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Ops != wantOps {
					t.Fatalf("%s: ops %d, want every routed pair (%d)", label, st.Ops, wantOps)
				}
				for i, s := range st.PerShard {
					if s.Step != refLast[i] {
						t.Fatalf("%s shard %d: step %d, reference %d", label, i, s.Step, refLast[i])
					}
					if s.ZeroIncrements != refZeros[i] {
						t.Fatalf("%s shard %d: zero increments %d, reference %d", label, i, s.ZeroIncrements, refZeros[i])
					}
					if got := m.Tel(i).Snap.Load(obs.ShardZeroIncrements); got != refZeros[i] {
						t.Fatalf("%s shard %d: published zero increments %d, reference %d", label, i, got, refZeros[i])
					}
				}
				m.Close()
			}
		}
	}
}
