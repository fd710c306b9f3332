// Package covstream turns a stream of samples Y^(t) ∈ R^d into the pair
// stream X ∈ R^p that the sketching engines consume (§3-§5 of the
// paper): it enumerates the non-zero feature pairs of each sample, forms
// the §5 second-moment increments x = ya·yb (Cov(Ya,Yb) ≈ E[YaYb], exact
// for zero-mean, e.g. standardized, features and the only increment for
// which skipping zero features is lossless), and retrieves the top
// estimated pairs at the end — exhaustively for small p, via a bounded
// candidate tracker for the trillion-entry regime of Table 2.
package covstream

import (
	"fmt"
	"math"

	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
	"repro/internal/topk"
)

// Config configures an Estimator.
type Config struct {
	// Dim is the feature dimensionality d.
	Dim int
	// T is the stream length the engine was built for.
	T int
	// Engine is the sketching engine (CS, ASCS, ASketch, ColdFilter).
	Engine sketchapi.Engine
	// TrackCandidates, when positive, maintains a bounded candidate set
	// of keys offered to the engine (capacity TrackCandidates) so Top
	// works when p is too large to enumerate.
	TrackCandidates int
	// MaxExhaustivePairs caps exhaustive retrieval (default 20M).
	MaxExhaustivePairs int64
	// Decay, when in (0,1], runs the estimator in exponential-decay
	// (unbounded-stream) mode: Observe no longer rejects samples past T
	// (T is then the effective window the engine normalizes by, not a
	// horizon) and the candidate tracker ages by Decay per step so
	// stale candidates sink. The engine must have been constructed in
	// decay mode with the same λ (e.g. countsketch.NewMeanSketchDecayed,
	// core.NewEngineDecayed); it applies its own table decay inside
	// BeginStep. Zero keeps the classic fixed-horizon behavior.
	Decay float64
}

// PairEstimate is one retrieved pair with its estimated mean.
type PairEstimate struct {
	A, B     int
	Key      uint64
	Estimate float64
}

// pairBatch is the flush threshold of the pair buffer: large enough to
// amortize interface dispatch across an OfferPairs call, small enough
// that the key/increment/estimate scratch stays cache-resident. Flushes
// happen only on row boundaries, so a buffer may exceed it by up to one
// row before draining.
const pairBatch = 2048

// Estimator drives an engine over a sample stream.
type Estimator struct {
	cfg   Config
	t     int
	track *topk.Tracker

	keys []uint64  // scratch: buffered pair keys awaiting flush
	xs   []float64 // scratch: matching increments
	ests []float64 // scratch: post-offer estimates (tracked runs only)

	// tap, when set, sees every flushed batch before the engine does
	// (the warm-up's σ and census accumulate over it).
	tap func(keys []uint64, xs []float64)
}

// New validates cfg and builds an estimator.
func New(cfg Config) (*Estimator, error) {
	if cfg.Dim < 2 {
		return nil, fmt.Errorf("covstream: Dim must be ≥ 2, got %d", cfg.Dim)
	}
	if cfg.T < 1 {
		return nil, fmt.Errorf("covstream: T must be ≥ 1, got %d", cfg.T)
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("covstream: Engine is required")
	}
	if cfg.MaxExhaustivePairs == 0 {
		cfg.MaxExhaustivePairs = 20_000_000
	}
	if cfg.Decay != 0 {
		if err := sketchapi.ValidateDecay(cfg.Decay); err != nil {
			return nil, fmt.Errorf("covstream: %w", err)
		}
	}
	// Decay mode must agree between the driver and the engine: a decayed
	// engine under a fixed-horizon estimator (or vice versa) would mix
	// window-normalized tables with horizon bookkeeping silently.
	eng := cfg.Engine
	if cfg.Decay != 0 && !eng.Decaying() {
		return nil, fmt.Errorf("covstream: Decay=%v but engine %s is not in decay mode", cfg.Decay, eng.Name())
	}
	if cfg.Decay == 0 && eng.Decaying() {
		return nil, fmt.Errorf("covstream: engine %s is in decay mode (λ=%v) but Config.Decay is unset", eng.Name(), eng.DecayFactor())
	}
	if cfg.Decay != 0 && eng.DecayFactor() != cfg.Decay {
		return nil, fmt.Errorf("covstream: Config.Decay=%v disagrees with engine λ=%v", cfg.Decay, eng.DecayFactor())
	}
	e := &Estimator{cfg: cfg}
	if cfg.TrackCandidates > 0 {
		e.track = topk.NewTracker(cfg.TrackCandidates)
	}
	return e, nil
}

// Steps returns the number of samples observed so far.
func (e *Estimator) Steps() int { return e.t }

// Engine returns the underlying engine.
func (e *Estimator) Engine() sketchapi.Engine { return e.cfg.Engine }

// Observe feeds one sample: x = ya·yb over its non-zero pairs only
// (zeros contribute nothing). For fixed a the pair keys of increasing b
// are base + b (pairs.Index is row-major), so the sample is a set of
// rows sharing one base each; the keys and increments are materialized
// row by row and flushed, on row boundaries, through OfferPairs — the
// shard worker's ingest shape.
func (e *Estimator) Observe(s stream.Sample) error {
	if err := s.Validate(e.cfg.Dim); err != nil {
		return err
	}
	// Decay mode serves unbounded streams: there is no horizon to
	// exhaust, T is only the window normalizer.
	if e.cfg.Decay == 0 && e.t >= e.cfg.T {
		return fmt.Errorf("covstream: stream exceeds configured T=%d", e.cfg.T)
	}
	e.t++
	e.cfg.Engine.BeginStep(e.t)
	if e.cfg.Decay != 0 && e.track != nil {
		e.track.Decay(e.cfg.Decay)
	}
	idx, val := s.Idx, s.Val
	for i := 0; i+1 < len(idx); i++ {
		rowBase := uint64(pairs.RowBase(idx[i], e.cfg.Dim))
		ya := val[i]
		for j := i + 1; j < len(idx); j++ {
			e.keys = append(e.keys, rowBase+uint64(idx[j]))
			e.xs = append(e.xs, ya*val[j])
		}
		if len(e.keys) >= pairBatch {
			e.flush()
		}
	}
	e.flush()
	return nil
}

// flush drains the buffered pairs through one OfferPairs call: the
// engine hashes each key once, and with candidate tracking the tracker
// reuses the gate/insert estimates, offered in the same order. This is
// exact at any batch split — engine state does not depend on how offers
// are split into calls, and the tracker never feeds back into the
// engine.
func (e *Estimator) flush() {
	keys, xs := e.keys, e.xs
	if len(keys) == 0 {
		return
	}
	if e.tap != nil {
		e.tap(keys, xs)
	}
	if e.track == nil {
		e.cfg.Engine.OfferPairs(keys, xs, nil)
	} else {
		if cap(e.ests) < len(keys) {
			e.ests = make([]float64, len(keys))
		}
		ests := e.ests[:len(keys)]
		e.cfg.Engine.OfferPairs(keys, xs, ests)
		for i, key := range keys {
			e.track.Offer(key, math.Abs(ests[i]))
		}
	}
	e.keys, e.xs = keys[:0], xs[:0]
}

// Run drains src through Observe, returning the number of samples
// processed.
func (e *Estimator) Run(src stream.Source) (int, error) {
	n := 0
	for {
		s, ok := src.Next()
		if !ok {
			return n, nil
		}
		if err := e.Observe(s); err != nil {
			return n, err
		}
		n++
	}
}

// EstimatePair returns the engine's estimate for the pair (a, b).
func (e *Estimator) EstimatePair(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return e.cfg.Engine.Estimate(pairs.Key(a, b, e.cfg.Dim))
}

// Top returns the k pairs with the largest estimates (by signed value).
// With candidate tracking enabled the candidates are rescored with the
// final estimates; otherwise all p pairs are scanned (p must not exceed
// MaxExhaustivePairs).
func (e *Estimator) Top(k int) ([]PairEstimate, error) {
	return e.top(k, func(v float64) float64 { return v })
}

// TopMagnitude returns the k pairs with the largest |estimate| — strong
// negative correlations rank alongside positive ones (the two-sided
// ASCS gate of Theorems 1–2 retains both). Estimates keep their sign.
func (e *Estimator) TopMagnitude(k int) ([]PairEstimate, error) {
	return e.top(k, math.Abs)
}

func (e *Estimator) top(k int, rank func(float64) float64) ([]PairEstimate, error) {
	if k < 1 {
		return nil, fmt.Errorf("covstream: k must be ≥ 1")
	}
	d := e.cfg.Dim
	var items []topk.Item
	if e.track != nil {
		items = e.track.TopBatch(k, func(keys []uint64, scores []float64) {
			e.cfg.Engine.EstimateKeys(keys, scores)
			for i, v := range scores {
				scores[i] = rank(v)
			}
		})
	} else {
		p := pairs.Count(d)
		if p > e.cfg.MaxExhaustivePairs {
			return nil, fmt.Errorf("covstream: %d pairs exceed exhaustive limit %d; enable TrackCandidates", p, e.cfg.MaxExhaustivePairs)
		}
		items = e.scanAll(k, p, rank)
	}
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	ests := make([]float64, len(items))
	e.cfg.Engine.EstimateKeys(keys, ests)
	out := make([]PairEstimate, len(items))
	for i, key := range keys {
		a, b := pairs.Decode(int64(key), d)
		out[i] = PairEstimate{A: a, B: b, Key: key, Estimate: ests[i]}
	}
	return out, nil
}

// scanChunk is the key chunk the exhaustive scans estimate per batch
// read, as topk.Tracker.TopBatch does for tracked candidates.
const scanChunk = 256

// scanAll returns the k best of all p pair keys under rank, estimated
// chunk by chunk and pushed in key order — the order, and so the tie
// breaks, of a key-by-key scan.
func (e *Estimator) scanAll(k int, p int64, rank func(float64) float64) []topk.Item {
	h := topk.NewHeap(k)
	keys := make([]uint64, scanChunk)
	ests := make([]float64, scanChunk)
	for lo := int64(0); lo < p; lo += scanChunk {
		n := int(min(scanChunk, p-lo))
		for i := range n {
			keys[i] = uint64(lo) + uint64(i)
		}
		e.cfg.Engine.EstimateKeys(keys[:n], ests[:n])
		for i, v := range ests[:n] {
			h.Push(keys[i], rank(v))
		}
	}
	return h.SortedDesc()
}

// RankedKeys returns all p pair keys ordered by descending estimate
// (exhaustive retrieval; intended for small p where F1-style evaluation
// needs a full ranking).
func (e *Estimator) RankedKeys() ([]uint64, error) {
	p := pairs.Count(e.cfg.Dim)
	if p > e.cfg.MaxExhaustivePairs {
		return nil, fmt.Errorf("covstream: %d pairs exceed exhaustive limit", p)
	}
	items := e.scanAll(int(p), p, func(v float64) float64 { return v })
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	return keys, nil
}
