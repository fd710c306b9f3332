// Package covstream turns a stream of samples Y^(t) ∈ R^d into the pair
// stream X ∈ R^p that the sketching engines consume (§3-§5 of the
// paper): it enumerates feature pairs per sample, forms the covariance
// increments (either the E[YaYb] second-moment approximation of §5 or
// the exactly-centered update of §4 with its adjustment term), skips
// zero features, and retrieves the top estimated pairs at the end —
// exhaustively for small p, via a bounded candidate tracker for the
// trillion-entry regime of Table 2.
package covstream

import (
	"fmt"
	"math"

	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
	"repro/internal/topk"
)

// Mode selects how pair increments are formed.
type Mode int

const (
	// SecondMoment inserts x = ya·yb, the paper's §5 approximation
	// Cov(Ya,Yb) ≈ E[YaYb], exact for zero-mean (e.g. standardized)
	// features and the only mode where zero-skipping is lossless.
	SecondMoment Mode = iota
	// Centered inserts x = (ya − ȳa)(yb − ȳb) using running feature
	// means (§4), optionally with the adjustment term that makes the
	// accumulated sum exactly the centered co-moment at every step.
	Centered
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case SecondMoment:
		return "second-moment"
	case Centered:
		return "centered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures an Estimator.
type Config struct {
	// Dim is the feature dimensionality d.
	Dim int
	// T is the stream length the engine was built for.
	T int
	// Engine is the sketching engine (CS, ASCS, ASketch, ColdFilter).
	Engine sketchapi.Ingestor
	// Mode selects the increment formula.
	Mode Mode
	// Adjustment enables the §4 adjustment term (Centered mode only).
	Adjustment bool
	// MeanCutoff (Centered mode): zero-valued features whose running
	// |mean| exceeds this are still paired (the paper's n_u set). Zero
	// keeps strict zero-skipping.
	MeanCutoff float64
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

// pairBatch is the flush threshold of the batched pair-offer buffers:
// large enough to amortize interface dispatch across an OfferPairs call,
// small enough that the key/increment/estimate scratch stays
// cache-resident. Flushes happen only on row boundaries, so a buffer may
// exceed it by up to one row before draining.
const pairBatch = 2048

// maxRowEsts caps the per-sample estimate scratch of the tracked row
// path (OfferRows needs m(m−1)/2 estimate slots for a sample with m
// active features). Denser samples fall back to the row-aligned
// pair-buffer path, which flushes in bounded batches.
const maxRowEsts = 1 << 20

// Estimator drives an engine over a sample stream.
type Estimator struct {
	cfg   Config
	t     int
	means []float64 // running feature means (Centered mode)
	prev  []float64 // scratch: previous means during an update
	track *topk.Tracker
	fast  sketchapi.OfferEstimator // non-nil when Engine supports the fused path
	row   sketchapi.RowOfferer     // non-nil when Engine supports the row path

	active []int // scratch: active feature indices of current sample
	vals   []float64
	keys   []uint64  // scratch: batched pair keys awaiting flush
	xs     []float64 // scratch: matching increments
	ests   []float64 // scratch: post-offer estimates (tracked runs)

	rowBases []uint64  // scratch: per-row pair bases of current sample
	rowIDs   []uint64  // scratch: active feature ids as uint64
	rowLeft  []float64 // scratch: row factors (Centered mode)
	rowRight []float64 // scratch: partner factors (Centered mode)
	rowEsts  []float64 // scratch: OfferRows estimates (tracked runs)
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
	if cfg.Mode != SecondMoment && cfg.Mode != Centered {
		return nil, fmt.Errorf("covstream: unknown mode %v", cfg.Mode)
	}
	if cfg.Adjustment && cfg.Mode != Centered {
		return nil, fmt.Errorf("covstream: Adjustment requires Centered mode")
	}
	if cfg.MeanCutoff < 0 {
		return nil, fmt.Errorf("covstream: MeanCutoff must be ≥ 0")
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
	dec, _ := cfg.Engine.(sketchapi.Decayer)
	engineDecaying := dec != nil && dec.Decaying()
	if cfg.Decay != 0 && !engineDecaying {
		return nil, fmt.Errorf("covstream: Decay=%v but engine %s is not in decay mode", cfg.Decay, cfg.Engine.Name())
	}
	if cfg.Decay == 0 && engineDecaying {
		return nil, fmt.Errorf("covstream: engine %s is in decay mode (λ=%v) but Config.Decay is unset", cfg.Engine.Name(), dec.DecayFactor())
	}
	if cfg.Decay != 0 && dec.DecayFactor() != cfg.Decay {
		return nil, fmt.Errorf("covstream: Config.Decay=%v disagrees with engine λ=%v", cfg.Decay, dec.DecayFactor())
	}
	e := &Estimator{cfg: cfg}
	if cfg.Mode == Centered {
		e.means = make([]float64, cfg.Dim)
		e.prev = make([]float64, cfg.Dim)
	}
	if cfg.TrackCandidates > 0 {
		e.track = topk.NewTracker(cfg.TrackCandidates)
	}
	if f, ok := cfg.Engine.(sketchapi.OfferEstimator); ok {
		e.fast = f
	}
	if r, ok := cfg.Engine.(sketchapi.RowOfferer); ok {
		e.row = r
	}
	e.keys = make([]uint64, 0, pairBatch)
	e.xs = make([]float64, 0, pairBatch)
	if e.fast != nil && e.track != nil {
		// Only the fast+tracked flush branch reads the estimates.
		e.ests = make([]float64, pairBatch)
	}
	return e, nil
}

// Steps returns the number of samples observed so far.
func (e *Estimator) Steps() int { return e.t }

// Engine returns the underlying engine.
func (e *Estimator) Engine() sketchapi.Ingestor { return e.cfg.Engine }

// Observe feeds one sample.
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
	switch e.cfg.Mode {
	case SecondMoment:
		e.observeSecondMoment(s)
	case Centered:
		e.observeCentered(s)
	}
	return nil
}

func (e *Estimator) observeSecondMoment(s stream.Sample) {
	// x = ya·yb over non-zero pairs only: zeros contribute nothing. For
	// fixed a the pair keys of increasing b are base + b (pairs.Index is
	// row-major), so the whole sample is a set of rows sharing one base
	// each — exactly the RowOfferer triangle shape: ids are the active
	// features, left = right = their values.
	idx, val := s.Idx, s.Val
	d := e.cfg.Dim
	if e.row != nil && len(idx) > 1 {
		e.rowIDs = e.rowIDs[:0]
		e.rowBases = e.rowBases[:0]
		for i, ix := range idx {
			e.rowIDs = append(e.rowIDs, uint64(ix))
			if i+1 < len(idx) {
				e.rowBases = append(e.rowBases, uint64(pairs.RowBase(ix, d)))
			}
		}
		if e.observeRows(e.rowBases, e.rowIDs, val, val) {
			return
		}
	}
	for i := 0; i+1 < len(idx); i++ {
		rowBase := pairs.RowBase(idx[i], d)
		ya := val[i]
		for j := i + 1; j < len(idx); j++ {
			e.bufferPair(uint64(rowBase+int64(idx[j])), ya*val[j])
		}
		e.flushRowAligned()
	}
	e.flushPairs()
}

// observeRows feeds one sample's upper triangle through the engine's
// row path. It reports false when the tracked estimate scratch would
// exceed maxRowEsts, in which case the caller must run the buffered
// pair path instead.
func (e *Estimator) observeRows(bases, ids []uint64, left, right []float64) bool {
	m := len(ids)
	if e.track == nil {
		e.row.OfferRows(bases, ids, left, right, nil)
		return true
	}
	p := m * (m - 1) / 2
	if p > maxRowEsts {
		return false
	}
	if cap(e.rowEsts) < p {
		e.rowEsts = make([]float64, p)
	}
	ests := e.rowEsts[:p]
	e.row.OfferRows(bases, ids, left, right, ests)
	n := 0
	for i := 0; i+1 < m; i++ {
		base := bases[i]
		for j := i + 1; j < m; j++ {
			e.track.Offer(base+ids[j], math.Abs(ests[n]))
			n++
		}
	}
	return true
}

func (e *Estimator) observeCentered(s stream.Sample) {
	d := e.cfg.Dim
	copy(e.prev, e.means)
	// Update running means over all features (zeros implicit).
	tf := float64(e.t)
	for j := 0; j < d; j++ {
		e.means[j] *= (tf - 1) / tf
	}
	for i, ix := range s.Idx {
		e.means[ix] += s.Val[i] / tf
	}
	// Active set: non-zero features plus heavy-mean features (n_u).
	e.active = e.active[:0]
	e.vals = e.vals[:0]
	si := 0
	for j := 0; j < d; j++ {
		v := 0.0
		if si < len(s.Idx) && s.Idx[si] == j {
			v = s.Val[si]
			si++
		}
		if v != 0 || math.Abs(e.means[j]) > e.cfg.MeanCutoff || (e.cfg.MeanCutoff == 0 && e.means[j] != 0) {
			e.active = append(e.active, j)
			e.vals = append(e.vals, v)
		}
	}
	// Both factors of the centered increment are row- or sample-constant:
	// x = (ya − pa)·(yb − ȳb(t)) with pa fixed per row and ȳb(t) fixed
	// per sample — so the triangle factors into left[i]·right[j] and fits
	// the RowOfferer shape exactly (the products are formed in the same
	// order with the same operands, so they are bit-identical).
	m := len(e.active)
	if e.row != nil && m > 1 {
		e.rowIDs, e.rowBases = e.rowIDs[:0], e.rowBases[:0]
		e.rowLeft, e.rowRight = e.rowLeft[:0], e.rowRight[:0]
		for i, a := range e.active {
			e.rowIDs = append(e.rowIDs, uint64(a))
			e.rowRight = append(e.rowRight, e.vals[i]-e.means[a])
			if i+1 < m {
				e.rowBases = append(e.rowBases, uint64(pairs.RowBase(a, d)))
				pa := e.means[a]
				if e.cfg.Adjustment {
					// Exact telescoping of §4: the paper's adjustment
					// makes Σ_k X^(k) equal Σ_k (ya(k)−ȳa(t))(yb(k)−ȳb(t))
					// at every t. The closed form of that difference is
					// the Welford co-moment update (one pre-update mean,
					// one post-update mean):
					// S(t)−S(t−1) = (ya−ȳa(t−1))·(yb−ȳb(t)).
					pa = e.prev[a]
				}
				e.rowLeft = append(e.rowLeft, e.vals[i]-pa)
			}
		}
		if e.observeRows(e.rowBases, e.rowIDs, e.rowLeft, e.rowRight) {
			return
		}
	}
	for i := 0; i+1 < m; i++ {
		a := e.active[i]
		rowBase := pairs.RowBase(a, d)
		var ya, pa float64
		if e.cfg.Adjustment {
			ya, pa = e.vals[i], e.prev[a]
		} else {
			// The paper's approximation: drop the adjustment and use
			// the current means on both sides.
			ya, pa = e.vals[i], e.means[a]
		}
		for j := i + 1; j < m; j++ {
			b := e.active[j]
			x := (ya - pa) * (e.vals[j] - e.means[b])
			e.bufferPair(uint64(rowBase+int64(b)), x)
		}
		e.flushRowAligned()
	}
	e.flushPairs()
}

// bufferPair queues one pair increment for the current step. It never
// flushes on its own: flushes must land on row boundaries (a row split
// across two OfferPairs calls would split its wave groups differently
// than the row path does), so the observe loops call flushRowAligned at
// the end of each row instead.
func (e *Estimator) bufferPair(key uint64, x float64) {
	e.keys = append(e.keys, key)
	e.xs = append(e.xs, x)
}

// flushRowAligned drains the pair buffer when it has reached the batch
// threshold. Called only at row boundaries, so batches may exceed
// pairBatch by up to one row but never split a row.
func (e *Estimator) flushRowAligned() {
	if len(e.keys) >= pairBatch {
		e.flushPairs()
	}
}

// flushPairs drains the queued pair increments: one OfferPairs call on
// the fused fast path (the engine hashes each key exactly once, and the
// candidate tracker reuses the gate/insert estimates instead of
// re-hashing), or per-call Offer+Estimate for engines without it.
func (e *Estimator) flushPairs() {
	keys, xs := e.keys, e.xs
	if len(keys) == 0 {
		return
	}
	switch {
	case e.fast != nil && e.track != nil:
		if cap(e.ests) < len(keys) {
			// Row-aligned batches can overshoot pairBatch by one row.
			e.ests = make([]float64, len(keys))
		}
		ests := e.ests[:len(keys)]
		e.fast.OfferPairs(keys, xs, ests)
		for i, key := range keys {
			e.track.Offer(key, math.Abs(ests[i]))
		}
	case e.fast != nil:
		e.fast.OfferPairs(keys, xs, nil)
	default:
		eng := e.cfg.Engine
		for i, key := range keys {
			eng.Offer(key, xs[i])
			if e.track != nil {
				e.track.Offer(key, math.Abs(eng.Estimate(key)))
			}
		}
	}
	e.keys = keys[:0]
	e.xs = xs[:0]
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
			e.estimateKeys(keys, scores)
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
	e.estimateKeys(keys, ests)
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
		e.estimateKeys(keys[:n], ests[:n])
		for i, v := range ests[:n] {
			h.Push(keys[i], rank(v))
		}
	}
	return h.SortedDesc()
}

// estimateKeys fills out[i] with the engine's estimate of keys[i],
// through the wave stages' batch read when the engine has one.
func (e *Estimator) estimateKeys(keys []uint64, out []float64) {
	if e.fast != nil {
		e.fast.EstimateKeys(keys, out)
		return
	}
	for i, key := range keys {
		out[i] = e.cfg.Engine.Estimate(key)
	}
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
