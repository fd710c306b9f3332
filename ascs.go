// Package ascs is a Go implementation of the Active Sampling Count
// Sketch (Dai, Desai, Heckel, Shrivastava — SIGMOD 2021): one-pass,
// sub-linear-memory identification of the large entries of a sparse
// covariance or correlation matrix with possibly trillions of entries.
//
// The package offers four layers:
//
//   - Estimator: the end-to-end covariance/correlation workflow — feed
//     samples Y^(t) ∈ R^d one at a time, retrieve the top correlated
//     pairs at the end. Hyper-parameters are derived automatically from
//     a warm-up prefix (§8.1 of the paper).
//   - Sharded: the concurrent serving form of the same workflow — the
//     pair-key space is partitioned across shard workers so ingest and
//     live top-k queries overlap, with snapshot/restore for crash
//     recovery. The ascsd daemon (cmd/ascsd) serves it over HTTP.
//   - MeanSketch: the underlying abstract problem — online sparse mean
//     estimation over arbitrary uint64 keys, with vanilla Count Sketch
//     or ASCS active sampling.
//   - SolveSchedule and the theorem bounds: the §6 theory, usable
//     standalone for sizing deployments.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package ascs

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// EngineKind selects the sketching engine.
type EngineKind int

const (
	// EngineASCS is the paper's active-sampling engine (default).
	EngineASCS EngineKind = iota
	// EngineCS is the vanilla Count Sketch baseline.
	EngineCS
	// EngineASketch is the Augmented Sketch baseline (§8.3).
	EngineASketch
	// EngineColdFilter is the Cold Filter baseline (§8.3; the paper skips
	// its evaluation for similarity to ASketch — included for
	// completeness).
	EngineColdFilter
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineASCS:
		return "ASCS"
	case EngineCS:
		return "CS"
	case EngineASketch:
		return "ASketch"
	case EngineColdFilter:
		return "ColdFilter"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Config configures an Estimator.
type Config struct {
	// Dim is the feature dimensionality d. Required.
	Dim int
	// Samples is the total stream length T (an upper bound is fine; the
	// τ schedule and 1/T scaling are calibrated to it). Required.
	Samples int
	// Tables is the number of hash tables K (default 5, as in §8.1).
	Tables int
	// MemoryFloats is the total sketch budget M in float64 cells; the
	// per-table range is R = M/K. Required (or set Range).
	MemoryFloats int
	// Range overrides R directly when non-zero.
	Range int
	// Alpha is the assumed fraction of signal pairs (§8.1 notes the
	// choice is subjective; 0.005 is a reasonable default for sparse
	// matrices). Used to pick the signal strength u from the warm-up.
	Alpha float64
	// Engine selects the sketching algorithm (default EngineASCS).
	Engine EngineKind
	// Standardize rescales features to unit variance using the warm-up
	// prefix, so estimates approximate correlations rather than second
	// moments (§5). Default true.
	Standardize *bool
	// WarmupFraction is the prefix share used to fit standardization and
	// explore the μ̂ distribution (default 0.05 as in §8.3, with a small
	// floor so sparse pairs can recur).
	WarmupFraction float64
	// TrackCandidates bounds the retrieval candidate set for huge p
	// (default: exhaustive retrieval when p ≤ 20M, else 1<<16
	// candidates).
	TrackCandidates int
	// Seed makes the run deterministic (default 1).
	Seed uint64
}

func (c *Config) fill() error {
	if c.Dim < 2 {
		return fmt.Errorf("ascs: Dim must be ≥ 2, got %d", c.Dim)
	}
	if c.Samples < 4 {
		return fmt.Errorf("ascs: Samples must be ≥ 4, got %d", c.Samples)
	}
	if c.Tables == 0 {
		c.Tables = 5
	}
	if c.Tables < 1 || c.Tables > 64 {
		return fmt.Errorf("ascs: Tables must be in [1,64], got %d", c.Tables)
	}
	if c.Range == 0 {
		if c.MemoryFloats <= 0 {
			return fmt.Errorf("ascs: set MemoryFloats or Range")
		}
		c.Range = c.MemoryFloats / c.Tables
	}
	if c.Range < 2 {
		return fmt.Errorf("ascs: Range %d too small (memory budget under 2 cells/table)", c.Range)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.005
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("ascs: Alpha must be in (0,1), got %v", c.Alpha)
	}
	if c.Standardize == nil {
		t := true
		c.Standardize = &t
	}
	if c.WarmupFraction == 0 {
		c.WarmupFraction = 0.05
	}
	if c.WarmupFraction < 0 || c.WarmupFraction > 0.5 {
		return fmt.Errorf("ascs: WarmupFraction must be in (0, 0.5], got %v", c.WarmupFraction)
	}
	if c.TrackCandidates == 0 {
		if pairs.Count(c.Dim) > 20_000_000 {
			c.TrackCandidates = 1 << 16
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Pair is one reported feature pair with its estimated mean (the
// estimated correlation when standardization is on).
type Pair struct {
	A, B     int
	Estimate float64
}

// Estimator runs the end-to-end workflow: it buffers a warm-up prefix,
// fits standardization and the §8.1 hyper-parameters on it, replays it
// into the chosen engine, then streams the remainder one-pass.
type Estimator struct {
	cfg    Config
	warmN  int
	buf    []stream.Sample
	invStd []float64
	inner  *covstream.Estimator
	solved Schedule
	ready  bool
	seen   int

	// Post-warmup scratch: the steady-state Observe path rescales into
	// scaleBuf and sparsifies dense rows into denseIdx/denseVal instead
	// of allocating per sample (the inner estimator consumes each sample
	// synchronously, so the buffers are free again on return).
	scaleBuf []float64
	denseIdx []int
	denseVal []float64
}

// NewEstimator validates cfg and returns an empty estimator.
func NewEstimator(cfg Config) (*Estimator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg, warmN: covstream.WarmupSize(cfg.WarmupFraction, cfg.Samples)}, nil
}

// Observe feeds one sparse sample: values[i] is the value of feature
// indices[i]; indices must be strictly increasing and within [0, Dim).
// The sample is consumed before Observe returns; the caller keeps
// ownership of the slices.
func (e *Estimator) Observe(indices []int, values []float64) error {
	s := stream.Sample{Idx: indices, Val: values}
	if err := s.Validate(e.cfg.Dim); err != nil {
		return err
	}
	return e.observe(s)
}

// ObserveDense feeds one dense sample of length Dim.
func (e *Estimator) ObserveDense(row []float64) error {
	if len(row) != e.cfg.Dim {
		return fmt.Errorf("ascs: dense row has length %d, want %d", len(row), e.cfg.Dim)
	}
	// Sparsify into reusable scratch: observe either clones (warm-up
	// buffering) or consumes the sample synchronously.
	e.denseIdx, e.denseVal = e.denseIdx[:0], e.denseVal[:0]
	for i, v := range row {
		if v != 0 {
			e.denseIdx = append(e.denseIdx, i)
			e.denseVal = append(e.denseVal, v)
		}
	}
	return e.observe(stream.Sample{Idx: e.denseIdx, Val: e.denseVal})
}

// observe consumes s synchronously; it clones only while the warm-up
// prefix must be buffered.
func (e *Estimator) observe(s stream.Sample) error {
	if e.seen >= e.cfg.Samples {
		return fmt.Errorf("ascs: stream exceeds configured Samples=%d", e.cfg.Samples)
	}
	e.seen++
	if !e.ready {
		e.buf = append(e.buf, s.Clone())
		if len(e.buf) >= e.warmN || e.seen == e.cfg.Samples {
			if err := e.finishWarmup(); err != nil {
				return err
			}
		}
		return nil
	}
	return e.inner.Observe(e.scaleInto(s))
}

// finishWarmup fits standardization, derives the schedule, builds the
// engine, and replays the buffered prefix.
func (e *Estimator) finishWarmup() error {
	cfg := e.cfg
	// Standardization factors from the buffered prefix.
	e.invStd = make([]float64, cfg.Dim)
	if *cfg.Standardize {
		st, err := stream.NewStandardizer(stream.NewSliceSource(e.buf, cfg.Dim), len(e.buf), false)
		if err != nil {
			return err
		}
		copy(e.invStd, st.InvStds())
	} else {
		for i := range e.invStd {
			e.invStd[i] = 1
		}
	}
	scaled := make([]stream.Sample, len(e.buf))
	for i, s := range e.buf {
		scaled[i] = e.scale(s)
	}

	var eng sketchapi.Engine
	skCfg := countsketch.Config{Tables: cfg.Tables, Range: cfg.Range, Seed: cfg.Seed}
	switch cfg.Engine {
	case EngineCS:
		ms, err := countsketch.NewMeanSketch(skCfg, cfg.Samples)
		if err != nil {
			return err
		}
		eng = ms
	case EngineASketch:
		filterCap := cfg.Tables * cfg.Range / 100
		if filterCap < 8 {
			filterCap = 8
		}
		ask, err := baselines.NewASketch(skCfg, cfg.Samples, filterCap)
		if err != nil {
			return err
		}
		eng = ask
	case EngineColdFilter:
		// Layer 1 takes a quarter of the budget; saturation threshold in
		// final-mean units, anchored well below plausible signals.
		l1 := countsketch.Config{Tables: cfg.Tables, Range: maxIntAscs(cfg.Range/4, 2), Seed: cfg.Seed ^ 0x1f}
		l2 := countsketch.Config{Tables: cfg.Tables, Range: maxIntAscs(cfg.Range-l1.Range, 2), Seed: cfg.Seed}
		cf, err := baselines.NewColdFilter(l1, l2, cfg.Samples, 0.05)
		if err != nil {
			return err
		}
		eng = cf
	case EngineASCS:
		// The exploration sketch is transient; give it a roomy range so
		// the μ̂ census is not buried in collision noise at tight budgets.
		rWarm := cfg.Range
		if rWarm < 1<<16 {
			rWarm = 1 << 16
		}
		warm, err := covstream.Warmup(stream.NewSliceSource(scaled, cfg.Dim), len(scaled),
			countsketch.Config{Tables: cfg.Tables, Range: rWarm, Seed: cfg.Seed ^ 0x9c3},
			0, int64(cfg.Seed))
		if err != nil {
			return err
		}
		params := warm.ASCSParams(cfg.Alpha, cfg.Samples, cfg.Tables, cfg.Range)
		engine, hp, err := core.NewAuto(params, cfg.Seed, true)
		if err != nil {
			return err
		}
		e.solved = scheduleFrom(hp)
		eng = engine
	default:
		return fmt.Errorf("ascs: unknown engine %v", cfg.Engine)
	}

	inner, err := covstream.New(covstream.Config{
		Dim: cfg.Dim, T: cfg.Samples, Engine: eng, TrackCandidates: cfg.TrackCandidates,
	})
	if err != nil {
		return err
	}
	for _, s := range scaled {
		if err := inner.Observe(s); err != nil {
			return err
		}
	}
	e.inner = inner
	e.buf = nil
	e.ready = true
	return nil
}

// scale returns a standardized copy of s that owns its value slice
// (warm-up replay buffers these).
func (e *Estimator) scale(s stream.Sample) stream.Sample {
	out := stream.Sample{Idx: s.Idx, Val: make([]float64, len(s.Val))}
	for i, ix := range s.Idx {
		out.Val[i] = s.Val[i] * e.invStd[ix]
	}
	return out
}

// scaleInto standardizes s into the reusable scratch buffer — the
// alloc-free steady-state path (the inner estimator consumes the sample
// synchronously and retains nothing).
func (e *Estimator) scaleInto(s stream.Sample) stream.Sample {
	if cap(e.scaleBuf) < len(s.Val) {
		e.scaleBuf = make([]float64, len(s.Val))
	}
	buf := e.scaleBuf[:len(s.Val)]
	for i, ix := range s.Idx {
		buf[i] = s.Val[i] * e.invStd[ix]
	}
	return stream.Sample{Idx: s.Idx, Val: buf}
}

func maxIntAscs(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// flushIfNeeded finalizes warm-up when the caller asks for results
// before the warm-up buffer filled (short streams).
func (e *Estimator) flushIfNeeded() error {
	if e.ready {
		return nil
	}
	if len(e.buf) == 0 {
		return fmt.Errorf("ascs: no samples observed")
	}
	return e.finishWarmup()
}

// Top returns the k pairs with the largest estimates.
func (e *Estimator) Top(k int) ([]Pair, error) {
	if err := e.flushIfNeeded(); err != nil {
		return nil, err
	}
	top, err := e.inner.Top(k)
	if err != nil {
		return nil, err
	}
	out := make([]Pair, len(top))
	for i, pe := range top {
		out[i] = Pair{A: pe.A, B: pe.B, Estimate: pe.Estimate}
	}
	return out, nil
}

// TopMagnitude returns the k pairs with the largest |estimate|, so
// strong negative correlations surface alongside positive ones.
func (e *Estimator) TopMagnitude(k int) ([]Pair, error) {
	if err := e.flushIfNeeded(); err != nil {
		return nil, err
	}
	top, err := e.inner.TopMagnitude(k)
	if err != nil {
		return nil, err
	}
	out := make([]Pair, len(top))
	for i, pe := range top {
		out[i] = Pair{A: pe.A, B: pe.B, Estimate: pe.Estimate}
	}
	return out, nil
}

// Estimate returns the current estimate for the pair (a, b) — the
// estimated correlation when standardization is on. Before the stream
// completes the estimate is scaled by t/T.
func (e *Estimator) Estimate(a, b int) (float64, error) {
	if err := e.flushIfNeeded(); err != nil {
		return 0, err
	}
	if a == b || a < 0 || b < 0 || a >= e.cfg.Dim || b >= e.cfg.Dim {
		return 0, fmt.Errorf("ascs: invalid pair (%d,%d) for Dim=%d", a, b, e.cfg.Dim)
	}
	return e.inner.EstimatePair(a, b), nil
}

// Schedule returns the solved ASCS schedule (zero value for other
// engines or before warm-up completes).
func (e *Estimator) Schedule() Schedule { return e.solved }

// Observed returns the number of samples consumed so far.
func (e *Estimator) Observed() int { return e.seen }

// MemoryBytes reports the engine's sketch footprint (0 before warm-up).
func (e *Estimator) MemoryBytes() int {
	if !e.ready {
		return 0
	}
	return e.inner.Engine().Bytes()
}
