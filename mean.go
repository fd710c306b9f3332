package ascs

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/countsketch"
)

// MeanConfig configures a MeanSketch, the generic online sparse-mean
// estimator over uint64 keys (§3's abstract problem).
type MeanConfig struct {
	// Tables and Range are the sketch shape K × R. Required.
	Tables, Range int
	// Samples is the stream length T. Required.
	Samples int
	// Seed makes hashing deterministic (default 1).
	Seed uint64
	// Schedule, when non-zero, activates ASCS sampling with the given
	// schedule (solve one with SolveSchedule). Zero runs vanilla CS.
	Schedule Schedule
	// OneSided gates on μ̂ ≥ τ instead of |μ̂| ≥ τ (Algorithm 2 as
	// written; the default two-sided gate matches Theorems 1–2).
	OneSided bool
}

// MeanSketch estimates the per-key mean of a keyed stream in sub-linear
// memory. At each time step t = 1..T call BeginStep(t) once, then Offer
// each observed (key, value); Estimate answers μ̂ at any time.
type MeanSketch struct {
	cs   *countsketch.MeanSketch
	eng  *core.Engine
	kind string
}

// NewMeanSketch builds a vanilla-CS or ASCS mean estimator.
func NewMeanSketch(cfg MeanConfig) (*MeanSketch, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	skCfg := countsketch.Config{Tables: cfg.Tables, Range: cfg.Range, Seed: cfg.Seed}
	if cfg.Schedule == (Schedule{}) {
		cs, err := countsketch.NewMeanSketch(skCfg, cfg.Samples)
		if err != nil {
			return nil, err
		}
		return &MeanSketch{cs: cs, kind: "CS"}, nil
	}
	if cfg.Schedule.T != cfg.Samples {
		return nil, fmt.Errorf("ascs: schedule solved for T=%d but Samples=%d", cfg.Schedule.T, cfg.Samples)
	}
	eng, err := core.NewEngine(skCfg, cfg.Schedule.toCore(), !cfg.OneSided)
	if err != nil {
		return nil, err
	}
	return &MeanSketch{eng: eng, kind: "ASCS"}, nil
}

// BeginStep announces the 1-based time step for subsequent offers.
func (m *MeanSketch) BeginStep(t int) {
	if m.eng != nil {
		m.eng.BeginStep(t)
		return
	}
	m.cs.BeginStep(t)
}

// Offer presents one observation X_key^{(t)} = x.
func (m *MeanSketch) Offer(key uint64, x float64) {
	if m.eng != nil {
		m.eng.Offer(key, x)
		return
	}
	m.cs.Offer(key, x)
}

// Estimate returns the estimated mean of key (scaled by t/T before the
// stream completes).
func (m *MeanSketch) Estimate(key uint64) float64 {
	if m.eng != nil {
		return m.eng.Estimate(key)
	}
	return m.cs.Estimate(key)
}

// OfferEstimate is the fused fast path: Offer plus the post-offer
// estimate off a single hash of the key (the per-call pair hashes it up
// to three times). admitted is false only when the ASCS gate rejected
// the observation.
func (m *MeanSketch) OfferEstimate(key uint64, x float64) (est float64, admitted bool) {
	if m.eng != nil {
		return m.eng.OfferEstimate(key, x)
	}
	return m.cs.OfferEstimate(key, x)
}

// OfferPairs is the batch form of OfferEstimate for one time step: it
// offers every (keys[i], xs[i]) in order and, when ests is non-nil
// (length len(keys)), fills it with the post-offer estimates.
func (m *MeanSketch) OfferPairs(keys []uint64, xs []float64, ests []float64) {
	if m.eng != nil {
		m.eng.OfferPairs(keys, xs, ests)
		return
	}
	m.cs.OfferPairs(keys, xs, ests)
}

// OfferRow is the row-level form of OfferPairs: it offers partner j as
// the pair (rowBase+partners[j], xs[j]) in order — bit-identical to
// OfferPairs over caller-materialized keys (the add wraps mod 2^64;
// pairs row bases may be −1 as a uint64) — but lets the engine expand
// the keys internally with a vector add per wave group. ests is nil or
// len(partners), filled with the per-offer post-estimates.
func (m *MeanSketch) OfferRow(rowBase uint64, partners []uint64, xs []float64, ests []float64) {
	if m.eng != nil {
		m.eng.OfferRow(rowBase, partners, xs, ests)
		return
	}
	m.cs.OfferRow(rowBase, partners, xs, ests)
}

// SetWaveGroup sets the group size G of the wave-pipelined OfferPairs
// path of the underlying engine (g ≤ 1 selects the scalar per-pair
// loop; the default is the tuned group of internal/countsketch). State
// and estimates are bit-identical at any setting — the knob only
// controls how aggressively the batch path overlaps its table-cell
// cache misses. Not safe concurrently with offers.
func (m *MeanSketch) SetWaveGroup(g int) {
	if m.eng != nil {
		m.eng.SetWaveGroup(g)
		return
	}
	m.cs.SetWaveGroup(g)
}

// WaveGroup reports the wave group size in force (1 = scalar path).
func (m *MeanSketch) WaveGroup() int {
	if m.eng != nil {
		return m.eng.WaveGroup()
	}
	return m.cs.WaveGroup()
}

// Kind reports "CS" or "ASCS".
func (m *MeanSketch) Kind() string { return m.kind }

// MemoryBytes reports the table footprint.
func (m *MeanSketch) MemoryBytes() int {
	if m.eng != nil {
		return m.eng.Bytes()
	}
	return m.cs.Bytes()
}

// SampledFraction reports, for ASCS, the fraction of sampling-period
// offers that passed the gate (NaN for CS or before sampling).
func (m *MeanSketch) SampledFraction() float64 {
	if m.eng == nil {
		return math.NaN()
	}
	f, _, _ := m.eng.SampledFraction()
	return f
}

// WriteTo checkpoints the sketch (kind tag, schedule state if ASCS, and
// table contents); ReadMeanSketchFrom restores it for resumption or
// offline retrieval.
func (m *MeanSketch) WriteTo(w io.Writer) (int64, error) {
	var tag [1]byte
	if m.eng != nil {
		tag[0] = 1
	}
	n, err := w.Write(tag[:])
	total := int64(n)
	if err != nil {
		return total, err
	}
	var sn int64
	if m.eng != nil {
		sn, err = m.eng.WriteTo(w)
	} else {
		sn, err = m.cs.WriteTo(w)
	}
	return total + sn, err
}

// ReadMeanSketchFrom restores a MeanSketch written by WriteTo.
func ReadMeanSketchFrom(r io.Reader) (*MeanSketch, error) {
	var tag [1]byte
	if _, err := io.ReadFull(r, tag[:]); err != nil {
		return nil, fmt.Errorf("ascs: reading sketch tag: %w", err)
	}
	switch tag[0] {
	case 0:
		cs, err := countsketch.ReadMeanSketchFrom(r)
		if err != nil {
			return nil, err
		}
		return &MeanSketch{cs: cs, kind: "CS"}, nil
	case 1:
		eng, err := core.ReadEngineFrom(r)
		if err != nil {
			return nil, err
		}
		return &MeanSketch{eng: eng, kind: "ASCS"}, nil
	default:
		return nil, fmt.Errorf("ascs: unknown sketch tag %d", tag[0])
	}
}
