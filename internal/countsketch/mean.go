package countsketch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/sketchapi"
)

// MeanSketch adapts a Count Sketch to the Ingestor contract for online
// mean estimation (the paper's Algorithm 1): every offered value is
// inserted scaled by 1/T, so the retrieval at the end of the stream is
// the estimated mean μ̂_i. This is the "vanilla CS" baseline.
type MeanSketch struct {
	sk   *Sketch
	invT float64
	t    int

	// decay/lambda/neff implement sketchapi.Decayer: in decay mode
	// BeginStep ages the sketch by λ per step (lazily, via the sketch's
	// scale accumulator) and invT normalizes by the effective window
	// instead of a stream horizon. See the Sketch type comment.
	decay  bool
	lambda float64
	neff   float64

	// slots is the reusable slot scratch of the fused offer methods
	// (single-writer by the Ingestor contract; kept off the stack so it
	// does not escape through the hash-family interface call).
	slots [MaxTables]Slot

	// wave is the group-size state and lazily built scratch of the
	// wave-pipelined OfferPairs path (sketchapi.WaveTuner).
	wave WaveTune

	// Health telemetry: CS has no gate, so every offer is admitted mass;
	// wave groups split into the staged pure-ingest path and the
	// estimate-shape fallback (post-add estimates recompute from the
	// table per pair).
	inserts     uint64
	mass        float64
	waveGroups  uint64
	waveFbShape uint64
}

var (
	_ sketchapi.OfferEstimator = (*MeanSketch)(nil)
	_ sketchapi.RowOfferer     = (*MeanSketch)(nil)
	_ sketchapi.Decayer        = (*MeanSketch)(nil)
	_ sketchapi.WaveTuner      = (*MeanSketch)(nil)
	_ sketchapi.HealthReporter = (*MeanSketch)(nil)
	_ sketchapi.Folder         = (*MeanSketch)(nil)
	_ sketchapi.FoldedWriter   = (*MeanSketch)(nil)
)

// NewMeanSketch creates the vanilla-CS engine for a stream of exactly (or
// at most) totalSamples steps.
func NewMeanSketch(cfg Config, totalSamples int) (*MeanSketch, error) {
	if totalSamples <= 0 {
		return nil, fmt.Errorf("countsketch: totalSamples must be positive, got %d", totalSamples)
	}
	sk, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &MeanSketch{sk: sk, invT: 1 / float64(totalSamples), lambda: 1}, nil
}

// NewMeanSketchDecayed creates the vanilla-CS engine in exponential-
// decay (unbounded-stream) mode: every step ages the table by lambda
// and inserts are normalized by the window (the λ=1−1/window analogue
// of the horizon T), so the estimate converges to the λ-weighted mean
// with no horizon to exhaust. lambda = 1 keeps the arithmetic
// bit-identical to NewMeanSketch(cfg, window) while lifting the bound.
func NewMeanSketchDecayed(cfg Config, window int, lambda float64) (*MeanSketch, error) {
	if err := sketchapi.ValidateDecay(lambda); err != nil {
		return nil, err
	}
	m, err := NewMeanSketch(cfg, window)
	if err != nil {
		return nil, err
	}
	m.decay = true
	m.lambda = lambda
	return m, nil
}

// BeginStep records the current time step, applying the decay ticks of
// the steps advanced when in decay mode.
func (m *MeanSketch) BeginStep(t int) {
	if m.decay {
		if steps := t - m.t; steps > 0 {
			m.sk.Decay(sketchapi.DecayPow(m.lambda, steps))
			m.neff = sketchapi.AdvanceEffective(m.neff, m.lambda, steps)
		}
	}
	m.t = t
}

// Decaying implements sketchapi.Decayer.
func (m *MeanSketch) Decaying() bool { return m.decay }

// DecayFactor implements sketchapi.Decayer.
func (m *MeanSketch) DecayFactor() float64 { return m.lambda }

// EffectiveSamples implements sketchapi.Decayer (N_eff = t in fixed
// mode and at λ = 1).
func (m *MeanSketch) EffectiveSamples() float64 {
	if m.decay {
		return m.neff
	}
	return float64(m.t)
}

// Offer inserts x/T for key.
func (m *MeanSketch) Offer(key uint64, x float64) {
	m.inserts++
	m.mass += math.Abs(x)
	m.sk.Add(key, x*m.invT)
}

// Estimate returns the current (t/T-scaled) mean estimate.
func (m *MeanSketch) Estimate(key uint64) float64 { return m.sk.Estimate(key) }

// EstimateKeys implements sketchapi.OfferEstimator: Estimate of every
// key, read through the wave stages in groups of the WaveTune size.
func (m *MeanSketch) EstimateKeys(keys []uint64, out []float64) {
	w, g := m.wave.Scratch(m.sk.K())
	m.sk.EstimateKeys(w, g, keys, out)
}

// OfferEstimate implements sketchapi.OfferEstimator: insert and
// post-insert estimate off one Locate (the per-call path hashes twice).
func (m *MeanSketch) OfferEstimate(key uint64, x float64) (float64, bool) {
	m.inserts++
	m.mass += math.Abs(x)
	m.sk.Locate(key, &m.slots)
	return m.sk.AddSlotsEstimate(&m.slots, x*m.invT), true
}

// OfferPairs implements the batch fast path for one time step via the
// wave pipeline: each group of G pairs is hashed in one dispatch
// (LocateBatch), its K·G cells are touched so the misses overlap, and
// the inserts then run on warm lines. CS has no admission gate, so the
// per-pair insert order is replayed exactly (adds to a shared cell
// land in the same order as the scalar loop) and the result is
// bit-identical at any G with no conflict screening needed.
func (m *MeanSketch) OfferPairs(keys []uint64, xs []float64, ests []float64) {
	w, g := m.wave.Scratch(m.sk.K())
	if g <= 1 {
		m.offerPairsScalar(keys, xs, ests)
		return
	}
	for lo := 0; lo < len(keys); lo += g {
		hi := lo + g
		if hi > len(keys) {
			hi = len(keys)
		}
		var sub []float64
		if ests != nil {
			sub = ests[lo:hi]
		}
		m.offerWave(w, keys[lo:hi], xs[lo:hi], sub)
	}
}

// offerWave processes one group of ≤ G pairs — the shared wave group
// body of OfferPairs and the RowOfferer path. ests is nil or len(keys).
func (m *MeanSketch) offerWave(w *Wave, keys []uint64, xs []float64, ests []float64) {
	n := len(keys)
	m.waveGroups++
	slots := w.Slots(n)
	m.sk.LocateBatch(keys, slots)
	w.Sink += m.sk.TouchSlots(slots)
	if ests == nil {
		vs := w.Vs(n)
		for i := 0; i < n; i++ {
			vs[i] = xs[i] * m.invT
			m.mass += math.Abs(xs[i])
		}
		m.inserts += uint64(n)
		m.sk.AddSlotsBatch(slots, vs, nil, nil, nil)
		return
	}
	// The scalar contract recomputes the post-add estimate from the
	// table (not the median shift), so the estimating path replays
	// the per-pair order on the touched cells, each step one fused
	// add-and-estimate.
	m.waveFbShape++
	for i := 0; i < n; i++ {
		m.inserts++
		m.mass += math.Abs(xs[i])
		ests[i] = m.sk.AddSlotsEstimate(w.At(i), xs[i]*m.invT)
	}
}

// OfferRow implements sketchapi.RowOfferer: one row's pairs
// (rowBase+partners[j], x[j]) with the key materialization amortized to
// one wrapping vector add per wave group, then the same group body as
// OfferPairs. Bit-identical to OfferPairs over the materialized keys
// at any group size (scalar per-pair at g ≤ 1).
func (m *MeanSketch) OfferRow(rowBase uint64, partners []uint64, x []float64, ests []float64) {
	w, g := m.wave.Scratch(m.sk.K())
	if g <= 1 {
		for j, p := range partners {
			if ests == nil {
				m.Offer(rowBase+p, x[j])
			} else {
				ests[j], _ = m.OfferEstimate(rowBase+p, x[j])
			}
		}
		return
	}
	WalkRowGroups(w, g, rowBase, partners, x, ests,
		func(keys []uint64, xs []float64, sub []float64) { m.offerWave(w, keys, xs, sub) })
}

// OfferRows implements sketchapi.RowOfferer: one sample's whole upper
// triangle in row-major order, groups packed across row boundaries.
func (m *MeanSketch) OfferRows(bases, ids []uint64, left, right []float64, ests []float64) {
	w, g := m.wave.Scratch(m.sk.K())
	if g <= 1 {
		p := 0
		for i := 0; i+1 < len(ids); i++ {
			base, li := bases[i], left[i]
			for j := i + 1; j < len(ids); j++ {
				if ests == nil {
					m.Offer(base+ids[j], li*right[j])
				} else {
					ests[p], _ = m.OfferEstimate(base+ids[j], li*right[j])
				}
				p++
			}
		}
		return
	}
	WalkRowsGroups(w, g, bases, ids, left, right, ests,
		func(keys []uint64, xs []float64, sub []float64) { m.offerWave(w, keys, xs, sub) })
}

// offerPairsScalar is the pre-wave batch loop, kept as the wave path's
// differential reference (sketchapi.WaveTuner, g = 1).
func (m *MeanSketch) offerPairsScalar(keys []uint64, xs []float64, ests []float64) {
	for i, key := range keys {
		m.inserts++
		m.mass += math.Abs(xs[i])
		m.sk.Locate(key, &m.slots)
		if ests != nil {
			ests[i] = m.sk.AddSlotsEstimate(&m.slots, xs[i]*m.invT)
		} else {
			m.sk.AddSlots(&m.slots, xs[i]*m.invT)
		}
	}
}

// SetWaveGroup implements sketchapi.WaveTuner (g ≤ 1 = scalar loop).
// Not safe concurrently with offers.
func (m *MeanSketch) SetWaveGroup(g int) { m.wave.Set(g) }

// WaveGroup implements sketchapi.WaveTuner.
func (m *MeanSketch) WaveGroup() int { return m.wave.Group() }

// Health implements sketchapi.HealthReporter: CS has no admission
// gate, so every offer lands in ExplorationInserts/AdmittedMass and the
// gate counters stay zero. Call from the owning goroutine.
func (m *MeanSketch) Health() sketchapi.Health {
	return sketchapi.Health{
		ExplorationInserts: m.inserts,
		AdmittedMass:       m.mass,
		DecayRenorms:       m.sk.Renorms(),
		WaveGroups:         m.waveGroups,
		WaveFallbackShape:  m.waveFbShape,
	}
}

// Bytes reports the table footprint.
func (m *MeanSketch) Bytes() int { return m.sk.Bytes() }

// Name identifies the engine.
func (m *MeanSketch) Name() string { return "CS" }

// Sketch exposes the underlying Count Sketch (read-mostly; used by
// diagnostics and the ASCS warm-start path).
func (m *MeanSketch) Sketch() *Sketch { return m.sk }

// Fold implements sketchapi.Folder by folding the underlying table.
func (m *MeanSketch) Fold(levels int) error { return m.sk.Fold(levels) }

// Unfold implements sketchapi.Folder.
func (m *MeanSketch) Unfold() { m.sk.Unfold() }

// FoldLevel implements sketchapi.Folder.
func (m *MeanSketch) FoldLevel() int { return m.sk.FoldLevel() }

// MaxFoldLevels implements sketchapi.Folder.
func (m *MeanSketch) MaxFoldLevels() int { return m.sk.MaxFoldLevels() }

// Mean-sketch serialization magics: v1 is the fixed-horizon layout, v2
// appends the decay parameters (λ, N_eff) and marks the engine
// unbounded. Fixed-horizon engines keep writing v1 byte-identically.
const (
	meanMagic   = uint32(0xA5C5C501)
	meanMagicV2 = uint32(0xA5C5C502)
)

// WriteTo serializes the engine (stream length or window, step
// position, decay state, table contents) for checkpoint/resume.
func (m *MeanSketch) WriteTo(w io.Writer) (int64, error) {
	return m.writeTo(w, m.sk.WriteTo)
}

// writeTo is the shared body of WriteTo and WriteToFolded: the engine
// header followed by the sketch via writeSketch.
func (m *MeanSketch) writeTo(w io.Writer, writeSketch func(io.Writer) (int64, error)) (int64, error) {
	hdr := make([]byte, 4+16, 4+32)
	binary.LittleEndian.PutUint32(hdr[0:], meanMagic)
	// Round, don't truncate: 1/(1/T) can land one ulp below T (~7% of
	// integer T), and a truncated T-1 would silently re-normalize every
	// post-restore insert by the wrong stream length.
	total := uint64(math.Round(1 / m.invT))
	binary.LittleEndian.PutUint64(hdr[4:], total)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(m.t))
	if m.decay {
		binary.LittleEndian.PutUint32(hdr[0:], meanMagicV2)
		hdr = hdr[:4+32]
		binary.LittleEndian.PutUint64(hdr[20:], math.Float64bits(m.lambda))
		binary.LittleEndian.PutUint64(hdr[28:], math.Float64bits(m.neff))
	}
	n, err := w.Write(hdr)
	written := int64(n)
	if err != nil {
		return written, err
	}
	sn, err := writeSketch(w)
	return written + sn, err
}

// WriteToFolded implements sketchapi.FoldedWriter: the engine header is
// unchanged, the table streams pre-folded to the given level.
func (m *MeanSketch) WriteToFolded(w io.Writer, level int) (int64, error) {
	return m.writeTo(w, func(w io.Writer) (int64, error) { return m.sk.WriteToFolded(w, level) })
}

// ReadMeanSketchFrom reconstructs a MeanSketch written by WriteTo
// (either format version).
func ReadMeanSketchFrom(r io.Reader) (*MeanSketch, error) {
	hdr := make([]byte, 4+16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("countsketch: reading mean header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic != meanMagic && magic != meanMagicV2 {
		return nil, fmt.Errorf("countsketch: bad mean-sketch magic")
	}
	total := binary.LittleEndian.Uint64(hdr[4:])
	if total == 0 {
		return nil, fmt.Errorf("countsketch: corrupt stream length")
	}
	m := &MeanSketch{invT: 1 / float64(total), t: int(binary.LittleEndian.Uint64(hdr[12:])), lambda: 1}
	if magic == meanMagicV2 {
		var ext [16]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return nil, fmt.Errorf("countsketch: reading mean decay state: %w", err)
		}
		m.decay = true
		m.lambda = math.Float64frombits(binary.LittleEndian.Uint64(ext[0:]))
		m.neff = math.Float64frombits(binary.LittleEndian.Uint64(ext[8:]))
		if err := sketchapi.ValidateDecay(m.lambda); err != nil {
			return nil, fmt.Errorf("countsketch: corrupt mean decay factor: %w", err)
		}
	}
	sk, err := ReadFrom(r)
	if err != nil {
		return nil, err
	}
	m.sk = sk
	return m, nil
}
