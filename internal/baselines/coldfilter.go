package baselines

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
)

// ColdFilter is the Cold Filter adaptation: a small layer-1 sketch
// absorbs updates for a key until that key's layer-1 estimate magnitude
// saturates at a threshold; subsequent updates overflow into the
// higher-fidelity layer-2 sketch. Cold (low-mean) keys thus never touch
// layer 2, whose buckets stay clean for the hot keys — the same
// noise-segregation idea as ASCS, but with a static two-layer split
// instead of an adaptive threshold schedule. Estimates sum both layers,
// since a key's mass may be split across them.
type ColdFilter struct {
	l1, l2 *countsketch.Sketch
	thresh float64
	invT   float64
	t      int

	// decay/lambda/neff implement sketchapi.Decayer: both layers age by
	// λ per step (lazily, via each sketch's scale accumulator). The
	// saturation threshold stays fixed — it is in mean units, which do
	// not decay.
	decay  bool
	lambda float64
	neff   float64

	// s1/s2 are the reusable slot scratches of the fused offer methods
	// (single-writer by the Ingestor contract; kept off the stack so
	// they do not escape through the hash-family interface call).
	s1, s2 [countsketch.MaxTables]countsketch.Slot

	// wave is the group-size state and lazily built scratch of the
	// wave-pipelined OfferPairs path over the layer-1 sketch
	// (sketchapi.WaveTuner). Layer 2 sees only the overflow trickle of
	// saturated keys, so it stays on per-key locates.
	wave countsketch.WaveTune
	// l2wave is the layer-2 scratch of the EstimateKeys read, which
	// stages both layers; its group follows wave's.
	l2wave countsketch.WaveTune

	// Health telemetry: the filter absorbs every offer (no rejection),
	// so all mass is admitted; waveGroups counts hash/touch-staged
	// groups over layer 1.
	inserts    uint64
	mass       float64
	waveGroups uint64
}

var (
	_ sketchapi.OfferEstimator = (*ColdFilter)(nil)
	_ sketchapi.RowOfferer     = (*ColdFilter)(nil)
	_ sketchapi.Decayer        = (*ColdFilter)(nil)
	_ sketchapi.Snapshotter    = (*ColdFilter)(nil)
	_ sketchapi.WaveTuner      = (*ColdFilter)(nil)
	_ sketchapi.HealthReporter = (*ColdFilter)(nil)
	_ sketchapi.Folder         = (*ColdFilter)(nil)
	_ sketchapi.FoldedWriter   = (*ColdFilter)(nil)
)

// NewColdFilter builds the engine. l1cfg is typically much smaller than
// l2cfg; threshold is in final-mean units (like the ASCS τ), i.e. a key
// starts overflowing to layer 2 once its layer-1 estimate magnitude
// reaches threshold.
func NewColdFilter(l1cfg, l2cfg countsketch.Config, totalSamples int, threshold float64) (*ColdFilter, error) {
	if totalSamples <= 0 {
		return nil, fmt.Errorf("baselines: totalSamples must be positive, got %d", totalSamples)
	}
	if threshold <= 0 || math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return nil, fmt.Errorf("baselines: threshold must be positive and finite, got %v", threshold)
	}
	l1, err := countsketch.New(l1cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: layer 1: %w", err)
	}
	l2, err := countsketch.New(l2cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: layer 2: %w", err)
	}
	return &ColdFilter{l1: l1, l2: l2, thresh: threshold, invT: 1 / float64(totalSamples), lambda: 1}, nil
}

// NewColdFilterDecayed builds the engine in exponential-decay
// (unbounded-stream) mode: window replaces the horizon as the insert
// normalizer and every step ages both layers by lambda. λ = 1 keeps the
// arithmetic bit-identical to NewColdFilter(l1, l2, window, threshold)
// while lifting the stream bound.
func NewColdFilterDecayed(l1cfg, l2cfg countsketch.Config, window int, threshold, lambda float64) (*ColdFilter, error) {
	if err := sketchapi.ValidateDecay(lambda); err != nil {
		return nil, err
	}
	c, err := NewColdFilter(l1cfg, l2cfg, window, threshold)
	if err != nil {
		return nil, err
	}
	c.decay = true
	c.lambda = lambda
	return c, nil
}

// BeginStep records the time step, applying the decay ticks of the
// steps advanced when in decay mode.
func (c *ColdFilter) BeginStep(t int) {
	if c.decay {
		if steps := t - c.t; steps > 0 {
			f := sketchapi.DecayPow(c.lambda, steps)
			c.l1.Decay(f)
			c.l2.Decay(f)
			c.neff = sketchapi.AdvanceEffective(c.neff, c.lambda, steps)
		}
	}
	c.t = t
}

// Decaying implements sketchapi.Decayer.
func (c *ColdFilter) Decaying() bool { return c.decay }

// DecayFactor implements sketchapi.Decayer.
func (c *ColdFilter) DecayFactor() float64 { return c.lambda }

// EffectiveSamples implements sketchapi.Decayer.
func (c *ColdFilter) EffectiveSamples() float64 {
	if c.decay {
		return c.neff
	}
	return float64(c.t)
}

// Offer absorbs into layer 1 until the key saturates, then into layer 2.
// The layer-1 saturation test and a layer-1 insert share one Locate.
func (c *ColdFilter) Offer(key uint64, x float64) {
	c.l1.Locate(key, &c.s1)
	c.offerWith(key, x, &c.s1)
}

// offerWith is Offer against layer-1 slots already located for key
// (the wave path pre-hashes whole groups).
func (c *ColdFilter) offerWith(key uint64, x float64, s1 *[countsketch.MaxTables]countsketch.Slot) {
	c.inserts++
	c.mass += math.Abs(x)
	v := x * c.invT
	if math.Abs(c.l1.EstimateSlots(s1)) < c.thresh {
		c.l1.AddSlots(s1, v)
		return
	}
	c.l2.Add(key, v)
}

// OfferEstimate implements sketchapi.OfferEstimator: Offer plus the
// post-offer estimate, hashing the key once per layer touched instead of
// once per gate/insert/estimate phase.
func (c *ColdFilter) OfferEstimate(key uint64, x float64) (float64, bool) {
	c.l1.Locate(key, &c.s1)
	return c.offerEstimateWith(key, x, &c.s1)
}

// offerEstimateWith is OfferEstimate against pre-located layer-1 slots.
func (c *ColdFilter) offerEstimateWith(key uint64, x float64, s1 *[countsketch.MaxTables]countsketch.Slot) (float64, bool) {
	c.inserts++
	c.mass += math.Abs(x)
	v := x * c.invT
	e1, raw1 := c.l1.EstimateSlotsWithRaw(s1)
	var e2 float64
	if math.Abs(e1) < c.thresh {
		e1 = c.l1.AddSlotsWithEstimateRaw(s1, v, raw1)
		e2 = c.l2.Estimate(key)
	} else {
		c.l2.Locate(key, &c.s2)
		e2 = c.l2.AddSlotsEstimate(&c.s2, v)
	}
	// Same clamped retrieval as Estimate (see that method's comment).
	if math.Abs(e1) > c.thresh {
		e1 = math.Copysign(c.thresh, e1)
	}
	return e1 + e2, true
}

// OfferPairs implements the batch fast path for one time step via the
// wave pipeline's hash/touch stages over layer 1: each group of G keys
// is hashed in one dispatch and its layer-1 cells touched so the
// saturation-test misses overlap, then the per-key saturate-or-overflow
// logic replays the exact scalar order on warm lines. Bit-identical to
// the scalar loop at any G.
func (c *ColdFilter) OfferPairs(keys []uint64, xs []float64, ests []float64) {
	w, g := c.wave.Scratch(c.l1.K())
	if g <= 1 {
		c.offerPairsScalar(keys, xs, ests)
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
		c.offerWave(w, keys[lo:hi], xs[lo:hi], sub)
	}
}

// offerWave processes one group of ≤ G pairs through the layer-1
// hash/touch stages, then replays the exact per-key saturate-or-
// overflow logic on warm lines — the shared wave group body of
// OfferPairs and the RowOfferer path.
func (c *ColdFilter) offerWave(w *countsketch.Wave, keys []uint64, xs []float64, ests []float64) {
	n := len(keys)
	c.waveGroups++
	slots := w.Slots(n)
	c.l1.LocateBatch(keys, slots)
	w.Sink += c.l1.TouchSlots(slots)
	for i := 0; i < n; i++ {
		sl := w.At(i)
		if ests != nil {
			ests[i], _ = c.offerEstimateWith(keys[i], xs[i], sl)
		} else {
			c.offerWith(keys[i], xs[i], sl)
		}
	}
}

// OfferRow implements sketchapi.RowOfferer: one row's pairs
// (rowBase+partners[j], x[j]) with key materialization amortized to one
// wrapping vector add per wave group, then the same group body as
// OfferPairs (layer-1 hash/touch staging + exact sequential replay).
// Bit-identical to OfferPairs over the materialized keys at any group
// size (scalar per-pair at g ≤ 1).
func (c *ColdFilter) OfferRow(rowBase uint64, partners []uint64, x []float64, ests []float64) {
	w, g := c.wave.Scratch(c.l1.K())
	if g <= 1 {
		for j, p := range partners {
			if ests == nil {
				c.Offer(rowBase+p, x[j])
			} else {
				ests[j], _ = c.OfferEstimate(rowBase+p, x[j])
			}
		}
		return
	}
	countsketch.WalkRowGroups(w, g, rowBase, partners, x, ests,
		func(keys []uint64, xs []float64, sub []float64) { c.offerWave(w, keys, xs, sub) })
}

// OfferRows implements sketchapi.RowOfferer: one sample's whole upper
// triangle in row-major order, groups packed across row boundaries.
func (c *ColdFilter) OfferRows(bases, ids []uint64, left, right []float64, ests []float64) {
	w, g := c.wave.Scratch(c.l1.K())
	if g <= 1 {
		p := 0
		for i := 0; i+1 < len(ids); i++ {
			base, li := bases[i], left[i]
			for j := i + 1; j < len(ids); j++ {
				if ests == nil {
					c.Offer(base+ids[j], li*right[j])
				} else {
					ests[p], _ = c.OfferEstimate(base+ids[j], li*right[j])
				}
				p++
			}
		}
		return
	}
	countsketch.WalkRowsGroups(w, g, bases, ids, left, right, ests,
		func(keys []uint64, xs []float64, sub []float64) { c.offerWave(w, keys, xs, sub) })
}

// offerPairsScalar is the pre-wave batch loop, kept as the wave path's
// differential reference (sketchapi.WaveTuner, g = 1).
func (c *ColdFilter) offerPairsScalar(keys []uint64, xs []float64, ests []float64) {
	for i, key := range keys {
		if ests != nil {
			ests[i], _ = c.OfferEstimate(key, xs[i])
		} else {
			c.Offer(key, xs[i])
		}
	}
}

// SetWaveGroup implements sketchapi.WaveTuner (g ≤ 1 = scalar loop).
// Not safe concurrently with offers.
func (c *ColdFilter) SetWaveGroup(g int) { c.wave.Set(g) }

// WaveGroup implements sketchapi.WaveTuner.
func (c *ColdFilter) WaveGroup() int { return c.wave.Group() }

// Estimate reports the layer-1 estimate clamped at the saturation
// threshold plus the layer-2 estimate, mirroring the original Cold
// Filter's "threshold + second stage" retrieval. Clamping keeps noisy
// layer-1 buckets from polluting hot-key answers (error bounded by the
// single-update overshoot past the threshold); always adding layer 2
// keeps a hot key's overflowed mass visible even when collision noise
// later drags its layer-1 estimate back under the threshold. Layer 2 is
// sparsely populated (only overflowed keys), so the extra term adds
// little noise for genuinely cold keys.
func (c *ColdFilter) Estimate(key uint64) float64 {
	e1 := c.l1.Estimate(key)
	if math.Abs(e1) > c.thresh {
		e1 = math.Copysign(c.thresh, e1)
	}
	return e1 + c.l2.Estimate(key)
}

// EstimateKeys implements sketchapi.OfferEstimator: per group of keys,
// both layers are read through the wave stages (each with scratch of
// its own K), then combined exactly as Estimate does — the layer-1
// estimate clamped to ±thresh by math.Copysign, plus layer 2.
func (c *ColdFilter) EstimateKeys(keys []uint64, out []float64) {
	w1, g := c.wave.Scratch(c.l1.K())
	if g <= 1 {
		for i, key := range keys {
			out[i] = c.Estimate(key)
		}
		return
	}
	c.l2wave.Set(g)
	w2, _ := c.l2wave.Scratch(c.l2.K())
	for lo := 0; lo < len(keys); lo += g {
		hi := min(lo+g, len(keys))
		e1s, e2s := out[lo:hi], w2.Ests(hi-lo)
		c.l1.EstimateGroup(w1, keys[lo:hi], e1s)
		c.l2.EstimateGroup(w2, keys[lo:hi], e2s)
		for i, e1 := range e1s {
			if math.Abs(e1) > c.thresh {
				e1 = math.Copysign(c.thresh, e1)
			}
			e1s[i] = e1 + e2s[i]
		}
	}
}

// Health implements sketchapi.HealthReporter: the filter never rejects
// an offer, so every offer is admitted mass. Call from the owning
// goroutine.
func (c *ColdFilter) Health() sketchapi.Health {
	return sketchapi.Health{
		ExplorationInserts: c.inserts,
		AdmittedMass:       c.mass,
		DecayRenorms:       c.l1.Renorms() + c.l2.Renorms(),
		WaveGroups:         c.waveGroups,
	}
}

// Bytes sums both layers.
func (c *ColdFilter) Bytes() int { return c.l1.Bytes() + c.l2.Bytes() }

// Fold implements sketchapi.Folder by folding both layers together, so
// the saturation gate and the retrieval read matching resolutions. Both
// layers must support the target level (see MaxFoldLevels); validation
// runs before either layer mutates, so a failed Fold changes nothing.
func (c *ColdFilter) Fold(levels int) error {
	if levels <= 0 {
		return fmt.Errorf("baselines: fold levels must be positive, got %d", levels)
	}
	if target := c.l1.FoldLevel() + levels; target > c.MaxFoldLevels() {
		return fmt.Errorf("baselines: cannot fold cold filter to level %d: layers support at most %d levels", target, c.MaxFoldLevels())
	}
	if err := c.l1.Fold(levels); err != nil {
		return err
	}
	return c.l2.Fold(levels)
}

// Unfold implements sketchapi.Folder.
func (c *ColdFilter) Unfold() {
	c.l1.Unfold()
	c.l2.Unfold()
}

// FoldLevel implements sketchapi.Folder (the layers move together).
func (c *ColdFilter) FoldLevel() int { return c.l1.FoldLevel() }

// MaxFoldLevels implements sketchapi.Folder: the shallower of the two
// layers' limits, since the layers fold in lockstep.
func (c *ColdFilter) MaxFoldLevels() int {
	if m1, m2 := c.l1.MaxFoldLevels(), c.l2.MaxFoldLevels(); m1 < m2 {
		return m1
	} else {
		return m2
	}
}

// Name identifies the engine.
func (c *ColdFilter) Name() string { return "ColdFilter" }

const coldFilterMagic = uint32(0xA5C5CF01)

// WriteTo implements sketchapi.Snapshotter: normalizer, step position,
// saturation threshold, decay state, then both layer sketches.
func (c *ColdFilter) WriteTo(w io.Writer) (int64, error) {
	return c.writeTo(w, -1)
}

// WriteToFolded implements sketchapi.FoldedWriter: both layers stream
// pre-folded to the given level (each clamped to its own geometry).
func (c *ColdFilter) WriteToFolded(w io.Writer, level int) (int64, error) {
	return c.writeTo(w, level)
}

// writeTo serializes with both layers folded to level (< 0 writes the
// live resolution).
func (c *ColdFilter) writeTo(w io.Writer, level int) (int64, error) {
	hdr := make([]byte, 4+8*3+1+8*2)
	binary.LittleEndian.PutUint32(hdr[0:], coldFilterMagic)
	binary.LittleEndian.PutUint64(hdr[4:], math.Float64bits(c.invT))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(c.t))
	binary.LittleEndian.PutUint64(hdr[20:], math.Float64bits(c.thresh))
	if c.decay {
		hdr[28] = 1
	}
	binary.LittleEndian.PutUint64(hdr[29:], math.Float64bits(c.lambda))
	binary.LittleEndian.PutUint64(hdr[37:], math.Float64bits(c.neff))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	writeSketch := func(sk *countsketch.Sketch, w io.Writer) (int64, error) {
		if level < 0 {
			return sk.WriteTo(w)
		}
		return sk.WriteToFolded(w, level)
	}
	sn, err := writeSketch(c.l1, w)
	total += sn
	if err != nil {
		return total, err
	}
	sn, err = writeSketch(c.l2, w)
	return total + sn, err
}

// ReadColdFilterFrom reconstructs a ColdFilter written by WriteTo.
func ReadColdFilterFrom(r io.Reader) (*ColdFilter, error) {
	hdr := make([]byte, 4+8*3+1+8*2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("baselines: reading cold-filter header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != coldFilterMagic {
		return nil, fmt.Errorf("baselines: bad cold-filter magic")
	}
	c := &ColdFilter{
		invT:   math.Float64frombits(binary.LittleEndian.Uint64(hdr[4:])),
		t:      int(binary.LittleEndian.Uint64(hdr[12:])),
		thresh: math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:])),
		decay:  hdr[28] == 1,
		lambda: math.Float64frombits(binary.LittleEndian.Uint64(hdr[29:])),
		neff:   math.Float64frombits(binary.LittleEndian.Uint64(hdr[37:])),
	}
	if !(c.invT > 0) || math.IsInf(c.invT, 0) {
		return nil, fmt.Errorf("baselines: corrupt cold-filter normalizer %v", c.invT)
	}
	if !(c.thresh > 0) || math.IsInf(c.thresh, 0) {
		return nil, fmt.Errorf("baselines: corrupt cold-filter threshold %v", c.thresh)
	}
	if err := sketchapi.ValidateDecay(c.lambda); err != nil {
		return nil, fmt.Errorf("baselines: corrupt cold-filter decay factor: %w", err)
	}
	l1, err := countsketch.ReadFrom(r)
	if err != nil {
		return nil, fmt.Errorf("baselines: layer 1: %w", err)
	}
	l2, err := countsketch.ReadFrom(r)
	if err != nil {
		return nil, fmt.Errorf("baselines: layer 2: %w", err)
	}
	c.l1, c.l2 = l1, l2
	return c, nil
}
