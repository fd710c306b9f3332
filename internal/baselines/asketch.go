// Package baselines implements the two sketch-augmentation baselines the
// paper compares against in §8.3: Augmented Sketch (Roy, Khan, Alonso,
// SIGMOD 2016) and Cold Filter (Zhou et al., SIGMOD 2018), both adapted
// from frequency counting to the signed real-valued mean-estimation
// setting of this paper.
package baselines

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
)

// ASketch is the Augmented Sketch adaptation: a small exact filter holds
// the hottest keys outside the sketch; all other keys hit the backing
// count sketch. When a sketched key's estimate overtakes the smallest
// filter entry the two swap, moving the evicted entry's accumulated value
// back into the sketch and carving the promoted key's estimate out of it.
// Filtered keys therefore answer exactly, and the hottest keys stop
// polluting sketch buckets — the same collision-reduction goal ASCS
// pursues by gating insertions.
type ASketch struct {
	sk     *countsketch.Sketch
	filter map[uint64]float64 // raw values; logical value = raw · fscale
	cap    int
	invT   float64

	// cached (approximate) minimum |value| entry of the filter, in raw
	// units; verified by a scan before any swap, so staleness only
	// costs extra scans.
	minKey uint64
	minAbs float64
	t      int

	// decay/lambda/neff back the decay methods. The sketch ages
	// lazily through its scale accumulator, and the exact filter ages
	// the same lazy way: fscale is the filter's decay accumulator
	// (logical entry = raw · fscale, finv = 1/fscale applied on
	// writes), so a decay tick is O(1) instead of a map rewrite. Raw
	// values — and hence the raw minAbs cache — are untouched by decay.
	decay  bool
	lambda float64
	neff   float64
	fscale float64
	finv   float64

	// slots is the reusable slot scratch of the fused offer methods
	// (single-writer by the Engine contract; kept off the stack so it
	// does not escape through the hash-family interface call).
	slots [countsketch.MaxTables]countsketch.Slot

	// wave is the group-size state and lazily built scratch of the
	// wave-pipelined OfferPairs path (SetWaveGroup).
	wave countsketch.WaveTune

	// Health telemetry: ASketch absorbs every offer (no gate), so all
	// mass is admitted; waveGroups counts hash/touch-staged groups.
	inserts    uint64
	mass       float64
	waveGroups uint64
}

// asketchRenormFloor is the shared lazy-decay renormalization floor
// for the filter's lazy scale.
const asketchRenormFloor = sketchapi.RenormFloor

var _ sketchapi.Engine = (*ASketch)(nil)

// NewASketch builds an Augmented Sketch engine. filterCap is the number
// of exact filter slots; totalSamples is the stream length T.
func NewASketch(cfg countsketch.Config, totalSamples, filterCap int) (*ASketch, error) {
	if totalSamples <= 0 {
		return nil, fmt.Errorf("baselines: totalSamples must be positive, got %d", totalSamples)
	}
	if filterCap < 1 {
		return nil, fmt.Errorf("baselines: filterCap must be ≥ 1, got %d", filterCap)
	}
	sk, err := countsketch.New(cfg)
	if err != nil {
		return nil, err
	}
	return &ASketch{
		sk:     sk,
		filter: make(map[uint64]float64, filterCap),
		cap:    filterCap,
		invT:   1 / float64(totalSamples),
		minAbs: math.Inf(1),
		lambda: 1,
		fscale: 1,
		finv:   1,
	}, nil
}

// NewASketchDecayed builds the engine in exponential-decay
// (unbounded-stream) mode: window replaces the horizon as the insert
// normalizer and every step ages the sketch and the exact filter by
// lambda. λ = 1 keeps the arithmetic bit-identical to
// NewASketch(cfg, window, filterCap) while lifting the stream bound.
func NewASketchDecayed(cfg countsketch.Config, window, filterCap int, lambda float64) (*ASketch, error) {
	if err := sketchapi.ValidateDecay(lambda); err != nil {
		return nil, err
	}
	a, err := NewASketch(cfg, window, filterCap)
	if err != nil {
		return nil, err
	}
	a.decay = true
	a.lambda = lambda
	return a, nil
}

// BeginStep records the time step, applying the decay ticks of the
// steps advanced when in decay mode.
func (a *ASketch) BeginStep(t int) {
	if a.decay {
		if steps := t - a.t; steps > 0 {
			f := sketchapi.DecayPow(a.lambda, steps)
			a.sk.Decay(f)
			if f != 1 {
				// Lazy O(1) filter aging; raw entries (and the raw
				// minAbs cache) are untouched.
				a.fscale *= f
				if a.fscale < asketchRenormFloor {
					for k, v := range a.filter {
						a.filter[k] = v * a.fscale
					}
					a.minAbs *= a.fscale
					a.fscale, a.finv = 1, 1
				} else {
					a.finv = 1 / a.fscale
				}
			}
			a.neff = sketchapi.AdvanceEffective(a.neff, a.lambda, steps)
		}
	}
	a.t = t
}

// Decaying implements sketchapi.Engine.
func (a *ASketch) Decaying() bool { return a.decay }

// DecayFactor implements sketchapi.Engine.
func (a *ASketch) DecayFactor() float64 { return a.lambda }

// EffectiveSamples implements sketchapi.Engine.
func (a *ASketch) EffectiveSamples() float64 {
	if a.decay {
		return a.neff
	}
	return float64(a.t)
}

// Offer routes the observation to the filter when the key is hot,
// otherwise through the sketch with a promotion check. Sketched keys are
// hashed once: the insert, the promotion-check estimate, and a possible
// promotion carve-out all reuse one Locate.
func (a *ASketch) Offer(key uint64, x float64) {
	if cur, ok := a.filter[key]; ok {
		a.inserts++
		a.mass += math.Abs(x)
		a.bumpFilter(key, cur*a.fscale+x*a.invT)
		return
	}
	a.sk.Locate(key, &a.slots)
	a.offerWith(key, x, &a.slots)
}

// offerWith is Offer against slots already located for key (the wave
// path pre-hashes whole groups; filtered keys never read them).
func (a *ASketch) offerWith(key uint64, x float64, slots *[countsketch.MaxTables]countsketch.Slot) {
	a.inserts++
	a.mass += math.Abs(x)
	v := x * a.invT
	if cur, ok := a.filter[key]; ok {
		a.bumpFilter(key, cur*a.fscale+v)
		return
	}
	a.sk.AddSlots(slots, v)
	a.offerSketched(key, slots)
}

// OfferEstimate implements sketchapi.Engine: Offer plus the
// post-offer estimate off a single Locate of the key.
func (a *ASketch) OfferEstimate(key uint64, x float64) (float64, bool) {
	a.sk.Locate(key, &a.slots)
	return a.offerEstimateWith(key, x, &a.slots)
}

// offerEstimateWith is OfferEstimate against pre-located slots.
func (a *ASketch) offerEstimateWith(key uint64, x float64, slots *[countsketch.MaxTables]countsketch.Slot) (float64, bool) {
	a.inserts++
	a.mass += math.Abs(x)
	v := x * a.invT
	if cur, ok := a.filter[key]; ok {
		nv := cur*a.fscale + v
		a.bumpFilter(key, nv)
		return nv + a.sk.EstimateSlots(slots), true
	}
	a.sk.AddSlots(slots, v)
	est, promoted := a.offerSketched(key, slots)
	if promoted {
		// Filtered keys answer their exact value plus the sketch residual.
		return est + a.sk.EstimateSlots(slots), true
	}
	return est, true
}

// OfferPairs implements the batch fast path for one time step via the
// wave pipeline's hash/touch stages: each group of G keys is hashed in
// one dispatch and its sketch cells touched so the misses overlap, then
// the filter/promotion logic replays the exact per-key order on warm
// lines (the filter's swap decisions are inherently sequential, so
// there is no gather/scatter stage here). Bit-identical to the scalar
// loop at any G.
func (a *ASketch) OfferPairs(keys []uint64, xs []float64, ests []float64) {
	w, g := a.wave.Scratch(a.sk.K())
	if g <= 1 {
		a.offerPairsScalar(keys, xs, ests)
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
		a.offerWave(w, keys[lo:hi], xs[lo:hi], sub)
	}
}

// offerWave processes one group of ≤ G pairs through the hash/touch
// stages, then replays the exact per-key filter logic on warm lines —
// the shared wave group body of OfferPairs and OfferRow.
func (a *ASketch) offerWave(w *countsketch.Wave, keys []uint64, xs []float64, ests []float64) {
	n := len(keys)
	a.waveGroups++
	slots := w.Slots(n)
	a.sk.LocateBatch(keys, slots)
	w.Sink += a.sk.TouchSlots(slots)
	for i := 0; i < n; i++ {
		sl := w.At(i)
		if ests != nil {
			ests[i], _ = a.offerEstimateWith(keys[i], xs[i], sl)
		} else {
			a.offerWith(keys[i], xs[i], sl)
		}
	}
}

// OfferRow (outside the sketchapi.Engine contract; the benchmark ladder
// calls it) offers one row's pairs (rowBase+partners[j], x[j]) with key
// materialization amortized to one wrapping vector add per wave group,
// then the same group body as OfferPairs (hash/touch staging + exact
// sequential filter replay). Bit-identical to OfferPairs over the
// materialized keys at any group size (scalar per-pair at g ≤ 1).
func (a *ASketch) OfferRow(rowBase uint64, partners []uint64, x []float64, ests []float64) {
	w, g := a.wave.Scratch(a.sk.K())
	if g <= 1 {
		for j, p := range partners {
			if ests == nil {
				a.Offer(rowBase+p, x[j])
			} else {
				ests[j], _ = a.OfferEstimate(rowBase+p, x[j])
			}
		}
		return
	}
	countsketch.WalkRowGroups(w, g, rowBase, partners, x, ests,
		func(keys []uint64, xs []float64, sub []float64) { a.offerWave(w, keys, xs, sub) })
}

// offerPairsScalar is the pre-wave batch loop, kept as the wave path's
// differential reference (SetWaveGroup(1)).
func (a *ASketch) offerPairsScalar(keys []uint64, xs []float64, ests []float64) {
	for i, key := range keys {
		if ests != nil {
			ests[i], _ = a.OfferEstimate(key, xs[i])
		} else {
			a.Offer(key, xs[i])
		}
	}
}

// SetWaveGroup implements sketchapi.Engine (g ≤ 1 = scalar loop).
// Not safe concurrently with offers.
func (a *ASketch) SetWaveGroup(g int) { a.wave.Set(g) }

// WaveGroup implements sketchapi.Engine.
func (a *ASketch) WaveGroup() int { return a.wave.Group() }

// bumpFilter updates a filtered key's value (nv in logical units),
// keeping the cached minimum honest when the minimum itself moved.
func (a *ASketch) bumpFilter(key uint64, nv float64) {
	raw := nv * a.finv
	a.filter[key] = raw
	if key == a.minKey {
		a.minAbs = math.Abs(raw)
	} else if math.Abs(raw) < a.minAbs {
		a.minKey, a.minAbs = key, math.Abs(raw)
	}
}

// offerSketched runs the promotion check after a sketch insert through
// slots, returning the post-insert estimate and whether key was
// promoted into the filter.
func (a *ASketch) offerSketched(key uint64, slots *[countsketch.MaxTables]countsketch.Slot) (est float64, promoted bool) {
	est = a.sk.EstimateSlots(slots)
	if len(a.filter) < a.cap {
		a.promote(key, est, slots)
		return est, true
	}
	// minAbs is raw; the sketch estimate is logical — compare on the
	// logical side (fscale = 1 keeps this the exact pre-decay test).
	if math.Abs(est) <= a.minAbs*a.fscale {
		return est, false
	}
	// Verify against the true minimum (the cache may be stale-low).
	minKey, minAbs := a.scanMin()
	a.minKey, a.minAbs = minKey, minAbs
	if math.Abs(est) <= minAbs*a.fscale {
		return est, false
	}
	// Swap: evicted entry's mass returns to the sketch; the promoted
	// key's estimated mass leaves it.
	evicted := a.filter[minKey] * a.fscale
	delete(a.filter, minKey)
	a.sk.Add(minKey, evicted)
	a.promote(key, est, slots)
	return est, true
}

// promote moves key into the filter with logical value est, removing
// est from the sketch so the mass is represented exactly once.
func (a *ASketch) promote(key uint64, est float64, slots *[countsketch.MaxTables]countsketch.Slot) {
	a.sk.AddSlots(slots, -est)
	raw := est * a.finv
	a.filter[key] = raw
	if math.Abs(raw) < a.minAbs || len(a.filter) == 1 {
		a.minKey, a.minAbs = key, math.Abs(raw)
	}
}

func (a *ASketch) scanMin() (uint64, float64) {
	minKey, minAbs := uint64(0), math.Inf(1)
	for k, v := range a.filter {
		av := math.Abs(v)
		// Tie-break on the key: map iteration order is randomized, and
		// an eviction choice depending on it would let identical offer
		// streams produce different filters — replays, restores, and
		// the wave/scalar differential tests (whose fuzzer caught this)
		// all rely on the engine being a deterministic function of its
		// offer sequence.
		if av < minAbs || (av == minAbs && k < minKey) {
			minKey, minAbs = k, av
		}
	}
	return minKey, minAbs
}

// Estimate answers exactly for filtered keys, with the residual sketch
// estimate added in case mass was left behind before promotion, and from
// the sketch otherwise.
func (a *ASketch) Estimate(key uint64) float64 {
	if v, ok := a.filter[key]; ok {
		return v*a.fscale + a.sk.Estimate(key)
	}
	return a.sk.Estimate(key)
}

// EstimateKeys implements sketchapi.Engine: the sketch reads
// run through the wave stages, then each filtered key adds its exact
// term as Estimate does, v·fscale + sketch estimate.
func (a *ASketch) EstimateKeys(keys []uint64, out []float64) {
	w, g := a.wave.Scratch(a.sk.K())
	a.sk.EstimateKeys(w, g, keys, out)
	if len(a.filter) == 0 {
		return
	}
	for i, key := range keys {
		if v, ok := a.filter[key]; ok {
			out[i] = v*a.fscale + out[i]
		}
	}
}

// Health implements sketchapi.Engine: the engine has no
// admission gate, so every offer is admitted mass. Call from the
// owning goroutine.
func (a *ASketch) Health() sketchapi.Health {
	return sketchapi.Health{
		ExplorationInserts: a.inserts,
		AdmittedMass:       a.mass,
		DecayRenorms:       a.sk.Renorms(),
		WaveGroups:         a.waveGroups,
	}
}

// FilterLen returns the current number of filtered keys.
func (a *ASketch) FilterLen() int { return len(a.filter) }

// Fold implements sketchapi.Engine by folding the backing sketch; the
// exact filter is width-independent and keeps answering exactly.
func (a *ASketch) Fold(levels int) error { return a.sk.Fold(levels) }

// Unfold implements sketchapi.Engine.
func (a *ASketch) Unfold() { a.sk.Unfold() }

// FoldLevel implements sketchapi.Engine.
func (a *ASketch) FoldLevel() int { return a.sk.FoldLevel() }

// MaxFoldLevels implements sketchapi.Engine.
func (a *ASketch) MaxFoldLevels() int { return a.sk.MaxFoldLevels() }

// Bytes accounts the sketch plus 16 bytes (key+value) per filter slot.
func (a *ASketch) Bytes() int { return a.sk.Bytes() + 16*a.cap }

// Name identifies the engine.
func (a *ASketch) Name() string { return "ASketch" }

const asketchMagic = uint32(0xA5C5A5E1)

// WriteTo implements sketchapi.Engine: normalizer, step position,
// decay state (λ, N_eff, the filter's lazy scale), the exact filter
// contents (raw units — restore is bit-exact), and the backing sketch.
// The cached filter minimum is not serialized — it is a derived
// quantity recomputed on read.
func (a *ASketch) WriteTo(w io.Writer) (int64, error) {
	return a.writeTo(w, a.sk.WriteTo)
}

// WriteToFolded implements sketchapi.Engine: identical header and
// filter bytes, backing sketch streamed pre-folded to the given level.
func (a *ASketch) WriteToFolded(w io.Writer, level int) (int64, error) {
	return a.writeTo(w, func(w io.Writer) (int64, error) { return a.sk.WriteToFolded(w, level) })
}

func (a *ASketch) writeTo(w io.Writer, writeSketch func(io.Writer) (int64, error)) (int64, error) {
	hdr := make([]byte, 4+8*3+1+8*3+4)
	binary.LittleEndian.PutUint32(hdr[0:], asketchMagic)
	binary.LittleEndian.PutUint64(hdr[4:], math.Float64bits(a.invT))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(a.t))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(a.cap))
	if a.decay {
		hdr[28] = 1
	}
	binary.LittleEndian.PutUint64(hdr[29:], math.Float64bits(a.lambda))
	binary.LittleEndian.PutUint64(hdr[37:], math.Float64bits(a.neff))
	binary.LittleEndian.PutUint64(hdr[45:], math.Float64bits(a.fscale))
	binary.LittleEndian.PutUint32(hdr[53:], uint32(len(a.filter)))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	// Canonical key order: identical engine states serialize to
	// identical bytes regardless of map iteration order.
	keys := make([]uint64, 0, len(a.filter))
	for k := range a.filter {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ent := make([]byte, 16)
	for _, k := range keys {
		binary.LittleEndian.PutUint64(ent[0:], k)
		binary.LittleEndian.PutUint64(ent[8:], math.Float64bits(a.filter[k]))
		n, err := w.Write(ent)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	sn, err := writeSketch(w)
	return total + sn, err
}

// ReadASketchFrom reconstructs an ASketch written by WriteTo.
func ReadASketchFrom(r io.Reader) (*ASketch, error) {
	hdr := make([]byte, 4+8*3+1+8*3+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("baselines: reading asketch header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != asketchMagic {
		return nil, fmt.Errorf("baselines: bad asketch magic")
	}
	a := &ASketch{
		invT:   math.Float64frombits(binary.LittleEndian.Uint64(hdr[4:])),
		t:      int(binary.LittleEndian.Uint64(hdr[12:])),
		cap:    int(binary.LittleEndian.Uint64(hdr[20:])),
		decay:  hdr[28] == 1,
		lambda: math.Float64frombits(binary.LittleEndian.Uint64(hdr[29:])),
		neff:   math.Float64frombits(binary.LittleEndian.Uint64(hdr[37:])),
		fscale: math.Float64frombits(binary.LittleEndian.Uint64(hdr[45:])),
	}
	if !(a.invT > 0) || math.IsInf(a.invT, 0) {
		return nil, fmt.Errorf("baselines: corrupt asketch normalizer %v", a.invT)
	}
	if a.cap < 1 {
		return nil, fmt.Errorf("baselines: corrupt asketch filter cap %d", a.cap)
	}
	if err := sketchapi.ValidateDecay(a.lambda); err != nil {
		return nil, fmt.Errorf("baselines: corrupt asketch decay factor: %w", err)
	}
	if !(a.fscale > 0) || math.IsInf(a.fscale, 0) {
		return nil, fmt.Errorf("baselines: corrupt asketch filter scale %v", a.fscale)
	}
	a.finv = 1 / a.fscale
	cnt := int(binary.LittleEndian.Uint32(hdr[53:]))
	if cnt > a.cap {
		return nil, fmt.Errorf("baselines: asketch filter count %d exceeds cap %d", cnt, a.cap)
	}
	a.filter = make(map[uint64]float64, a.cap)
	ent := make([]byte, 16)
	for i := 0; i < cnt; i++ {
		if _, err := io.ReadFull(r, ent); err != nil {
			return nil, fmt.Errorf("baselines: reading asketch filter entry %d: %w", i, err)
		}
		a.filter[binary.LittleEndian.Uint64(ent[0:])] = math.Float64frombits(binary.LittleEndian.Uint64(ent[8:]))
	}
	a.minKey, a.minAbs = a.scanMin()
	sk, err := countsketch.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	a.sk = sk
	return a, nil
}
