package core

import (
	"fmt"
	"math"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
)

// Engine is the Active Sampling Count Sketch of Algorithm 2. During the
// exploration period (steps 1..T0) every offered value is inserted into
// the underlying count sketch. During the sampling period (steps
// T0+1..T) a value for key i is inserted only when the current estimate
// μ̂_i^{(t−1)} clears the threshold τ(t−1), which rises linearly with t.
// Filtering the low-estimate (overwhelmingly noise) keys shrinks the
// collision mass in the buckets and raises the SNR of what the sketch
// stores (Theorem 3).
type Engine struct {
	sk   *countsketch.Sketch
	hp   Hyperparams
	invT float64

	t        int
	tau      float64 // τ(t−1), the gate for the current step
	sampling bool
	// Absolute selects the two-sided gate |μ̂| ≥ τ of Theorems 1–2; when
	// false only positive estimates pass (Algorithm 2 as written).
	absolute bool

	// Exponential-decay (unbounded-stream) mode (Decaying): the
	// sketch ages by λ per step (lazily) and the schedule runs on the
	// effective sample count N_eff(t) = (1−λ^t)/(1−λ) instead of t —
	// hp.T is then the effective window W the schedule was solved for,
	// not a horizon. neff/prevNeff track N_eff at the current and
	// previous step; neff0 is N_eff(T0), the sampling-period origin of
	// the decayed threshold ramp. At λ = 1 every quantity reduces to its
	// fixed-horizon counterpart exactly and the classic τ formula is
	// used verbatim, so the two modes are bit-identical.
	decay    bool
	lambda   float64
	neff     float64
	prevNeff float64
	neff0    float64

	offeredSampling  uint64
	insertedSampling uint64

	// Health telemetry (Health): exploration-period
	// insert count, Σ|x| mass split by gate outcome (raw offered values,
	// pre-1/T), and wave-pipeline staging counters. Owned single-writer
	// by the ingest path like every other engine counter.
	explorationInserts uint64
	admittedMass       float64
	rejectedMass       float64
	waveGroups         uint64
	waveFbConflict     uint64
	waveFbExploration  uint64

	// slots is the reusable slot scratch of the fused ingest path. Offer
	// mutates engine state, so the Engine contract already makes the
	// offer methods single-writer; keeping the buffer here (instead of on
	// the stack) stops it escaping through the hash-family interface
	// call.
	slots [countsketch.MaxTables]countsketch.Slot

	// wave is the group-size state and lazily built scratch of the
	// wave-pipelined OfferPairs path (SetWaveGroup).
	wave countsketch.WaveTune
}

var _ sketchapi.Engine = (*Engine)(nil)

// NewEngine builds an ASCS engine over a fresh count sketch with the
// given shape and the solved schedule hp. absolute selects the two-sided
// threshold test (recommended; matches the theorems).
func NewEngine(cfg countsketch.Config, hp Hyperparams, absolute bool) (*Engine, error) {
	if hp.T <= 0 {
		return nil, fmt.Errorf("core: schedule has non-positive T (%d)", hp.T)
	}
	if hp.T0 < 0 || hp.T0 > hp.T {
		return nil, fmt.Errorf("core: T0 (%d) outside [0,T=%d]", hp.T0, hp.T)
	}
	if hp.Theta < 0 || math.IsNaN(hp.Theta) {
		return nil, fmt.Errorf("core: invalid theta %v", hp.Theta)
	}
	sk, err := countsketch.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{sk: sk, hp: hp, invT: 1 / float64(hp.T), absolute: absolute, lambda: 1}, nil
}

// NewEngineDecayed builds an ASCS engine in exponential-decay
// (unbounded-stream) mode: hp is a schedule solved for T = W, the
// effective window round(1/(1−λ)), and the engine substitutes the
// decayed effective sample count N_eff(t) for t in the threshold ramp,
// so τ saturates at τ(W) instead of growing without bound. λ = 1
// disables aging (and leaves N_eff = t) while still serving an
// unbounded stream — bit-identical to the fixed-horizon engine over
// any shared prefix.
func NewEngineDecayed(cfg countsketch.Config, hp Hyperparams, absolute bool, lambda float64) (*Engine, error) {
	if err := sketchapi.ValidateDecay(lambda); err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg, hp, absolute)
	if err != nil {
		return nil, err
	}
	e.decay = true
	e.lambda = lambda
	e.neff0 = sketchapi.AdvanceEffective(0, lambda, hp.T0)
	return e, nil
}

// NewAuto solves Algorithm 3 for params and builds the engine, pairing
// the sketch shape (params.K, params.R) with the schedule.
func NewAuto(params Params, seed uint64, absolute bool) (*Engine, Hyperparams, error) {
	hp, err := params.Solve()
	if err != nil {
		return nil, Hyperparams{}, err
	}
	eng, err := NewEngine(countsketch.Config{Tables: params.K, Range: params.R, Seed: seed}, hp, absolute)
	if err != nil {
		return nil, Hyperparams{}, err
	}
	return eng, hp, nil
}

// BeginStep advances the engine to time step t (1-based, non-decreasing)
// and precomputes the gate τ(t−1). In decay mode it also applies the
// aging ticks of the steps advanced (one lazy O(1) sketch decay) and
// moves the effective sample count forward.
func (e *Engine) BeginStep(t int) {
	if e.decay {
		if steps := t - e.t; steps > 0 {
			e.prevNeff = sketchapi.AdvanceEffective(e.neff, e.lambda, steps-1)
			e.neff = e.prevNeff*e.lambda + 1
			e.sk.Decay(sketchapi.DecayPow(e.lambda, steps))
		}
	}
	e.t = t
	if t > e.hp.T0 {
		e.sampling = true
		if e.decay && e.lambda != 1 {
			e.tau = e.hp.ThresholdEff(e.prevNeff, e.neff0)
		} else {
			e.tau = e.hp.Threshold(t - 1)
		}
	}
}

// passes is the τ gate of Algorithm 2 applied to a current estimate:
// two-sided |μ̂| ≥ τ when absolute, one-sided μ̂ ≥ τ otherwise. Every
// admission decision (Admits and both fused offer paths) routes through
// this one predicate.
func (e *Engine) passes(est float64) bool {
	if e.absolute {
		return math.Abs(est) >= e.tau
	}
	return est >= e.tau
}

// Admits reports whether an observation for key would be inserted at the
// current step, without inserting anything. Exploration admits all keys.
func (e *Engine) Admits(key uint64) bool {
	if !e.sampling {
		return true
	}
	return e.passes(e.sk.Estimate(key))
}

// Offer presents X_i^{(t)} = x for key i and inserts x/T if the gate
// passes (Algorithm 2 lines 6 and 10–12). The gate estimate and the
// insertion share one Locate: the key is hashed once, not twice.
func (e *Engine) Offer(key uint64, x float64) {
	e.sk.Locate(key, &e.slots)
	e.offerSlots(&e.slots, x)
}

// offerSlots runs the gate-then-insert step against precomputed slots
// and reports whether the observation was absorbed.
func (e *Engine) offerSlots(slots *[countsketch.MaxTables]countsketch.Slot, x float64) bool {
	if !e.sampling {
		e.explorationInserts++
		e.admittedMass += math.Abs(x)
		e.sk.AddSlots(slots, x*e.invT)
		return true
	}
	e.offeredSampling++
	pass := e.passes(e.sk.EstimateSlots(slots))
	if pass {
		e.insertedSampling++
		e.admittedMass += math.Abs(x)
		e.sk.AddSlots(slots, x*e.invT)
	} else {
		e.rejectedMass += math.Abs(x)
	}
	return pass
}

// offerEstimateSlots is offerSlots plus the post-offer estimate, reusing
// the slots for every read so nothing is rehashed. The gate reads the
// estimate with its raw median so an admitted insert can shift the
// median in place of a table re-read — exact at any decay scale.
func (e *Engine) offerEstimateSlots(slots *[countsketch.MaxTables]countsketch.Slot, x float64) (float64, bool) {
	if !e.sampling {
		e.explorationInserts++
		e.admittedMass += math.Abs(x)
		return e.sk.AddSlotsEstimate(slots, x*e.invT), true
	}
	e.offeredSampling++
	est, raw := e.sk.EstimateSlotsWithRaw(slots)
	pass := e.passes(est)
	if pass {
		e.insertedSampling++
		e.admittedMass += math.Abs(x)
		est = e.sk.AddSlotsWithEstimateRaw(slots, x*e.invT, raw)
	} else {
		e.rejectedMass += math.Abs(x)
	}
	return est, pass
}

// OfferEstimate implements sketchapi.Engine: one Locate serves
// the τ gate, the insertion, and the returned post-offer estimate (the
// per-call path hashes the key up to three times for the same state).
func (e *Engine) OfferEstimate(key uint64, x float64) (float64, bool) {
	e.sk.Locate(key, &e.slots)
	return e.offerEstimateSlots(&e.slots, x)
}

// OfferPairs implements the batch fast path for one time step. It runs
// the wave pipeline: the batch is split into groups of G pairs
// (SetWaveGroup; default countsketch.WaveGroup) and each group is
// staged — group hashing, a touch/prefetch pass that overlaps the K·G
// table-cell misses, a group-wide gather of gate estimates, then the τ
// decisions and the scatter of admitted inserts. Groups whose pairs
// share a table cell (the same key twice, or a cross-key bucket
// collision) fall back to the exact per-pair order on the
// already-touched cells, so the resulting state and estimates are
// bit-identical to the scalar fused path at any G.
func (e *Engine) OfferPairs(keys []uint64, xs []float64, ests []float64) {
	w, g := e.wave.Scratch(e.sk.K())
	if g <= 1 {
		e.offerPairsScalar(keys, xs, ests)
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
		e.offerWave(w, keys[lo:hi], xs[lo:hi], sub)
	}
}

// offerPairsScalar is the pre-wave batch loop: the per-pair fused path
// with dispatch amortized — the wave path's differential reference.
func (e *Engine) offerPairsScalar(keys []uint64, xs []float64, ests []float64) {
	if ests == nil {
		for i, key := range keys {
			e.sk.Locate(key, &e.slots)
			e.offerSlots(&e.slots, xs[i])
		}
		return
	}
	for i, key := range keys {
		e.sk.Locate(key, &e.slots)
		ests[i], _ = e.offerEstimateSlots(&e.slots, xs[i])
	}
}

// offerWave processes one group of ≤ G pairs through the staged
// pipeline. ests is nil or len(keys).
func (e *Engine) offerWave(w *countsketch.Wave, keys []uint64, xs []float64, ests []float64) {
	n := len(keys)
	e.waveGroups++
	slots := w.Slots(n)
	e.sk.LocateBatch(keys, slots)    // stage 1: group hashing
	w.Sink += e.sk.TouchSlots(slots) // stage 2: overlap the misses
	fallback := false
	if !e.sampling { // stage 2b: conflict screen (with cause telemetry)
		e.waveFbExploration++
		fallback = true
	} else if !w.Clean(slots) {
		e.waveFbConflict++
		fallback = true
	}
	if fallback {
		// Exploration inserts every pair (post-add estimates recompute
		// from the table, exactly as the scalar path does), and a group
		// with intra-group cell sharing must replay the scalar order so
		// later gates observe earlier inserts. Either way the cells are
		// touched, so the per-pair loop runs on warm lines.
		for i := 0; i < n; i++ {
			sl := w.At(i)
			if ests == nil {
				e.offerSlots(sl, xs[i])
			} else {
				ests[i], _ = e.offerEstimateSlots(sl, xs[i])
			}
		}
		return
	}
	// Stage 3: gather every gate estimate (with its raw median) before
	// any insert — exact, because the screen proved the group touches
	// pairwise-disjoint cells.
	gests, raws := w.Ests(n), w.Raws(n)
	e.sk.EstimateSlotsBatch(slots, gests, raws)
	// Stage 4: τ decisions, then scatter the admitted inserts.
	vs, admit := w.Vs(n), w.Admit(n)
	admitted := 0
	for i := 0; i < n; i++ {
		pass := e.passes(gests[i])
		admit[i] = pass
		if pass {
			vs[i] = xs[i] * e.invT
			admitted++
			e.admittedMass += math.Abs(xs[i])
		} else {
			e.rejectedMass += math.Abs(xs[i])
		}
	}
	e.offeredSampling += uint64(n)
	e.insertedSampling += uint64(admitted)
	if ests == nil {
		e.sk.AddSlotsBatch(slots, vs, admit, nil, nil)
		return
	}
	// Rejected pairs answer their pre-add estimate, admitted ones the
	// raw-median shift — the exact per-pair contract.
	copy(ests, gests)
	e.sk.AddSlotsBatch(slots, vs, admit, raws, ests)
}

// OfferRow (outside the sketchapi.Engine contract; the benchmark ladder
// calls it) is the τ-gated ingest of one row's pairs
// (rowBase+partners[j], x[j]) with the key materialization amortized —
// per wave group one wrapping vector add of the shared row base replaces
// per-pair key arithmetic, and the groups then run the same staged body
// as OfferPairs. Bit-identical to OfferPairs over the materialized keys
// at any group size (scalar per-pair at g ≤ 1).
func (e *Engine) OfferRow(rowBase uint64, partners []uint64, x []float64, ests []float64) {
	w, g := e.wave.Scratch(e.sk.K())
	if g <= 1 {
		for j, p := range partners {
			e.sk.Locate(rowBase+p, &e.slots)
			if ests == nil {
				e.offerSlots(&e.slots, x[j])
			} else {
				ests[j], _ = e.offerEstimateSlots(&e.slots, x[j])
			}
		}
		return
	}
	countsketch.WalkRowGroups(w, g, rowBase, partners, x, ests,
		func(keys []uint64, xs []float64, sub []float64) { e.offerWave(w, keys, xs, sub) })
}

// SetWaveGroup implements sketchapi.Engine: it sets the wave group
// size G of OfferPairs (g ≤ 1 selects the scalar per-pair loop). State
// and estimates are bit-identical at any setting; only the staging
// changes. Not safe concurrently with offers.
func (e *Engine) SetWaveGroup(g int) { e.wave.Set(g) }

// WaveGroup implements sketchapi.Engine.
func (e *Engine) WaveGroup() int { return e.wave.Group() }

// Estimate returns the current estimate μ̂_i^{(t)} (which is the final
// mean estimate after the stream completes).
func (e *Engine) Estimate(key uint64) float64 { return e.sk.Estimate(key) }

// EstimateKeys implements sketchapi.Engine: Estimate of every
// key, read through the wave stages in groups of the WaveTune size.
func (e *Engine) EstimateKeys(keys []uint64, out []float64) {
	w, g := e.wave.Scratch(e.sk.K())
	e.sk.EstimateKeys(w, g, keys, out)
}

// Bytes reports the sketch footprint.
func (e *Engine) Bytes() int { return e.sk.Bytes() }

// Name identifies the engine.
func (e *Engine) Name() string { return "ASCS" }

// Sketch exposes the underlying count sketch (diagnostics, serialization).
func (e *Engine) Sketch() *countsketch.Sketch { return e.sk }

// Fold implements sketchapi.Engine by folding the underlying table; the
// τ gate and schedule state are width-independent and carry over.
func (e *Engine) Fold(levels int) error { return e.sk.Fold(levels) }

// Unfold implements sketchapi.Engine.
func (e *Engine) Unfold() { e.sk.Unfold() }

// FoldLevel implements sketchapi.Engine.
func (e *Engine) FoldLevel() int { return e.sk.FoldLevel() }

// MaxFoldLevels implements sketchapi.Engine.
func (e *Engine) MaxFoldLevels() int { return e.sk.MaxFoldLevels() }

// Schedule returns the threshold schedule in force.
func (e *Engine) Schedule() Hyperparams { return e.hp }

// Sampling reports whether the engine has entered the sampling period.
func (e *Engine) Sampling() bool { return e.sampling }

// Decaying implements sketchapi.Engine.
func (e *Engine) Decaying() bool { return e.decay }

// DecayFactor implements sketchapi.Engine (1 in fixed-horizon mode).
func (e *Engine) DecayFactor() float64 { return e.lambda }

// EffectiveSamples implements sketchapi.Engine (N_eff = t in fixed
// mode and at λ = 1).
func (e *Engine) EffectiveSamples() float64 {
	if e.decay {
		return e.neff
	}
	return float64(e.t)
}

// SampledFraction returns the fraction of offers during the sampling
// period that passed the gate, and the raw counts. A healthy run filters
// the vast majority of (noise) offers.
func (e *Engine) SampledFraction() (frac float64, inserted, offered uint64) {
	if e.offeredSampling == 0 {
		return math.NaN(), 0, 0
	}
	return float64(e.insertedSampling) / float64(e.offeredSampling), e.insertedSampling, e.offeredSampling
}

// Health implements sketchapi.Engine. Call from the goroutine
// that owns the engine (the counters are unsynchronized by design).
func (e *Engine) Health() sketchapi.Health {
	return sketchapi.Health{
		ExplorationInserts:      e.explorationInserts,
		GateOffered:             e.offeredSampling,
		GateAdmitted:            e.insertedSampling,
		AdmittedMass:            e.admittedMass,
		RejectedMass:            e.rejectedMass,
		Tau:                     e.tau,
		DecayRenorms:            e.sk.Renorms(),
		WaveGroups:              e.waveGroups,
		WaveFallbackConflict:    e.waveFbConflict,
		WaveFallbackExploration: e.waveFbExploration,
	}
}
