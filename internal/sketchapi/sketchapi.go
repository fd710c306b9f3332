// Package sketchapi defines the one contract shared by all sketching
// engines in this repository: vanilla Count Sketch, ASCS, Augmented
// Sketch, and Cold Filter. The covariance streaming layer and the
// serving shards drive any of them interchangeably, which is how the
// paper's head-to-head comparisons (§8) are orchestrated.
package sketchapi

import (
	"fmt"
	"io"
	"math"
)

// Engine is the one contract every sketching engine in this repository
// implements (CS MeanSketch, ASCS core.Engine, ASketch, Cold Filter).
// It consumes a stream of (key, increment) observations indexed by a
// time step t = 1..T and answers point estimates of the per-key mean.
//
// The contract mirrors the paper's setup: at each time t the stream
// carries values X_i^{(t)} for a subset of keys i; engines internally
// scale by 1/T so that the estimate for key i after step t equals
// (t/T)·X̄_i^{(t)} and, at t = T, the estimated mean μ̂_i.
//
// Ingest has three forms with one meaning: OfferPairs(keys, xs, ests)
// leaves the engine in the bit-same state as len(keys) OfferEstimate
// calls, which leave it as the same Offer calls would, at any split of
// the offers into calls and at any wave group (internal/wavetest pins
// this on every engine). The estimates it returns are bit-identical to
// a following Estimate. Every method mutating the engine is single-
// writer: callers serialize offers, steps, folds and wave tuning (the
// shard workers own one engine per goroutine).
type Engine interface {
	// BeginStep announces the 1-based time step of the observations that
	// follow. Steps must be non-decreasing. Engines use it to advance
	// sampling thresholds (ASCS) or other schedules, and in decay mode
	// to age the tables.
	BeginStep(t int)
	// Offer presents the observation X_i^{(t)} = x for key i = key.
	// Engines decide whether and how to absorb it.
	Offer(key uint64, x float64)
	// OfferEstimate is Offer plus the engine's post-offer estimate for
	// the key, off one hash of the key, and whether the observation was
	// absorbed (false only when an admission gate — the ASCS τ test —
	// rejected it; engines without a gate always absorb).
	OfferEstimate(key uint64, x float64) (est float64, admitted bool)
	// OfferPairs is the batch form for one time step: it offers every
	// (keys[i], xs[i]) in order through the engine's wave pipeline
	// (group hashing → cell touch/prefetch → gather → gate/scatter).
	// When ests is non-nil it must have len(keys) and is filled with the
	// per-offer post-estimates, exactly as len(keys) OfferEstimate calls
	// would produce them; nil skips the estimates (pure ingest).
	OfferPairs(keys []uint64, xs []float64, ests []float64)
	// Estimate returns the engine's current estimate of μ_i scaled by
	// t/T (so it is the final-mean estimate once the stream completes).
	Estimate(key uint64) float64
	// EstimateKeys fills out[i] with Estimate(keys[i]) bit for bit
	// (len(out) ≥ len(keys)), at every fold level and decay scale,
	// batching the table reads through the wave stages. Only the wave
	// scratch is written, and nothing is allocated once it exists.
	EstimateKeys(keys []uint64, out []float64)
	// Bytes reports the engine's approximate memory footprint.
	Bytes() int
	// Name identifies the engine in reports ("CS", "ASCS", ...).
	Name() string

	// SetWaveGroup sets the group size G of the wave-pipelined
	// OfferPairs path (clamped to a sane maximum; see
	// countsketch.WaveGroup for the G rationale); g ≤ 1 selects the
	// scalar per-pair loop, the wave path's differential reference.
	// Both settings produce bit-identical state and estimates. Set it
	// before ingest starts.
	SetWaveGroup(g int)
	// WaveGroup returns the group size in force (1 = scalar).
	WaveGroup() int

	// Decaying reports whether the engine runs in exponential-decay
	// (unbounded-stream) mode: every absorbed observation ages by a
	// factor λ ∈ (0,1] per step, so the estimate for key i converges to
	// the λ-weighted mean Σ_k λ^{t−k}·X_i^{(k)} / N_eff(t) and the
	// stream needs no horizon. λ = 1 keeps the fixed-horizon arithmetic
	// bit for bit while declaring the engine unbounded, which is what
	// lets the differential tests pin the decay path against the classic
	// one. Engines built by the classic constructors report false.
	Decaying() bool
	// DecayFactor returns the per-step decay factor λ (1 when the engine
	// is not decaying, or is unbounded with aging disabled).
	DecayFactor() float64
	// EffectiveSamples returns N_eff(t) = Σ_{k=1..t} λ^{t−k} =
	// (1−λ^t)/(1−λ), the decayed mass the current estimates are built
	// from. It equals t exactly when λ = 1 (and in fixed-horizon mode)
	// and saturates at the effective window W = 1/(1−λ) as t → ∞.
	EffectiveSamples() float64

	// Health returns the engine's telemetry snapshot (see Health). Call
	// it from the goroutine that owns the engine.
	Health() Health

	// Fold compresses the tables in place by `levels` additional width
	// halvings of the sign-composed linear fold map (countsketch.Fold),
	// trading collision noise (variance doubles per level) for memory.
	// It fails if the configured range does not divide by 2^levels more
	// times (see MaxFoldLevels).
	Fold(levels int) error
	// Unfold re-expands to full resolution by value replication, with
	// estimates bit-identical across the transition; no-op when already
	// unfolded.
	Unfold()
	// FoldLevel returns the current fold level (0 = full resolution).
	FoldLevel() int
	// MaxFoldLevels returns the deepest absolute fold level supported by
	// the engine's table geometry (for multi-table engines, the
	// shallowest of the layers).
	MaxFoldLevels() int

	// WriteTo serializes the engine's full state (schedule position,
	// counters, table contents) in a self-describing binary format for
	// checkpoint/resume; the serving layer requires it for crash
	// recovery.
	WriteTo(w io.Writer) (int64, error)
	// WriteToFolded serializes like WriteTo with the sketch tables folded
	// to the given absolute level (clamped to MaxFoldLevels), without
	// mutating the live tables — the pre-folded snapshot path.
	WriteToFolded(w io.Writer, level int) (int64, error)
}

// AdvanceEffective advances an effective-sample count by `steps` decayed
// steps (N ← λ·N + 1 per step), using the closed form
// N·λ^s + (1−λ^s)/(1−λ) so skipped steps cost one Pow, not a loop.
// λ = 1 reduces to N + steps exactly (pure float additions of integers),
// which is what keeps the λ=1 schedule bit-identical to the fixed one.
func AdvanceEffective(neff, lambda float64, steps int) float64 {
	if steps <= 0 {
		return neff
	}
	if lambda == 1 {
		return neff + float64(steps)
	}
	f := lambda
	if steps > 1 {
		f = math.Pow(lambda, float64(steps))
	}
	return neff*f + (1-f)/(1-lambda)
}

// RenormFloor is the shared lazy-decay renormalization floor: when a
// scale accumulator (sketch cells, tracker scores, the ASketch filter)
// drops below it, the owner folds the scale into the stored values.
// One constant so the lazy-decay implementations cannot drift apart.
const RenormFloor = 1e-120

// minDecayFactor floors DecayPow against float64 underflow: λ^steps
// rounds to exactly 0 once steps exceeds ~745 effective windows (for
// any λ), and a zero factor is not a valid scale multiplier. At
// 1e-300 the stored mass folds to (sub)normal zero on the next
// renormalization anyway, so the clamp only removes the panic, not
// any observable mass.
const minDecayFactor = 1e-300

// DecayPow returns λ^steps clamped away from underflow, keeping the
// two hot cases (λ = 1, a single step) free of math.Pow — the
// per-sample decay tick of every engine and shard worker routes
// through it.
func DecayPow(lambda float64, steps int) float64 {
	if lambda == 1 || steps <= 0 {
		return 1
	}
	if steps == 1 {
		return lambda
	}
	f := math.Pow(lambda, float64(steps))
	if f < minDecayFactor {
		// A long-idle engine catching up on a huge step gap: fully aged
		// out, but the factor must stay a positive number.
		f = minDecayFactor
	}
	return f
}

// EffectiveWindow returns W = 1/(1−λ), the asymptotic effective sample
// count of decay factor λ (Inf at λ = 1: nothing ages out).
func EffectiveWindow(lambda float64) float64 {
	if lambda >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - lambda)
}

// WindowLambda inverts EffectiveWindow: the decay factor whose effective
// window is w samples, λ = 1 − 1/w.
func WindowLambda(w float64) float64 { return 1 - 1/w }

// ValidateDecay checks a decay factor: λ must be in (0,1] and finite.
// It is the one shared guard every decayed constructor routes through.
func ValidateDecay(lambda float64) error {
	if !(lambda > 0) || lambda > 1 || math.IsNaN(lambda) {
		return fmt.Errorf("sketchapi: decay factor must be in (0,1], got %v", lambda)
	}
	return nil
}

// Health is an engine's self-reported operating state for telemetry:
// admission-gate activity and the mass (Σ|x| of raw offered values,
// before any 1/T or decay scaling) it admitted versus rejected, the
// gate position, decay maintenance, and wave-pipeline staging counts.
// All counters are cumulative since construction; engines without a
// given mechanism leave its fields zero (e.g. CS has no gate, so every
// offer contributes to AdmittedMass and the Gate* counts stay 0).
//
// The struct is a plain value snapshot: engines own the underlying
// counters single-writer on their ingest path (no atomics — the
// Engine contract already serializes mutation) and Health() copies
// them out. Callers needing a coherent read must call it from the
// goroutine that owns the engine (the shard workers do).
type Health struct {
	// ExplorationInserts counts pre-T0 inserts (gate admits all).
	ExplorationInserts uint64
	// GateOffered / GateAdmitted count sampling-period gate decisions.
	GateOffered  uint64
	GateAdmitted uint64
	// AdmittedMass / RejectedMass accumulate Σ|x| by gate outcome.
	AdmittedMass float64
	RejectedMass float64
	// Tau is the current admission threshold (0 for ungated engines and
	// during exploration).
	Tau float64
	// DecayRenorms counts lazy-decay renormalization sweeps.
	DecayRenorms uint64
	// WaveGroups counts groups staged by the wave-pipelined OfferPairs
	// path; the WaveFallback* counters split out groups that replayed
	// the scalar per-pair order, by cause: an intra-group cell conflict,
	// the exploration period, or an estimate-shape contract that must
	// recompute from the table per pair.
	WaveGroups              uint64
	WaveFallbackConflict    uint64
	WaveFallbackExploration uint64
	WaveFallbackShape       uint64
}
