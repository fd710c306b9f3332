// Package sketchapi defines the minimal contract shared by all sketching
// engines in this repository: vanilla Count Sketch, ASCS, Augmented
// Sketch, and Cold Filter. The covariance streaming layer drives any of
// them interchangeably, which is how the paper's head-to-head comparisons
// (§8) are orchestrated.
package sketchapi

import (
	"fmt"
	"io"
	"math"
)

// Ingestor consumes a stream of (key, increment) observations indexed by
// a time step t = 1..T and answers point estimates of the per-key mean.
//
// The contract mirrors the paper's setup: at each time t the stream
// carries values X_i^{(t)} for a subset of keys i; engines internally
// scale by 1/T so that the estimate for key i after step t equals
// (t/T)·X̄_i^{(t)} and, at t = T, the estimated mean μ̂_i.
type Ingestor interface {
	// BeginStep announces the 1-based time step of the observations that
	// follow. Steps must be non-decreasing. Engines use it to advance
	// sampling thresholds (ASCS) or other schedules.
	BeginStep(t int)
	// Offer presents the observation X_i^{(t)} = x for key i = key.
	// Engines decide whether and how to absorb it.
	Offer(key uint64, x float64)
	// Estimate returns the engine's current estimate of μ_i scaled by
	// t/T (so it is the final-mean estimate once the stream completes).
	Estimate(key uint64) float64
	// Bytes reports the engine's approximate memory footprint.
	Bytes() int
	// Name identifies the engine in reports ("CS", "ASCS", ...).
	Name() string
}

// OfferEstimator is the fused ingest fast path: every engine in this
// repository hashes an offered key to the same table cells whether it is
// gating (ASCS τ test, Cold Filter saturation test), inserting, or
// answering the estimate the retrieval tracker scores candidates with —
// so one locate can serve all three. The per-call contract is exact
// equivalence: OfferEstimate(key, x) leaves the engine in the bit-same
// state as Offer(key, x) and returns the bit-same value a subsequent
// Estimate(key) would, while hashing the key once instead of up to three
// times. All four engines (CS MeanSketch, ASCS core.Engine, ASketch,
// ColdFilter) implement it; covstream and the serving shards' ingest
// prefer it when present and fall back to Offer+Estimate otherwise, and
// the shards' top-k read requires it.
//
// EstimateKeys is the matching batch read, which the serving shards
// rescore their top-k candidates with. Its contract: out[i] equals
// Estimate(keys[i]) bit for bit, at every fold level and decay scale;
// the engine's state is unchanged (only its wave scratch is written,
// so like the offers it is single-caller); and nothing is allocated
// once the scratch exists.
type OfferEstimator interface {
	Ingestor
	// OfferEstimate presents X_i^{(t)} = x for key i and returns the
	// engine's post-offer estimate for the key, plus whether the
	// observation was absorbed (false only when an admission gate — the
	// ASCS τ test — rejected it; engines without a gate always absorb).
	OfferEstimate(key uint64, x float64) (est float64, admitted bool)
	// OfferPairs is the batch form for one time step: it offers every
	// (keys[i], xs[i]) in order, amortizing interface dispatch and
	// keeping the slot buffer hot. When ests is non-nil it must have
	// len(keys) and is filled with the per-offer post-estimates, exactly
	// as len(keys) OfferEstimate calls would produce them; nil skips the
	// estimates (pure ingest).
	OfferPairs(keys []uint64, xs []float64, ests []float64)
	// EstimateKeys fills out[i] with Estimate(keys[i]) for every key
	// (len(out) ≥ len(keys)), batching the table reads through the
	// wave stages where the engine has them.
	EstimateKeys(keys []uint64, out []float64)
}

// RowOfferer is the row-level ingest fast path: covariance streams
// offer pairs row by row — a sample with nonzero features a < b₁ < b₂ …
// contributes, for each row feature a, the pair keys rowBase(a) + b for
// every later feature b — so the natural batch unit is the row (and the
// whole sample), not the pair. A RowOfferer receives the shared row
// base and the partner list once and expands the pair keys internally
// (a vector add per group) straight into its wave pipeline, instead of
// the caller enumerating keys into an intermediate pair buffer.
//
// The contract is exact equivalence: OfferRow(rowBase, partners, x,
// ests) leaves the engine in the bit-same state as OfferPairs(keys, x,
// ests) with keys[j] = rowBase + partners[j] (a wrapping uint64 add —
// pairs.RowBase(0, d) is the two's complement of −1, and base+partner
// wraps back to the intended pair index), and fills ests identically.
// All four engines implement it; covstream and the shard workers prefer
// it when present.
type RowOfferer interface {
	OfferEstimator
	// OfferRow offers partner j of one row as the pair
	// (rowBase+partners[j], x[j]), in order. x must have len(partners);
	// ests is nil (pure ingest) or len(partners), filled with the
	// per-offer post-estimates exactly as OfferEstimate would return
	// them.
	OfferRow(rowBase uint64, partners []uint64, x []float64, ests []float64)
	// OfferRows offers one sample's whole upper triangle: for each row
	// i in [0, len(ids)-1), every pair (bases[i]+ids[j], left[i]*right[j])
	// for j in (i, len(ids)), in row-major order — equivalent to the
	// corresponding OfferRow sequence with the caller's per-pair
	// increments materialized as left[i]·right[j], but letting the
	// engine pack wave groups across row boundaries so short rows do
	// not drain the pipeline. bases[i] is the row base of ids[i] and is
	// read only for i < len(ids)-1 (the last id is only ever a partner),
	// so len(bases) and len(left) need only be len(ids)-1; right must
	// have len(ids). ests is nil or holds m(m−1)/2 entries (m =
	// len(ids)) in the same row-major pair order.
	OfferRows(bases, ids []uint64, left, right []float64, ests []float64)
}

// WaveTuner exposes the group size G of an engine's wave-pipelined
// OfferPairs path (staged group ingest: group hashing → cell
// touch/prefetch → gather → gate/scatter; see countsketch.WaveGroup
// for the G rationale). All four engines implement it. g ≤ 1 selects
// the scalar per-pair loop — the wave path's differential reference,
// and the "batch" arm of the ingest benchmarks. Both settings produce
// bit-identical engine state and estimates; the knob trades
// memory-level parallelism against scratch footprint only.
//
// SetWaveGroup is not safe for concurrent use with offers; set it
// before ingest starts (the differential tests and benches do).
type WaveTuner interface {
	Ingestor
	// SetWaveGroup sets the group size G (clamped to a sane maximum);
	// g ≤ 1 disables grouping.
	SetWaveGroup(g int)
	// WaveGroup returns the group size in force (1 = scalar).
	WaveGroup() int
}

// Decayer is the unbounded-stream capability: an engine constructed in
// exponential-decay mode ages every absorbed observation by a factor
// λ ∈ (0,1] per time step, so the estimate for key i converges to the
// λ-weighted mean Σ_k λ^{t−k}·X_i^{(k)} / N_eff(t) instead of the
// fixed-horizon mean — the stream no longer needs a horizon T at all.
// λ = 1 keeps the fixed-horizon arithmetic bit-for-bit (nothing ages)
// while still declaring the engine unbounded, which is what lets the
// differential tests pin the decay path against the classic one.
//
// All four engines implement Decayer; engines built by the classic
// constructors report Decaying() == false and behave exactly as before.
type Decayer interface {
	Ingestor
	// Decaying reports whether the engine runs in exponential-decay
	// (unbounded-stream) mode.
	Decaying() bool
	// DecayFactor returns the per-step decay factor λ (1 when the engine
	// is not decaying, or is unbounded with aging disabled).
	DecayFactor() float64
	// EffectiveSamples returns N_eff(t) = Σ_{k=1..t} λ^{t−k} =
	// (1−λ^t)/(1−λ), the decayed mass the current estimates are built
	// from. It equals t exactly when λ = 1 (and in fixed-horizon mode)
	// and saturates at the effective window W = 1/(1−λ) as t → ∞.
	EffectiveSamples() float64
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
// Ingestor contract already serializes mutation) and Health() copies
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

// HealthReporter is implemented by engines that expose Health. All four
// engines in this repository do; the serving layer publishes the
// snapshot per shard and /metrics aggregates it.
type HealthReporter interface {
	Ingestor
	Health() Health
}

// Snapshotter is an Ingestor whose full state (schedule position,
// counters, table contents) can be serialized for checkpoint/resume.
// All four engines (CS, ASCS, ASketch, Cold Filter) implement it, which
// is what makes every engine servable: the serving layer
// (internal/shard) requires it for crash recovery.
type Snapshotter interface {
	Ingestor
	// WriteTo serializes the engine in a self-describing binary format.
	WriteTo(w io.Writer) (int64, error)
}

// Folder is the elastic-memory capability: an engine whose sketch tables
// can be compressed in place by the sign-composed linear fold map
// (countsketch.Fold) and re-expanded by value replication. Folding
// halves the table width per level, trading collision noise (variance
// doubles per level) for memory; unfolding restores full-resolution
// ingest with estimates bit-identical across the transition. All four
// engines implement Folder; the serving layer uses it to fold idle
// shards in place and to write pre-folded snapshots.
//
// Fold/Unfold are mutations and follow the Ingestor synchronization
// contract (single writer); the shard workers call them only between
// batches, so the ingest hot path never observes a mid-fold table.
type Folder interface {
	Ingestor
	// Fold compresses the tables by `levels` additional width halvings.
	// It fails if the configured range does not divide by 2^levels more
	// times (see MaxFoldLevels).
	Fold(levels int) error
	// Unfold re-expands to full resolution by value replication; no-op
	// when already unfolded.
	Unfold()
	// FoldLevel returns the current fold level (0 = full resolution).
	FoldLevel() int
	// MaxFoldLevels returns the deepest absolute fold level supported by
	// the engine's table geometry (for multi-table engines, the
	// shallowest of the layers).
	MaxFoldLevels() int
}

// FoldedWriter is implemented by engines that can serialize their state
// as if folded to a target level without mutating the live tables — the
// pre-folded snapshot path. Engines clamp the level to MaxFoldLevels.
type FoldedWriter interface {
	Snapshotter
	// WriteToFolded serializes like WriteTo with the sketch tables folded
	// to the given absolute level.
	WriteToFolded(w io.Writer, level int) (int64, error)
}
