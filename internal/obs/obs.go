// Package obs is the zero-dependency telemetry subsystem of the
// serving stack: hot-path-safe counters and histograms, Prometheus
// text-format exposition, a format linter for that exposition, and
// lightweight request tracing (IDs, spans, sampling).
//
// # Hot-path safety
//
// Nothing in this package takes a lock on an ingest or query path, and
// nothing on a steady-state path allocates. The two primitives follow
// the two ownership regimes of the serving stack:
//
//   - Single-writer counters. A shard worker owns its counters as plain
//     fields (or the engine owns them; see sketchapi.Health) and
//     mutates them without synchronization — the worker goroutine is
//     the only writer, exactly like the sketch tables themselves. At
//     batch boundaries the worker publishes an atomic snapshot into a
//     Snap block, which scrapers read wait-free: a /metrics scrape
//     never enqueues anything into a worker and never waits behind
//     ingest. Values from one Snap are each individually consistent
//     but may straddle a batch boundary as a set — fine for
//     monitoring, by design.
//
//   - Concurrent histograms. Request latencies are observed by many
//     HTTP handler goroutines at once, so Hist buckets are atomic
//     adds on a fixed array: lock-free, allocation-free, and mergeable
//     (bucket-wise sums), replacing the mutex-ringed latency window
//     the server used to keep.
//
// The exposition side (Expo, Lint) is scrape-time only and deliberately
// boring: build the page into a caller-owned buffer, validate it in
// tests and CI with the same linter operators would run.
package obs

import (
	"math"
	"sync/atomic"
)

// Kind distinguishes Prometheus metric types in counter definitions.
type Kind uint8

const (
	// Counter is a monotonically non-decreasing cumulative value.
	Counter Kind = iota
	// Gauge is a point-in-time value that can move both ways.
	Gauge
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	if k == Gauge {
		return "gauge"
	}
	return "counter"
}

// Def names one slot of a Snap block for exposition: the Prometheus
// family name, its type, help text, an optional fixed extra label (the
// wave-fallback cause), and whether the slot stores float64 bits
// instead of an integer count.
type Def struct {
	Name string
	Kind Kind
	Help string
	// LabelK/LabelV, when non-empty, add a fixed label to every sample
	// of this slot (several slots may share one family name, e.g. the
	// wave fallback causes; such slots must be adjacent in the def
	// table so the family header is emitted once).
	LabelK, LabelV string
	// Float marks slots whose uint64 payload is math.Float64bits.
	Float bool
}

// Shard counter slots: the per-shard unsynchronized counter block the
// worker publishes into its Snap at batch boundaries. Indices into
// ShardDefs and every ShardTel.Snap.
const (
	// ShardBatches counts applied ingest batches.
	ShardBatches = iota
	// ShardOps counts applied pair increments.
	ShardOps
	// ShardZeroIncrements counts the applied pair increments that were
	// exactly zero and so skipped the engine and the tracker (a subset
	// of ShardOps): on a standardized stream, the pairs of features the
	// warm-up scaled to zero.
	ShardZeroIncrements
	// ShardLaneJumps counts fast-lane closures served ahead of queued
	// ingest (the priority lane actually jumping the FIFO).
	ShardLaneJumps
	// ShardQueueHighWater is the deepest ingest FIFO backlog observed
	// at enqueue time (batches).
	ShardQueueHighWater
	// ShardFastQueueHighWater is the deepest priority-lane backlog
	// observed at enqueue time.
	ShardFastQueueHighWater
	// ShardGateOffered counts sampling-period offers presented to the
	// admission gate.
	ShardGateOffered
	// ShardGateAdmitted counts sampling-period offers the gate passed.
	ShardGateAdmitted
	// ShardExplorationInserts counts exploration-period inserts (the
	// gate admits everything before T0).
	ShardExplorationInserts
	// ShardAdmittedMass accumulates Σ|x| over inserted offers (float).
	ShardAdmittedMass
	// ShardRejectedMass accumulates Σ|x| over gated-out offers (float).
	ShardRejectedMass
	// ShardGateTau is the current τ gate threshold (float gauge).
	ShardGateTau
	// ShardNEff is the effective sample count N_eff (float gauge;
	// decay-mode deployments only).
	ShardNEff
	// ShardDecayRenorms counts lazy-decay renormalization sweeps.
	ShardDecayRenorms
	// ShardWaveGroups counts wave-pipeline groups staged.
	ShardWaveGroups
	// ShardWaveFallbackConflict counts groups replayed per-pair because
	// two group members shared a table cell.
	ShardWaveFallbackConflict
	// ShardWaveFallbackExploration counts groups replayed per-pair
	// because the engine was still in its exploration period.
	ShardWaveFallbackExploration
	// ShardWaveFallbackShape counts groups replayed per-pair because
	// the engine's contract recomputes estimates from the table
	// (estimating CS shapes, filter engines).
	ShardWaveFallbackShape
	// ShardTrackerPruned counts offers the candidate tracker did not
	// keep (top-k churn): keys pruned to keep the tracker bounded plus
	// offers refused at its admission floor.
	ShardTrackerPruned
	// ShardTrackerRefused counts offers refused at the tracker's
	// admission floor (a subset of ShardTrackerPruned).
	ShardTrackerRefused
	// ShardAdmissionRejects counts ingest requests shed at admission
	// because THIS shard's queue crossed the bound (the shard that
	// triggered the 429). Sender-side multi-writer: updated with
	// Snap.Add, never Stored by the worker's publish.
	ShardAdmissionRejects
	// ShardDeadlineAbandons counts operations (queued batches or query
	// closures) abandoned at their caller's deadline while waiting for
	// this shard. Sender-side multi-writer, like ShardAdmissionRejects.
	ShardDeadlineAbandons
	// ShardTracked is the current candidate-tracker size (gauge).
	ShardTracked
	// ShardStep is the highest step the shard has applied (gauge).
	ShardStep
	// ShardEngineBytes is the engine's memory footprint (gauge).
	ShardEngineBytes
	// ShardFoldLevel is the engine's current fold level (gauge): 0 at
	// full resolution, L after the idle policy halved the table width
	// L times.
	ShardFoldLevel
	// ShardFolds counts idle-policy folds applied by the worker.
	ShardFolds
	// ShardUnfolds counts ingest-triggered unfolds (a fold/unfold pair
	// is one full elasticity cycle).
	ShardUnfolds
	// ShardWALLastSeq is the highest write-ahead-log sequence number the
	// shard has teed to the group-commit writer (gauge; 0 when the WAL
	// is not armed).
	ShardWALLastSeq

	// NumShardCounters sizes the per-shard Snap block.
	NumShardCounters
)

// ShardDefs names every shard counter slot for exposition. Slots
// sharing a family name (the wave fallback causes) are adjacent.
var ShardDefs = [NumShardCounters]Def{
	ShardBatches:            {Name: "ascs_shard_ingest_batches_total", Kind: Counter, Help: "Ingest batches applied by the shard worker."},
	ShardOps:                {Name: "ascs_shard_ops_total", Kind: Counter, Help: "Pair increments applied by the shard worker."},
	ShardZeroIncrements:     {Name: "ascs_shard_zero_increments_total", Kind: Counter, Help: "Applied pair increments that were exactly zero and skipped the engine and tracker (a subset of the ops total)."},
	ShardLaneJumps:          {Name: "ascs_shard_lane_jumps_total", Kind: Counter, Help: "Fast-lane queries served ahead of queued ingest batches."},
	ShardQueueHighWater:     {Name: "ascs_shard_queue_high_water", Kind: Gauge, Help: "Deepest ingest FIFO backlog observed at enqueue (batches)."},
	ShardFastQueueHighWater: {Name: "ascs_shard_fast_queue_high_water", Kind: Gauge, Help: "Deepest priority-lane backlog observed at enqueue."},
	ShardGateOffered:        {Name: "ascs_gate_offered_total", Kind: Counter, Help: "Sampling-period nonzero offers presented to the admission gate."},
	ShardGateAdmitted:       {Name: "ascs_gate_admitted_total", Kind: Counter, Help: "Sampling-period nonzero offers the admission gate passed."},
	ShardExplorationInserts: {Name: "ascs_exploration_inserts_total", Kind: Counter, Help: "Exploration-period inserts (pre-T0, gate admits all)."},
	ShardAdmittedMass:       {Name: "ascs_gate_admitted_mass_total", Kind: Counter, Help: "Sum of |x| over inserted offers.", Float: true},
	ShardRejectedMass:       {Name: "ascs_gate_rejected_mass_total", Kind: Counter, Help: "Sum of |x| over gated-out offers.", Float: true},
	ShardGateTau:            {Name: "ascs_gate_tau", Kind: Gauge, Help: "Current ASCS admission threshold tau.", Float: true},
	ShardNEff:               {Name: "ascs_shard_n_eff", Kind: Gauge, Help: "Effective sample count N_eff (decay mode).", Float: true},
	ShardDecayRenorms:       {Name: "ascs_decay_renormalizations_total", Kind: Counter, Help: "Lazy-decay scale renormalization sweeps."},
	ShardWaveGroups:         {Name: "ascs_wave_groups_total", Kind: Counter, Help: "Wave-pipeline groups staged by the batch ingest path."},
	ShardWaveFallbackConflict: {Name: "ascs_wave_fallback_total", Kind: Counter, Help: "Wave groups replayed per-pair, by cause.",
		LabelK: "cause", LabelV: "conflict"},
	ShardWaveFallbackExploration: {Name: "ascs_wave_fallback_total", Kind: Counter, Help: "Wave groups replayed per-pair, by cause.",
		LabelK: "cause", LabelV: "exploration"},
	ShardWaveFallbackShape: {Name: "ascs_wave_fallback_total", Kind: Counter, Help: "Wave groups replayed per-pair, by cause.",
		LabelK: "cause", LabelV: "shape"},
	ShardTrackerPruned:    {Name: "ascs_topk_tracker_pruned_total", Kind: Counter, Help: "Offers the candidate tracker did not keep: prune evictions plus admission-floor refusals (top-k churn)."},
	ShardTrackerRefused:   {Name: "ascs_topk_tracker_refused_total", Kind: Counter, Help: "Offers refused at the candidate tracker's admission floor (a subset of the pruned total)."},
	ShardAdmissionRejects: {Name: "ascs_shard_admission_rejects_total", Kind: Counter, Help: "Ingest requests shed because this shard's queue crossed the admission bound."},
	ShardDeadlineAbandons: {Name: "ascs_shard_deadline_abandons_total", Kind: Counter, Help: "Operations abandoned at their deadline while queued for this shard."},
	ShardTracked:          {Name: "ascs_topk_tracked", Kind: Gauge, Help: "Candidate keys currently tracked."},
	ShardStep:             {Name: "ascs_shard_step", Kind: Gauge, Help: "Highest stream step applied by the shard."},
	ShardEngineBytes:      {Name: "ascs_shard_engine_bytes", Kind: Gauge, Help: "Engine memory footprint in bytes."},
	ShardFoldLevel:        {Name: "ascs_shard_fold_level", Kind: Gauge, Help: "Current sketch fold level (0 = full resolution)."},
	ShardFolds:            {Name: "ascs_shard_folds_total", Kind: Counter, Help: "Idle-policy sketch folds applied by the shard worker."},
	ShardUnfolds:          {Name: "ascs_shard_unfolds_total", Kind: Counter, Help: "Ingest-triggered sketch unfolds back to full resolution."},
	ShardWALLastSeq:       {Name: "ascs_shard_wal_last_seq", Kind: Gauge, Help: "Highest WAL sequence number teed by the shard (0 when the WAL is off)."},
}

// Snap is the atomically readable mirror of a single-writer counter
// block: the owner publishes with Store/StoreFloat/Max, scrapers read
// with Load/LoadFloat. Publishing a whole block is a plain loop of
// atomic stores — no locks, no allocation.
type Snap [NumShardCounters]atomic.Uint64

// Store publishes an integer counter slot.
func (s *Snap) Store(i int, v uint64) { s[i].Store(v) }

// StoreFloat publishes a float64 slot (as IEEE bits).
func (s *Snap) StoreFloat(i int, v float64) { s[i].Store(math.Float64bits(v)) }

// Add atomically increments slot i by v. For multi-writer slots
// (admission rejects, deadline abandons) that senders bump directly —
// such slots must never also be Stored by the worker's publish, or the
// store would clobber concurrent adds.
func (s *Snap) Add(i int, v uint64) { s[i].Add(v) }

// Max raises slot i to at least v (high-water marks; any goroutine may
// call it, so it CASes instead of assuming single-writer ownership).
func (s *Snap) Max(i int, v uint64) {
	for {
		cur := s[i].Load()
		if v <= cur || s[i].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load reads an integer slot.
func (s *Snap) Load(i int) uint64 { return s[i].Load() }

// LoadFloat reads a float64 slot.
func (s *Snap) LoadFloat(i int) float64 { return math.Float64frombits(s[i].Load()) }

// Value reads slot i in exposition units: the stored float for Float
// slots, the integer count otherwise.
func (s *Snap) Value(i int) float64 {
	if ShardDefs[i].Float {
		return s.LoadFloat(i)
	}
	return float64(s[i].Load())
}

// ShardTel is one shard's published telemetry: the counter Snap plus
// the worker-owned latency/size histograms. The worker writes, anyone
// reads; no locks anywhere.
type ShardTel struct {
	Snap Snap
	// BatchSize distributes applied ingest batch sizes (ops/batch).
	BatchSize Hist
	// IngestWait distributes batch queue waits (enqueue → apply start),
	// in nanoseconds — shard queue pressure as latency.
	IngestWait Hist
	// FreshWait distributes fresh-lane query waits (enqueue → run), ns.
	FreshWait Hist
	// FastWait distributes fast-lane query waits (enqueue → run), ns.
	FastWait Hist
	// Apply distributes per-batch apply durations, ns.
	Apply Hist
}
