// Package shard is the serving layer of the reproduction: it partitions
// the pair-key space across N shard workers so a long-running process
// can ingest sample streams continuously and answer live top-k
// correlation queries while the stream is still flowing — the "active"
// regime the paper motivates, as opposed to the one-shot batch runs of
// the cmd/ binaries.
//
// # Architecture
//
// Each worker owns one sketching engine (a sketchapi.Engine: the vanilla
// CS MeanSketch, the ASCS core.Engine, or an ASketch or Cold Filter
// baseline) plus a bounded candidate tracker, and runs a single
// goroutine draining one FIFO channel of messages. Ingest enumerates the
// feature pairs of each sample, routes every (key, increment) to the
// shard owning that key (a mixed hash of the pair key modulo N), and
// sends batched ops down the owning worker's channel. Because a key's
// entire history lands on exactly one worker, applied in arrival order
// by one goroutine, the hot path needs no locks at all — no sync.RWMutex
// around the sketch — and the ASCS admission gate remains a *sequential*
// per-key decision, which is exactly the paper's §5 constraint (the gate
// at step t reads the estimate produced by steps 1..t−1; it cannot be
// replayed out of order). Sharding by key is what makes ASCS
// parallelizable at all: sample-level parallelism (clones merged by
// Sketch.Split/Merge) works only for the linear CS engine.
//
// Queries (point estimate, top-k, stats, snapshot) are closures
// executed on the owning worker's goroutine, so they observe a
// consistent engine state without synchronization. Each worker owns
// two channels: the ingest FIFO and a bounded priority lane for
// read-only query closures. Which lane a query rides is the
// Consistency knob: ConsistencyFresh sends it down the ingest FIFO —
// the query observes every batch enqueued before it and is totally
// ordered with ingest (the classic semantics; Flush, snapshots, and
// the differential tests always use this lane) — while ConsistencyFast
// sends it down the priority lane, which the worker drains ahead of
// queued ingest batches: the query waits only for the message in
// flight instead of the whole queue, at the cost of bounded staleness
// (it may miss up to QueueLen enqueued-but-unapplied batches). Both
// lanes execute on the worker goroutine, so either way a query sees a
// batch-boundary-consistent engine state and the hot path stays
// lock-free. Top-k fans out to all shards and merges the per-shard
// candidates through one bounded heap.
//
// # Linearity
//
// All shards share one countsketch.Config (hence identical hash
// functions), so the Count Sketch's linearity — the property behind
// Sketch.Split/Merge — gives a strong equivalence for the CS engine:
// since every key is inserted into exactly one shard, the cell-wise
// sum of the shard tables (MergedSketch) equals the table produced by
// serial single-sketch ingestion of the same stream, up to
// floating-point summation order. The shard tests assert this. For
// ASCS the tables merge the same way but the admission gates were
// evaluated against per-shard (lower-noise) estimates, so the merged
// sketch is a valid — typically slightly better-filtered — ASCS state
// rather than a bit-identical replay of the serial run.
//
// # Steps, horizon, and unbounded (decayed) serving
//
// The manager assigns a global 1-based step to every ingested sample
// and engines scale inserts by 1/T exactly as in the batch pipeline.
// Concurrent Ingest calls are applied in an arbitrary interleaving;
// workers monotonize the step sequence they announce to their engine
// so the Engine contract (non-decreasing steps) holds under any
// interleaving.
//
// In the classic fixed-horizon deployment the stream horizon T is
// fixed at construction and ingest beyond it is rejected with
// ErrHorizon. An EngineSpec with Lambda set instead serves an
// *unbounded* stream: T is reinterpreted as the effective window
// W ≈ 1/(1−λ), every engine ages its tables by λ per step (a lazy O(1)
// scale bump inside BeginStep, on the worker goroutine — still
// lock-free), each worker ages its candidate tracker at the same batch
// boundary so admitted pairs fall out of top-k once they stop
// arriving, and ErrHorizon is never returned. λ = 1 disables aging but
// keeps the unbounded semantics, bit-identical to the fixed engines
// over any prefix — the differential tests pin that equivalence.
//
// The ingest call that completes the warm-up prefix derives the
// schedule, starts the workers, then replays the buffered prefix in
// bounded chunks *without* holding the control mutex: queries proceed
// during the replay (observing a per-shard-consistent mid-replay
// state) instead of stalling for its duration. Concurrent ingest and
// snapshots still wait for the replay to finish — the solved ASCS
// exploration window T0 can be shorter than the warm-up prefix, so a
// later-step op overtaking prefix ops into a shard FIFO would replay
// gate decisions out of order.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/countsketch"
	"repro/internal/faults"
	"repro/internal/hashing"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
	"repro/internal/topk"
	"repro/internal/wal"
)

// Sentinel errors returned by Manager operations.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("shard: manager is closed")
	// ErrWarmingUp is returned by queries while the manager is still
	// buffering its warm-up prefix (auto-tuned ASCS configurations).
	ErrWarmingUp = errors.New("shard: still warming up (ingest more samples)")
	// ErrHorizon is returned when ingest would exceed the configured
	// stream horizon T. Unbounded (decay-mode) deployments never return
	// it — there is no horizon to exceed.
	ErrHorizon = errors.New("shard: stream exceeds configured horizon T")
	// ErrInvalidSample wraps sample-validation failures, so transports
	// can blame the producer (4xx) rather than the service (5xx) —
	// warm-up derivation failures, by contrast, are server-side.
	ErrInvalidSample = errors.New("shard: invalid sample")
)

// Consistency selects the lane a query rides to its shard worker.
type Consistency string

const (
	// ConsistencyFresh routes the query through the shard's ingest
	// FIFO: it observes every batch enqueued before it, totally ordered
	// with ingest. Under ingest pressure it waits behind the whole
	// queue (up to QueueLen batches). The default.
	ConsistencyFresh Consistency = "fresh"
	// ConsistencyFast routes the query down the bounded priority lane:
	// the worker serves it ahead of queued ingest batches, so it waits
	// only for the message currently being applied. The price is
	// bounded staleness — the answer may miss batches that were
	// enqueued but not yet applied (at most the in-flight queue depth).
	ConsistencyFast Consistency = "fast"
)

// ParseConsistency maps the wire/flag form onto a Consistency; the
// empty string means "use the deployment default".
func ParseConsistency(s string) (Consistency, error) {
	switch c := Consistency(s); c {
	case "", ConsistencyFresh, ConsistencyFast:
		return c, nil
	default:
		return "", fmt.Errorf("shard: unknown consistency %q (want %q or %q)", s, ConsistencyFresh, ConsistencyFast)
	}
}

// Config configures a Manager.
type Config struct {
	// Dim is the feature dimensionality d. Required.
	Dim int
	// Shards is the number of shard workers N (default 1).
	Shards int
	// Engine describes the per-shard engine. For KindASCS with a zero
	// Schedule the schedule is auto-derived from a warm-up prefix
	// (Warmup must be positive).
	Engine EngineSpec
	// Warmup, when positive, buffers that many leading samples to derive
	// the ASCS schedule (and standardization) before the workers start.
	Warmup int
	// Alpha is the assumed signal-pair sparsity used by the warm-up
	// solver (default 0.005, as in the batch Estimator).
	Alpha float64
	// Standardize rescales features to unit variance using the warm-up
	// prefix so estimates approximate correlations (requires Warmup).
	Standardize bool
	// QueueLen is the per-shard channel depth in batches (default 64).
	QueueLen int
	// FlushOps is the op-count at which a per-shard ingest batch is
	// flushed to its worker (default 4096).
	FlushOps int
	// TrackCandidates bounds each shard's retrieval candidate set
	// (default 1<<14). Serving retrieval is always candidate-tracked:
	// at trillion-pair scale the universe cannot be enumerated.
	TrackCandidates int
	// InvStd, when non-nil, fixes the per-feature scaling factors
	// directly (length Dim); used by Restore and by callers that fitted
	// standardization elsewhere.
	InvStd []float64
	// QueryConsistency is the default lane for queries that do not pick
	// one explicitly (default ConsistencyFresh, the classic FIFO
	// semantics). Flush, snapshots, and MergedSketch always run fresh
	// regardless — they are barriers, not queries.
	QueryConsistency Consistency

	// Admission selects what ingest does when a shard FIFO is at its
	// bound: AdmitBlock (default — classic backpressure), AdmitShed
	// (fail fast with ErrQueueFull), or AdmitDegrade (shed + the
	// overload governor re-routing fresh queries to the fast lane).
	Admission AdmissionPolicy
	// ShedHighWater is the FIFO fill fraction at which shed/degrade
	// refuse ingest (default 1.0: a full queue). Lower values shed
	// earlier, trading peak throughput for headroom.
	ShedHighWater float64
	// DegradeHigh / DegradeLow are the governor's hysteresis thresholds
	// as FIFO fill fractions (defaults 0.8 and 0.3): fresh queries
	// degrade to the fast lane above High and recover below Low.
	DegradeHigh, DegradeLow float64

	// FoldIdle, when positive, enables the idle-shard fold policy: a
	// worker whose engine has applied no ingest for FoldIdleTicks
	// consecutive FoldIdle intervals folds its sketch in place (halving
	// the table width FoldLevels times), releasing memory pressure while
	// the shard is cold; the first ingest batch to arrive unfolds it
	// back to full resolution before any increment lands. The check is
	// tick-driven on the worker goroutine — the ingest hot path pays one
	// branch per batch, nothing per pair. Zero disables.
	FoldIdle time.Duration
	// FoldIdleTicks is how many consecutive quiet FoldIdle intervals
	// precede a fold (default 2: one full interval of observed silence,
	// since the first tick after the last batch may be partial).
	FoldIdleTicks int
	// FoldLevels is how many width halvings an idle fold applies
	// (default 3, clamped to the engine's MaxFoldLevels).
	FoldLevels int
	// SnapshotFold, when positive, streams snapshot sketch blobs
	// pre-folded to that absolute fold level (clamped per engine to its
	// maximum): up to 2^L× fewer sketch bytes on disk. Restored shards
	// serve at the folded resolution until their first ingest batch
	// unfolds them. Zero snapshots at live resolution.
	SnapshotFold int

	// WALDir, when non-empty, arms the write-ahead log: every applied
	// ingest batch is teed to a group-commit writer under this directory,
	// and construction replays any log tail past the restored snapshot's
	// coverage before serving (see internal/wal and wal.go in this
	// package). Empty runs without durability, exactly as before.
	WALDir string
	// WALSync is the log's durability policy: "batch" (default — one
	// fsync per coalesced commit group), "interval" or an explicit
	// duration (periodic fsync; RPO = the interval), or "off" (OS page
	// cache only; RPO = whatever the kernel had not written back).
	WALSync string
	// WALSegmentBytes caps each log segment before rotation (default
	// 64 MiB; minimum 4 KiB). Snapshots truncate segments their manifest
	// coverage makes redundant.
	WALSegmentBytes int64

	// Faults, when non-nil, wires the deterministic fault injector into
	// the workers and the snapshot path. Test/chaos use only; never
	// serialized.
	Faults *faults.Injector
}

func (c *Config) fill() error {
	if c.Dim < 2 {
		return fmt.Errorf("shard: Dim must be ≥ 2, got %d", c.Dim)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards > 1024 {
		return fmt.Errorf("shard: Shards must be in [1,1024], got %d", c.Shards)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.005
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("shard: Alpha must be in (0,1), got %v", c.Alpha)
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 64
	}
	if c.FlushOps <= 0 {
		c.FlushOps = 4096
	}
	if c.TrackCandidates <= 0 {
		c.TrackCandidates = 1 << 14
	}
	if c.InvStd != nil && len(c.InvStd) != c.Dim {
		return fmt.Errorf("shard: InvStd has length %d, want %d", len(c.InvStd), c.Dim)
	}
	if c.QueryConsistency == "" {
		c.QueryConsistency = ConsistencyFresh
	}
	if _, err := ParseConsistency(string(c.QueryConsistency)); err != nil {
		return err
	}
	if c.Admission == "" {
		c.Admission = AdmitBlock
	}
	if _, err := ParseAdmission(string(c.Admission)); err != nil {
		return err
	}
	if c.ShedHighWater == 0 {
		c.ShedHighWater = 1.0
	}
	if c.ShedHighWater <= 0 || c.ShedHighWater > 1 {
		return fmt.Errorf("shard: ShedHighWater must be in (0,1], got %v", c.ShedHighWater)
	}
	if c.DegradeHigh == 0 {
		c.DegradeHigh = 0.8
	}
	if c.DegradeLow == 0 {
		c.DegradeLow = 0.3
	}
	if c.DegradeLow <= 0 || c.DegradeHigh > 1 || c.DegradeLow >= c.DegradeHigh {
		return fmt.Errorf("shard: governor thresholds must satisfy 0 < DegradeLow < DegradeHigh ≤ 1, got low=%v high=%v",
			c.DegradeLow, c.DegradeHigh)
	}
	if c.FoldIdle < 0 {
		return fmt.Errorf("shard: FoldIdle must be ≥ 0, got %v", c.FoldIdle)
	}
	if c.FoldIdleTicks == 0 {
		c.FoldIdleTicks = 2
	}
	if c.FoldIdleTicks < 1 {
		return fmt.Errorf("shard: FoldIdleTicks must be ≥ 1, got %d", c.FoldIdleTicks)
	}
	if c.FoldLevels == 0 {
		c.FoldLevels = 3
	}
	if c.FoldLevels < 1 {
		return fmt.Errorf("shard: FoldLevels must be ≥ 1, got %d", c.FoldLevels)
	}
	if c.SnapshotFold < 0 {
		return fmt.Errorf("shard: SnapshotFold must be ≥ 0, got %d", c.SnapshotFold)
	}
	if c.WALDir == "" {
		if c.WALSync != "" {
			return fmt.Errorf("shard: WALSync %q has no effect without WALDir", c.WALSync)
		}
		if c.WALSegmentBytes != 0 {
			return fmt.Errorf("shard: WALSegmentBytes has no effect without WALDir")
		}
		return nil
	}
	if _, _, err := wal.ParseSync(c.WALSync); err != nil {
		return err
	}
	if c.WALSegmentBytes == 0 {
		c.WALSegmentBytes = wal.DefaultSegmentBytes
	}
	if c.WALSegmentBytes < 4096 {
		return fmt.Errorf("shard: WALSegmentBytes must be ≥ 4096, got %d", c.WALSegmentBytes)
	}
	return nil
}

// rowHdr describes one run of routed pair increments sharing a row
// base and a step: the run's pair keys are base + prt[i] (a wrapping
// uint64 add), its increments xs[i]. RowBase is strictly monotone in
// the row feature for a fixed Dim and the step distinguishes samples,
// so (base, t) identifies a row run unambiguously.
type rowHdr struct {
	base uint64
	t    int
	n    int
}

// rowBatch is the routed ingest unit: a columnar batch of pair
// increments grouped into row runs. Shipping (base, partners, xs) runs
// instead of flat (key, x) ops is smaller on the wire and in the WAL:
// one base per run instead of a full key per pair. The worker
// materializes the keys (base + partner) per step and offers each
// step's runs in one OfferPairs call (see apply).
type rowBatch struct {
	hdrs []rowHdr
	prt  []uint64  // partner ids, Σ hdrs[i].n entries, run-contiguous
	xs   []float64 // pre-multiplied increments, same length as prt
}

// add appends one pair increment, extending the current run when the
// (base, step) pair matches and opening a new run otherwise.
func (b *rowBatch) add(base uint64, t int, partner uint64, x float64) {
	if n := len(b.hdrs); n == 0 || b.hdrs[n-1].base != base || b.hdrs[n-1].t != t {
		b.hdrs = append(b.hdrs, rowHdr{base: base, t: t})
	}
	b.hdrs[len(b.hdrs)-1].n++
	b.prt = append(b.prt, partner)
	b.xs = append(b.xs, x)
}

// pairs returns the number of pair increments staged in the batch.
func (b *rowBatch) pairs() int { return len(b.prt) }

// reset empties the batch for freelist reuse, keeping capacity.
func (b *rowBatch) reset() *rowBatch {
	b.hdrs, b.prt, b.xs = b.hdrs[:0], b.prt[:0], b.xs[:0]
	return b
}

// msg is the unit consumed by a worker: either an ingest batch (ops)
// or a control/query closure (fn). The ingest FIFO carries both kinds
// — one ordered channel is what makes fresh queries and snapshots
// totally ordered with ingest; the priority lane carries closures only.
// enq is the enqueue timestamp, observed by the worker into the
// queue-wait histograms (closures self-time; batches use this field).
type msg struct {
	ops *rowBatch
	fn  func()
	enq time.Time
}

// worker owns one engine. All fields below qch are touched only by the
// worker goroutine (or inside closures it executes) — never locked.
type worker struct {
	id int
	// ch is the ingest FIFO: batches plus fresh-lane closures, applied
	// strictly in enqueue order.
	ch chan msg
	// qch is the bounded priority lane: query closures the run loop
	// drains ahead of queued ingest batches, so a fast-lane query's
	// wait is the message in flight, not the queue depth.
	qch   chan msg
	eng   sketchapi.Engine
	track *topk.Tracker
	lastT int
	// ops counts every routed pair increment; zeros counts the ones
	// apply dropped because they were exactly ±0 (a subset of ops).
	ops   uint64
	zeros uint64

	// Telemetry. tel is the shard's published counter block (may be nil
	// in unit tests that build workers by hand). batches and laneJumps
	// are plain single-writer counters — the worker goroutine owns them
	// and copies them into tel.Snap with atomic stores at message
	// boundaries (see publish).
	tel       *obs.ShardTel
	batches   uint64
	laneJumps uint64
	// prunedBase/refusedBase are the tracker counters a restored worker
	// resumes from: the rebuilt tracker counts from zero, and these keep
	// the published totals monotonic across the restore.
	prunedBase  uint64
	refusedBase uint64

	// free is the manager's batch freelist: applied ingest batches are
	// returned here so route can reuse them instead of growing fresh
	// ones per call (the worker is the only goroutine that knows when a
	// batch is done).
	free chan *rowBatch

	// Durability tee (nil-disabled). When wal is non-nil the worker
	// hands each *applied* batch to the group-commit log goroutine —
	// stamped with the next global sequence number from walGlobal —
	// instead of recycling it; the log goroutine returns it to the
	// freelist after encoding. walLast is the worker's highest teed
	// sequence, captured into snapshot manifests as that shard's WAL
	// coverage (worker-goroutine-owned, like everything above).
	wal       chan<- walItem
	walGlobal *atomic.Uint64
	walLast   uint64

	// faults is the optional chaos injector (nil in production: every
	// hook is nil-safe, so the hot path pays one branch per batch).
	faults *faults.Injector

	// Fold policy (idle-shard memory elasticity). foldTick delivers the idle
	// checks (nil when the policy is off, so its select case never fires);
	// foldLevels/foldTicks are the resolved policy knobs. folded marks an
	// engine currently serving at reduced resolution — set by an idle fold
	// or by restoring a pre-folded snapshot, cleared by the unconditional
	// unfold at the top of apply. quiet counts consecutive idle ticks,
	// tickOps the op count at the previous tick. folds/unfolds are published
	// counters.
	foldTicker *time.Ticker
	foldTick   <-chan time.Time
	foldLevels int
	foldTicks  int
	folded     bool
	quiet      int
	tickOps    uint64
	folds      uint64
	unfolds    uint64

	// lambda is the per-step decay factor of unbounded deployments
	// (0 = fixed-horizon). The engine ages itself inside BeginStep; the
	// worker additionally ages its candidate tracker at the same step
	// boundary — both are lazy O(1) scale bumps on the worker goroutine,
	// so the hot path stays lock-free and allocation-free.
	lambda float64

	// keys, xs and ests are apply's step-packing scratch: the batch's
	// materialized nonzero pair keys, their increments, and the
	// per-offer estimates the tracker scores from, grown to the largest
	// batch seen and reused.
	keys []uint64
	xs   []float64
	ests []float64
}

// trackerCounts returns the tracker's cumulative pruned and refused
// offers, snapshot baselines included.
func (w *worker) trackerCounts() (pruned, refused uint64) {
	return w.prunedBase + w.track.Pruned(), w.refusedBase + w.track.Refused()
}

// wire attaches the telemetry block. Called before the worker
// goroutine starts (or with the worker quiescent), then publishes once
// so restored state (ops, step) is visible to scrapes before the first
// batch lands.
func (w *worker) wire(tel *obs.ShardTel) {
	w.tel = tel
	w.publish()
}

// publish copies the worker-owned counters and the engine's health
// snapshot into the shard's atomic telemetry block. Called on the
// worker goroutine at message boundaries: every store is a plain
// atomic.Uint64.Store, so the cost is ~25 uncontended stores per batch
// (4096 ops) and zero allocations — scrapers read the slots wait-free
// without ever enqueuing onto this goroutine.
func (w *worker) publish() {
	tel := w.tel
	if tel == nil {
		return
	}
	s := &tel.Snap
	s.Store(obs.ShardBatches, w.batches)
	s.Store(obs.ShardOps, w.ops)
	s.Store(obs.ShardZeroIncrements, w.zeros)
	s.Store(obs.ShardLaneJumps, w.laneJumps)
	s.Store(obs.ShardStep, uint64(w.lastT))
	s.Store(obs.ShardTracked, uint64(w.track.Len()))
	pruned, refused := w.trackerCounts()
	s.Store(obs.ShardTrackerPruned, pruned)
	s.Store(obs.ShardTrackerRefused, refused)
	s.Store(obs.ShardEngineBytes, uint64(w.eng.Bytes()))
	h := w.eng.Health()
	s.Store(obs.ShardGateOffered, h.GateOffered)
	s.Store(obs.ShardGateAdmitted, h.GateAdmitted)
	s.Store(obs.ShardExplorationInserts, h.ExplorationInserts)
	s.StoreFloat(obs.ShardAdmittedMass, h.AdmittedMass)
	s.StoreFloat(obs.ShardRejectedMass, h.RejectedMass)
	s.StoreFloat(obs.ShardGateTau, h.Tau)
	s.Store(obs.ShardDecayRenorms, h.DecayRenorms)
	s.Store(obs.ShardWaveGroups, h.WaveGroups)
	s.Store(obs.ShardWaveFallbackConflict, h.WaveFallbackConflict)
	s.Store(obs.ShardWaveFallbackExploration, h.WaveFallbackExploration)
	s.Store(obs.ShardWaveFallbackShape, h.WaveFallbackShape)
	if w.eng.Decaying() {
		s.StoreFloat(obs.ShardNEff, w.eng.EffectiveSamples())
	}
	s.Store(obs.ShardFoldLevel, uint64(w.eng.FoldLevel()))
	s.Store(obs.ShardFolds, w.folds)
	s.Store(obs.ShardUnfolds, w.unfolds)
	if w.wal != nil {
		s.Store(obs.ShardWALLastSeq, w.walLast)
	}
}

// foldSetup arms the idle ticker when the policy is enabled. Called
// before the worker goroutine starts (construction and restore), like
// wire.
func (w *worker) foldSetup(idle time.Duration, ticks, levels int) {
	// A restored pre-folded snapshot starts life folded: the first
	// ingest batch unfolds it exactly like a policy fold.
	w.folded = w.eng.FoldLevel() > 0
	if idle <= 0 {
		return
	}
	if max := w.eng.MaxFoldLevels(); levels > max {
		levels = max
	}
	if levels <= 0 {
		return
	}
	w.foldLevels = levels
	w.foldTicks = ticks
	w.foldTicker = time.NewTicker(idle)
	w.foldTick = w.foldTicker.C
}

// foldIdleCheck runs on the worker goroutine at each fold-policy
// tick: a tick with no ops applied since the previous one counts as
// quiet, and foldTicks consecutive quiet ticks fold the engine in
// place. Queries keep being served (at the folded resolution) —
// folding trades accuracy headroom for memory, never availability.
func (w *worker) foldIdleCheck() {
	if w.folded {
		return
	}
	if w.ops != w.tickOps {
		w.tickOps = w.ops
		w.quiet = 0
		return
	}
	w.quiet++
	if w.quiet < w.foldTicks {
		return
	}
	w.quiet = 0
	// The only fold error is a target past MaxFoldLevels, which
	// foldSetup's clamp rules out; guard anyway so a future engine
	// cannot wedge the worker.
	if err := w.eng.Fold(w.foldLevels); err == nil {
		w.folded = true
		w.folds++
	}
}

// beginStep announces a step advance to the engine and applies the
// tracker's decay ticks for the steps skipped.
func (w *worker) beginStep(t int) {
	if w.lambda != 0 {
		w.track.Decay(sketchapi.DecayPow(w.lambda, t-w.lastT))
	}
	w.lastT = t
	w.eng.BeginStep(t)
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	if w.foldTicker != nil {
		defer w.foldTicker.Stop()
	}
	// Local copies go nil once their channel closes and drains; a nil
	// channel blocks its select case, which is exactly the retirement
	// semantics wanted here.
	ch, qch := w.ch, w.qch
	for ch != nil || qch != nil {
		// Priority pass: serve the fast-lane queries already queued at
		// the pass start before the next ingest FIFO message. Queries
		// and batches alike run on this goroutine, so both lanes observe
		// batch-boundary-consistent engine state; the lanes differ only
		// in what a query waits behind. The pass is bounded by the
		// backlog sampled once — queries arriving mid-pass wait for the
		// next message boundary — so a sustained stream of fast queries
		// cannot starve ingest: at least one FIFO message progresses
		// between passes.
	drain:
		for n := len(qch); qch != nil && n > 0; n-- {
			select {
			case m, ok := <-qch:
				if !ok {
					qch = nil
				} else {
					m.fn()
					w.publish()
				}
			default:
				break drain
			}
		}
		if ch == nil && qch == nil {
			// The pass may have retired the last live channel; reaching
			// the select below with both nil would block forever.
			break
		}
		select {
		case m, ok := <-ch:
			if !ok {
				ch = nil
				continue
			}
			if m.fn != nil {
				m.fn()
				w.publish()
				continue
			}
			w.applyBatch(m)
			if w.wal != nil {
				// Durability tee: the applied batch rides to the group-commit
				// log goroutine, which recycles it after encoding. The
				// blocking send is deliberate backpressure — a log that
				// cannot keep up slows ingest instead of losing data — and
				// costs no allocation, preserving the 0 allocs/pair bound.
				seq := w.walGlobal.Add(1)
				w.walLast = seq
				w.wal <- walItem{seq: seq, sh: w.id, b: m.ops}
			} else {
				// Batch applied: recycle its staging buffer (drop it when
				// the freelist is full — bounded memory beats retention).
				select {
				case w.free <- m.ops.reset():
				default:
				}
			}
			w.publish()
		case m, ok := <-qch:
			if !ok {
				qch = nil
				continue
			}
			m.fn()
			w.publish()
		case <-w.foldTick:
			// Idle-fold policy tick (nil channel — never taken — when the
			// policy is off). Runs on the worker goroutine like everything
			// else that touches the engine.
			w.foldIdleCheck()
			w.publish()
		}
	}
}

// applyBatch applies one ingest batch, observing queue wait, apply
// time, and batch size into the shard histograms (two time.Now calls
// per ~4096-op batch — noise next to the sketch work, and no
// allocations either way).
func (w *worker) applyBatch(m msg) {
	w.faults.BeforeApply(w.id)
	if w.tel == nil {
		w.apply(m.ops)
		w.batches++
		return
	}
	w.tel.IngestWait.Observe(int64(time.Since(m.enq)))
	start := time.Now()
	w.apply(m.ops)
	w.tel.Apply.Observe(int64(time.Since(start)))
	w.tel.BatchSize.Observe(int64(m.ops.pairs()))
	w.batches++
}

func (w *worker) apply(b *rowBatch) {
	if w.folded {
		// First ingest after an idle fold (or a folded-snapshot restore):
		// resume full resolution before any increment lands. Deliberately
		// unconditional on the policy so restored pre-folded snapshots
		// heal themselves; the steady-state hot path pays this one branch
		// per batch and nothing per pair.
		w.eng.Unfold()
		w.folded = false
		w.unfolds++
	}
	// Step packing: consecutive runs that need no step boundary between
	// them (normally one step's runs on this shard) are keyed into one
	// scratch slice and offered in one OfferPairs call, so the wave
	// groups fill across row boundaries instead of draining on the
	// ~4-pair runs of sparse samples. This is exact: engine state does
	// not depend on how offers are split into calls, τ and decay move
	// only at beginStep, and the tracker never feeds back into the
	// engine, so a span's engine offers may all precede its tracker
	// offers.
	//
	// Zero-increment skip (DESIGN.md): the pass that writes a span's keys
	// and increments drops every pair whose increment is exactly ±0.
	// Adding ±0 leaves a cell unchanged unless the cell is −0, so CS and
	// ASCS tables are the ones the full offer would leave. Every span
	// still begins its step, and ops still counts every routed pair.
	n := b.pairs()
	if cap(w.keys) < n {
		w.keys = make([]uint64, n)
		w.xs = make([]float64, n)
		w.ests = make([]float64, n)
	}
	keys, xs, ests := w.keys[:n], w.xs[:n], w.ests[:n]
	o := 0
	for i := 0; i < len(b.hdrs); {
		if t := b.hdrs[i].t; t > w.lastT {
			w.beginStep(t)
		}
		lo, c := o, o // c: end of the span's surviving pairs
		for ; i < len(b.hdrs) && b.hdrs[i].t <= w.lastT; i++ {
			h := b.hdrs[i]
			src := b.xs[o : o+h.n]
			for j, p := range b.prt[o : o+h.n] {
				if x := src[j]; x != 0 {
					keys[c] = h.base + p
					xs[c] = x
					c++
				}
			}
			o += h.n
		}
		w.zeros += uint64(o - c)
		// The tracker reuses the per-offer estimates (one locate serves
		// gate, insert, and score). Candidates are scored by the current
		// |estimate| and rescored at query time, so keys the gate keeps
		// admitting stay hot.
		w.eng.OfferPairs(keys[lo:c], xs[lo:c], ests[lo:c])
		for j, key := range keys[lo:c] {
			w.track.Offer(key, math.Abs(ests[lo+j]))
		}
	}
	w.ops += uint64(n)
}

// kv is a per-shard query result: a candidate key with its signed
// estimate at the shard's current step.
type kv struct {
	key uint64
	est float64
}

// localTop returns the shard's k best candidates under rank. The
// tracked keys are rescored chunk by chunk through the engine's batch
// read (EstimateKeys: the wave stages), and one more batch read over
// the k winners supplies their signed estimates.
func (w *worker) localTop(k int, rank func(float64) float64) []kv {
	items := w.track.TopBatch(k, func(keys []uint64, scores []float64) {
		w.eng.EstimateKeys(keys, scores)
		for i, v := range scores {
			scores[i] = rank(v)
		}
	})
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	ests := make([]float64, len(items))
	w.eng.EstimateKeys(keys, ests)
	out := make([]kv, len(items))
	for i, key := range keys {
		out[i] = kv{key: key, est: ests[i]}
	}
	return out
}

// Manager partitions the pair-key space across shard workers and fronts
// ingest, query, and snapshot traffic for all of them.
type Manager struct {
	cfg Config

	// mu guards lifecycle and step assignment only — the control plane.
	// The data plane (sketch access) is lock-free by construction: each
	// sketch is confined to its worker goroutine.
	mu      sync.Mutex
	t       int
	closed  bool
	warming bool
	// replaying is set while the warm-up-completing ingest routes the
	// buffered prefix with mu released; replayCond wakes the waiters
	// (concurrent ingest, snapshots) when it finishes. Queries do not
	// wait — serving them during the replay is the point.
	replaying  bool
	replayCond *sync.Cond
	wbuf       []stream.Sample
	invStd     []float64
	spec       EngineSpec

	sendWG   sync.WaitGroup // in-flight channel sends, for safe Close
	workerWG sync.WaitGroup
	workers  []*worker

	// tels holds one telemetry block per shard, allocated at
	// construction (before the workers exist) so /metrics scrapes are
	// answerable during warm-up and never touch the control mutex: the
	// slice itself is immutable after New/Restore and every slot is
	// atomics all the way down.
	tels []*obs.ShardTel

	// opFree / bufFree recycle the per-shard ingest staging: opFree
	// holds row batches (returned by workers after apply), bufFree
	// holds the per-call shard-indexed buffer tables. Both are bounded
	// channels used as lock-free freelists — an empty freelist
	// allocates, a full one drops — so steady-state Ingest performs no
	// per-call staging allocations while memory stays bounded.
	opFree  chan *rowBatch
	bufFree chan []*rowBatch

	// Robustness layer. shedAt is the precomputed FIFO depth (batches)
	// at which shed/degrade refuse ingest; gov is the hysteretic
	// overload governor (non-nil only under AdmitDegrade); faults is the
	// optional chaos injector. The counters are the manager-level view
	// the chaos harness reconciles against the HTTP layer's 429/503
	// accounting.
	shedAt          int
	gov             *governor
	faults          *faults.Injector
	shedRequests    atomic.Uint64
	deadlineOps     atomic.Uint64
	deadlineQueries atomic.Uint64

	// Estimate caching, first slice: the most recent top-k response is
	// memoized per (k, lane, rank) and re-served — without a shard
	// fan-out — to queries that opted into it (the folded-resolution
	// read path), as long as the epoch is unchanged. The epoch advances
	// whenever served state may move: an ingest step assignment, a
	// flush barrier, a warm-up replay. Restores start a fresh manager,
	// so the zero (invalid) memo covers them.
	cacheEpoch atomic.Uint64
	cacheMu    sync.Mutex
	cacheTopK  topkMemo

	// Snapshot observability: byte total of the last committed
	// snapshot and the count of successful snapshots (scraped by the
	// daemon's /metrics; pre-folded snapshots show as smaller totals).
	lastSnapshotBytes atomic.Uint64
	snapshotsTotal    atomic.Uint64

	// Durability layer (nil/zero when WALDir is unset). wlog owns the
	// segment log and its group-commit goroutine; walSeq issues the
	// global record sequence numbers the workers stamp at tee time.
	wlog   *walState
	walSeq atomic.Uint64
}

// topkMemo is the memoized top-k response. res is shared with every
// caller the memo served — read-only by contract.
type topkMemo struct {
	valid     bool
	k         int
	lane      Consistency
	magnitude bool
	epoch     uint64
	res       []PairEstimate
}

// New validates cfg and starts the shard workers (immediately, or after
// the warm-up prefix for auto-tuned configurations).
func New(cfg Config) (*Manager, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	needSchedule := cfg.Engine.Kind == KindASCS && cfg.Engine.Schedule == zeroSchedule
	if err := cfg.Engine.validate(!needSchedule); err != nil {
		return nil, err
	}
	needWarm := needSchedule || cfg.Standardize
	if needWarm && cfg.Warmup < 4 {
		return nil, fmt.Errorf("shard: engine %q with auto schedule (or Standardize) requires Warmup ≥ 4", cfg.Engine.Kind)
	}
	if !needWarm && cfg.Warmup > 0 {
		return nil, fmt.Errorf("shard: Warmup has no effect for engine %q with a fixed schedule and no Standardize; set it to 0", cfg.Engine.Kind)
	}
	if !cfg.Engine.decaying() && cfg.Warmup >= cfg.Engine.T {
		return nil, fmt.Errorf("shard: Warmup (%d) must be below the horizon T (%d)", cfg.Warmup, cfg.Engine.T)
	}
	m := &Manager{cfg: cfg, spec: cfg.Engine, invStd: cfg.InvStd}
	m.replayCond = sync.NewCond(&m.mu)
	m.tels = make([]*obs.ShardTel, cfg.Shards)
	for i := range m.tels {
		m.tels[i] = &obs.ShardTel{}
	}
	m.initAdmission()
	// A few recycled op buffers per shard covers steady-state routing
	// (route stages at most one buffer per shard at a time; workers
	// return them promptly). Deliberately much smaller than
	// Shards×QueueLen: a saturation burst's extra buffers drop to GC
	// instead of pinning worst-case staging memory for the manager's
	// lifetime.
	m.opFree = make(chan *rowBatch, 4*cfg.Shards)
	m.bufFree = make(chan []*rowBatch, 8)
	if needWarm {
		m.warming = true
		if cfg.WALDir != "" {
			// The log must be empty (no workers exist to replay into);
			// setupWAL fails closed otherwise. start() arms the workers
			// when the warm-up completes.
			if err := m.setupWAL(nil, false); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	if err := m.start(cfg.Engine); err != nil {
		return nil, err
	}
	if cfg.WALDir != "" {
		// Workers are live: replay any existing log through their FIFOs
		// (a fresh manager covers nothing, so every record replays), then
		// arm the tees behind the replayed batches.
		if err := m.setupWAL(nil, false); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// start builds the workers from spec and launches their goroutines.
// Callers hold mu or have exclusive access (construction).
func (m *Manager) start(spec EngineSpec) error {
	if m.wlog != nil {
		// Warm-up completion arms a log that was opened (empty) at New,
		// before the schedule existed: pin the derived spec the engines
		// will actually run before the first record can be teed.
		if err := writeWALConfig(m.cfg.WALDir, walConfig{Dim: m.cfg.Dim, Shards: m.cfg.Shards, Engine: spec}); err != nil {
			return err
		}
	}
	workers := make([]*worker, m.cfg.Shards)
	for i := range workers {
		eng, err := spec.build()
		if err != nil {
			return err
		}
		w := &worker{
			id:     i,
			ch:     make(chan msg, m.cfg.QueueLen),
			qch:    make(chan msg, m.cfg.QueueLen),
			eng:    eng,
			track:  topk.NewTracker(m.cfg.TrackCandidates),
			lambda: spec.Lambda,
			free:   m.opFree,
			faults: m.faults,
		}
		w.foldSetup(m.cfg.FoldIdle, m.cfg.FoldIdleTicks, m.cfg.FoldLevels)
		if m.wlog != nil {
			// Warm-up completion: the log was opened (empty) at New; arm
			// the tee before the goroutine starts.
			w.wal = m.wlog.ch
			w.walGlobal = &m.walSeq
		}
		w.wire(m.tels[i])
		workers[i] = w
	}
	m.spec = spec
	m.workers = workers
	m.workerWG.Add(len(workers))
	for _, w := range workers {
		go w.run(&m.workerWG)
	}
	return nil
}

// shardOf routes a pair key to its owning shard. The mix decorrelates
// the routing from the structured linear pair index (and from the
// sketch hashes, which mix against per-table seeds).
func (m *Manager) shardOf(key uint64) int {
	return int(hashing.Mix64(key) % uint64(m.cfg.Shards))
}

// Dim returns the configured feature dimensionality.
func (m *Manager) Dim() int { return m.cfg.Dim }

// Horizon returns the stream horizon T, or 0 when the deployment is
// unbounded (decay mode) — an unbounded stream has no horizon, and
// reporting the window here would masquerade as one. Use Window for
// the decayed-serving analogue.
func (m *Manager) Horizon() int {
	if m.cfg.Engine.decaying() {
		return 0
	}
	return m.cfg.Engine.T
}

// Window returns the effective sample window W of an unbounded
// (decay-mode) deployment — the mass the estimates are normalized by,
// W ≈ 1/(1−λ) — and 0 for fixed-horizon deployments.
func (m *Manager) Window() int {
	if m.cfg.Engine.decaying() {
		return m.cfg.Engine.T
	}
	return 0
}

// Unbounded reports whether the deployment serves an unbounded stream
// (exponential-decay mode).
func (m *Manager) Unbounded() bool { return m.cfg.Engine.decaying() }

// DecayFactor returns the per-step decay factor λ of an unbounded
// deployment (0 for fixed-horizon ones).
func (m *Manager) DecayFactor() float64 { return m.cfg.Engine.Lambda }

// Step returns the highest assigned global step.
func (m *Manager) Step() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.warming {
		return len(m.wbuf)
	}
	return m.t
}

// Warming reports whether the manager is still buffering its warm-up
// prefix.
func (m *Manager) Warming() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.warming
}

// Ingest feeds a batch of samples, assigning them consecutive global
// steps. It returns the step range [first, last] they occupy. Safe for
// concurrent use; concurrent batches interleave in an arbitrary order.
func (m *Manager) Ingest(samples []stream.Sample) (first, last int, err error) {
	return m.IngestCtx(context.Background(), samples)
}

// IngestCtx is Ingest bounded by a context: if ctx expires while a full
// shard FIFO is blocking delivery, the remaining ops are abandoned
// (counted in ascs_shard_deadline_abandons_total) and ErrDeadline is
// returned — the batches delivered before expiry stay applied, the one
// partial-delivery case in the API. Under the shed/degrade admission
// policies a request arriving while any shard FIFO is at its bound is
// refused whole with ErrQueueFull before any step is assigned, so a
// backed-off retry replays cleanly.
func (m *Manager) IngestCtx(ctx context.Context, samples []stream.Sample) (first, last int, err error) {
	if len(samples) == 0 {
		return 0, 0, nil
	}
	for i := range samples {
		if err := samples[i].Validate(m.cfg.Dim); err != nil {
			return 0, 0, fmt.Errorf("%w %d: %v", ErrInvalidSample, i, err)
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, 0, ErrClosed
	}
	if m.warming {
		return m.ingestWarming(samples) // releases mu
	}
	if m.replaying {
		// A warm-up replay is routing the buffered prefix with mu
		// released. Later steps must not overtake prefix ops into a
		// shard FIFO (the solved T0 may be shorter than the prefix, so
		// the gate would replay out of order); wait it out. Queries do
		// not take this wait.
		m.awaitReplay()
		if m.closed {
			m.mu.Unlock()
			return 0, 0, ErrClosed
		}
	}
	if m.cfg.Admission != AdmitBlock {
		// Admission front door: all-or-nothing, before step assignment.
		// A handful of channel length reads under mu — no allocation, so
		// the pinned 0 allocs/op steady-state ingest bound holds with
		// shedding enabled.
		if sh := m.overfullShard(); sh >= 0 {
			m.mu.Unlock()
			m.tels[sh].Snap.Add(obs.ShardAdmissionRejects, 1)
			m.shedRequests.Add(1)
			return 0, 0, fmt.Errorf("shard %d at depth ≥ %d: %w", sh, m.shedAt, ErrQueueFull)
		}
	}
	if !m.cfg.Engine.decaying() && m.t+len(samples) > m.cfg.Engine.T {
		m.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: step %d + %d samples > T=%d", ErrHorizon, m.t, len(samples), m.cfg.Engine.T)
	}
	base := m.t + 1
	m.t += len(samples)
	m.cacheEpoch.Add(1)
	m.sendWG.Add(1)
	m.mu.Unlock()
	defer m.sendWG.Done()
	if err := m.route(ctx, samples, base); err != nil {
		return base, base + len(samples) - 1, err
	}
	return base, base + len(samples) - 1, nil
}

// awaitReplay blocks (releasing mu while waiting) until no warm-up
// replay is in flight. The caller holds mu and still holds it on
// return; it must re-check closed afterwards.
func (m *Manager) awaitReplay() {
	for m.replaying {
		m.replayCond.Wait()
	}
}

// replayChunk bounds one route call of the warm-up replay: small enough
// that the replaying goroutine cannot monopolize the shard FIFOs in one
// burst, large enough to amortize the routing pass.
const replayChunk = 256

// ingestWarming buffers samples (called with mu held; releases it):
// crossing the warm-up threshold derives the engine spec from the first
// Warmup buffered samples, starts the workers, and replays the whole
// buffer (the completing call's overshoot included) as steps
// 1..len(buf) in bounded chunks with mu released, so queries are served
// during the replay instead of stalling behind it.
func (m *Manager) ingestWarming(samples []stream.Sample) (first, last int, err error) {
	if !m.cfg.Engine.decaying() && len(m.wbuf)+len(samples) > m.cfg.Engine.T {
		m.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: warm-up buffer %d + %d samples > T=%d", ErrHorizon, len(m.wbuf), len(samples), m.cfg.Engine.T)
	}
	first = len(m.wbuf) + 1
	for _, s := range samples {
		m.wbuf = append(m.wbuf, s.Clone())
	}
	last = len(m.wbuf)
	if len(m.wbuf) < m.cfg.Warmup {
		m.mu.Unlock()
		return first, last, nil
	}
	// On derivation/start failure, roll this call's samples back out of
	// the buffer: the client sees an error and will resend them, and
	// keeping a copy would replay them twice on the retry.
	spec, invStd, err := m.deriveSpec()
	if err != nil {
		m.wbuf = m.wbuf[:first-1]
		m.mu.Unlock()
		return 0, 0, err
	}
	if m.cfg.Standardize {
		m.invStd = invStd
	}
	if err := m.start(spec); err != nil {
		m.wbuf = m.wbuf[:first-1]
		m.mu.Unlock()
		return 0, 0, err
	}
	m.warming = false
	m.t = len(m.wbuf)
	buf := m.wbuf
	m.wbuf = nil
	m.replaying = true
	// Hold the send guard across the replay so Close drains it before
	// closing the worker channels.
	m.sendWG.Add(1)
	m.mu.Unlock()

	for lo := 0; lo < len(buf); lo += replayChunk {
		hi := lo + replayChunk
		if hi > len(buf) {
			hi = len(buf)
		}
		// The replay rides Background: a warm-up prefix is never shed or
		// deadline-abandoned (route cannot fail without a Done channel).
		m.route(context.Background(), buf[lo:hi], 1+lo)
	}
	m.sendWG.Done()

	m.mu.Lock()
	m.replaying = false
	m.cacheEpoch.Add(1)
	m.replayCond.Broadcast()
	m.mu.Unlock()
	// The warm-up's transient allocations (the AutoSpec census and
	// solve: tens of MB on a sparse stream) are garbage now. Steady
	// ingest allocates almost nothing, so the GC cycle that would let
	// the runtime return those pages can be minutes away; return them
	// at the phase boundary instead.
	debug.FreeOSMemory()
	return first, last, nil
}

// batchChunk is how many staging batches getBatch carves out of one
// set of backing slabs when the freelist runs dry. Chunking keeps the
// routing path at well under one allocation per shipped batch even
// when the appliers lag route (e.g. a single-CPU box under a tight
// ingest loop starves the freelist): ~4 allocations buy batchChunk
// batches and the spares seed the freelist.
const batchChunk = 8

// batchHdrCap is the initial per-batch run-header capacity. A batch
// whose pairs span more runs grows its hdrs slice on demand (and keeps
// the larger capacity through the freelist).
const batchHdrCap = 64

// getBatch returns an empty staging batch with pair capacity FlushOps,
// recycled from an applied batch when one is available.
func (m *Manager) getBatch() *rowBatch {
	select {
	case b := <-m.opFree:
		return b
	default:
	}
	f := m.cfg.FlushOps
	bs := make([]rowBatch, batchChunk)
	hdrs := make([]rowHdr, batchChunk*batchHdrCap)
	prt := make([]uint64, batchChunk*f)
	xs := make([]float64, batchChunk*f)
	for i := range bs {
		// Three-index slices wall each batch off from its slab
		// neighbors: an append past capacity reallocates privately
		// instead of clobbering the next batch.
		bs[i] = rowBatch{
			hdrs: hdrs[i*batchHdrCap : i*batchHdrCap : (i+1)*batchHdrCap],
			prt:  prt[i*f : i*f : (i+1)*f],
			xs:   xs[i*f : i*f : (i+1)*f],
		}
	}
	for i := 1; i < batchChunk; i++ {
		select {
		case m.opFree <- &bs[i]:
		default:
		}
	}
	return &bs[0]
}

// getBufs returns a zeroed shard-indexed staging table for one route
// call; putBufs returns it (entries already shipped or nil).
func (m *Manager) getBufs() []*rowBatch {
	select {
	case b := <-m.bufFree:
		return b
	default:
		return make([]*rowBatch, m.cfg.Shards)
	}
}

func (m *Manager) putBufs(bufs []*rowBatch) {
	for i := range bufs {
		bufs[i] = nil
	}
	select {
	case m.bufFree <- bufs:
	default:
	}
}

// route enumerates the pair increments of samples (whose global steps
// are base, base+1, ...), bins them by owning shard as row runs, and
// ships batches. The per-shard staging buffers are recycled through the
// manager freelists (workers return each batch after applying it), so
// steady-state routing re-slices nothing: a batch's pair capacity is
// always FlushOps and the flush check fires exactly at capacity — a
// run crossing the flush boundary continues as a fresh run in the next
// batch, which the worker applies identically (OfferPairs call splits
// never change engine state). When ctx expires mid-route the staged
// remainder is abandoned (counted) and ErrDeadline propagates.
func (m *Manager) route(ctx context.Context, samples []stream.Sample, base int) error {
	bufs := m.getBufs()
	var scaled []float64
	for k := range samples {
		s := samples[k]
		t := base + k
		idx, val := s.Idx, s.Val
		if m.invStd != nil {
			scaled = scaled[:0]
			for i, ix := range idx {
				scaled = append(scaled, val[i]*m.invStd[ix])
			}
			val = scaled
		}
		for i := 0; i+1 < len(idx); i++ {
			// Row-major pair keys: partners of idx[i] are rowBase + idx[j],
			// a pure increment instead of per-pair Index arithmetic. The
			// base and partner travel separately (one base per run) and
			// the worker re-adds them; shardOf still sees the full key,
			// keeping the key-partitioned routing semantics intact.
			rowBase := uint64(pairs.RowBase(idx[i], m.cfg.Dim))
			ya := val[i]
			for j := i + 1; j < len(idx); j++ {
				p := uint64(idx[j])
				sh := m.shardOf(rowBase + p)
				b := bufs[sh]
				if b == nil {
					b = m.getBatch()
					bufs[sh] = b
				}
				b.add(rowBase, t, p, ya*val[j])
				if b.pairs() >= m.cfg.FlushOps {
					if err := m.ship(ctx, sh, b); err != nil {
						bufs[sh] = nil
						m.abandon(bufs)
						return err
					}
					bufs[sh] = nil
				}
			}
		}
	}
	for sh, b := range bufs {
		if b != nil && b.pairs() > 0 {
			if err := m.ship(ctx, sh, b); err != nil {
				bufs[sh] = nil
				m.abandon(bufs)
				return err
			}
			bufs[sh] = nil
		}
	}
	m.putBufs(bufs)
	return nil
}

// abandon accounts and recycles staged-but-unshipped batches after a
// mid-route deadline: every pair that never reached its shard is
// counted against that shard's deadline-abandon slot so the books
// reconcile (applied + abandoned = routed).
func (m *Manager) abandon(bufs []*rowBatch) {
	for sh, b := range bufs {
		if b != nil && b.pairs() > 0 {
			m.tels[sh].Snap.Add(obs.ShardDeadlineAbandons, uint64(b.pairs()))
			m.deadlineOps.Add(uint64(b.pairs()))
			select {
			case m.opFree <- b.reset():
			default:
			}
		}
	}
	m.putBufs(bufs)
}

// ship delivers one staged batch to its shard worker, stamping the
// enqueue time and racking the ingest-queue high-water mark. The
// high-water is CAS-raised on the *sender* side — concurrent Ingest
// calls all observe the depth they helped create, so the mark reflects
// peak pressure rather than whatever depth a later scrape happens to
// see. A context with a deadline bounds the blocking send; the chaos
// injector (when wired) may drop the batch or deliver it twice.
func (m *Manager) ship(ctx context.Context, sh int, b *rowBatch) error {
	if in := m.faults; in != nil {
		d := in.Deliver(sh)
		if d.Drop {
			select {
			case m.opFree <- b.reset():
			default:
			}
			return nil
		}
		if d.Dup {
			// The worker recycles applied batches through the freelist,
			// so the duplicate must be a private copy.
			dup := &rowBatch{
				hdrs: append([]rowHdr(nil), b.hdrs...),
				prt:  append([]uint64(nil), b.prt...),
				xs:   append([]float64(nil), b.xs...),
			}
			if err := m.send(ctx, sh, dup); err != nil {
				return err
			}
		}
	}
	return m.send(ctx, sh, b)
}

// send performs the (possibly deadline-bounded) channel send of one
// batch. context.Background()'s Done channel is nil, so the production
// library path keeps the plain blocking send — no select overhead.
func (m *Manager) send(ctx context.Context, sh int, b *rowBatch) error {
	w := m.workers[sh]
	if done := ctx.Done(); done != nil {
		select {
		case w.ch <- msg{ops: b, enq: time.Now()}:
		case <-done:
			m.tels[sh].Snap.Add(obs.ShardDeadlineAbandons, uint64(b.pairs()))
			m.deadlineOps.Add(uint64(b.pairs()))
			return fmt.Errorf("ingest to shard %d abandoned %d ops: %w", sh, b.pairs(), ErrDeadline)
		}
	} else {
		w.ch <- msg{ops: b, enq: time.Now()}
	}
	m.tels[sh].Snap.Max(obs.ShardQueueHighWater, uint64(len(w.ch)))
	return nil
}

// lane resolves a per-call consistency override against the deployment
// default (empty override → Config.QueryConsistency, itself defaulted
// to fresh by fill). Under AdmitDegrade the overload governor may
// re-route a fresh query to the fast lane while pressure is high —
// bounded staleness instead of a queue wait; Flush, snapshots, and
// MergedSketch bypass lane() entirely, so barriers are never degraded.
func (m *Manager) lane(c Consistency) Consistency {
	if c == "" {
		c = m.cfg.QueryConsistency
	}
	if c == ConsistencyFresh && m.gov != nil && m.gov.degradeNow(m.pressure()) {
		return ConsistencyFast
	}
	return c
}

// QueryConsistency returns the deployment's default query lane.
func (m *Manager) QueryConsistency() Consistency { return m.cfg.QueryConsistency }

// QueryTrace collects per-request span timings for one query: how long
// the closure waited in its lane, how long it ran on the worker
// goroutine, and how long the cross-shard merge took. Fan-out queries
// record the *maximum* wait and apply across shards — the shard on the
// critical path is the one the caller actually waited behind. Pass nil
// to skip tracing (the accounting is a mutex tap per shard, so it is
// reserved for sampled requests, not the steady query path).
type QueryTrace struct {
	mu        sync.Mutex
	QueueWait time.Duration
	Apply     time.Duration
	Merge     time.Duration
}

// note folds one shard's wait/apply pair into the trace (max-merge).
func (tr *QueryTrace) note(wait, apply time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if wait > tr.QueueWait {
		tr.QueueWait = wait
	}
	if apply > tr.Apply {
		tr.Apply = apply
	}
	tr.mu.Unlock()
}

// noteMerge records the cross-shard merge duration.
func (tr *QueryTrace) noteMerge(d time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.Merge = d
	tr.mu.Unlock()
}

// exec runs fn on the shard's worker goroutine and waits for it. On the
// fresh lane FIFO order means fn observes every batch enqueued before
// it; on the fast lane the worker serves fn ahead of queued batches.
// The wait and run times land in the shard's lane histograms (and in
// tr when non-nil); fast-lane executions count as lane jumps.
//
// A context with a deadline bounds both phases: the enqueue (a full
// lane refuses within the deadline instead of blocking forever) and the
// wait for a stalled worker. Abandonment is race-free by construction:
// caller and worker settle ownership of the closure through one
// CompareAndSwap on claimed, so either the worker runs fn to completion
// (and exec waits for it — results stay safe to read) or the worker
// provably never runs it (and exec returns ErrDeadline). fn never runs
// concurrently with an exec return.
func (m *Manager) exec(ctx context.Context, sh int, c Consistency, tr *QueryTrace, fn func(w *worker)) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.warming {
		m.mu.Unlock()
		return ErrWarmingUp
	}
	m.sendWG.Add(1)
	m.mu.Unlock()
	defer m.sendWG.Done()
	done := make(chan struct{})
	var claimed atomic.Bool
	w := m.workers[sh]
	fast := c == ConsistencyFast
	enq := time.Now()
	wrapped := msg{fn: func() {
		// Runs on the worker goroutine: the plain-counter bump and the
		// histogram observes follow the same single-writer/atomic rules
		// as the ingest path.
		if !claimed.CompareAndSwap(false, true) {
			// The caller abandoned at its deadline; fn must not run (it
			// would race the caller's result variables).
			close(done)
			return
		}
		wait := time.Since(enq)
		if w.tel != nil {
			if fast {
				w.laneJumps++
				w.tel.FastWait.Observe(int64(wait))
			} else {
				w.tel.FreshWait.Observe(int64(wait))
			}
		}
		start := time.Now()
		fn(w)
		tr.note(wait, time.Since(start))
		close(done)
	}}
	cdone := ctx.Done()
	lane := w.ch
	hw := obs.ShardQueueHighWater
	if fast {
		lane = w.qch
		hw = obs.ShardFastQueueHighWater
	}
	if cdone == nil {
		lane <- wrapped
	} else {
		select {
		case lane <- wrapped:
		case <-cdone:
			m.noteQueryDeadline(sh)
			return fmt.Errorf("query enqueue to shard %d: %w", sh, ErrDeadline)
		}
	}
	if w.tel != nil {
		w.tel.Snap.Max(hw, uint64(len(lane)))
	}
	if cdone == nil {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-cdone:
		if claimed.CompareAndSwap(false, true) {
			// Won the claim: the worker will skip fn when it reaches the
			// message, so returning now cannot race the caller's results.
			m.noteQueryDeadline(sh)
			return fmt.Errorf("query on shard %d: %w", sh, ErrDeadline)
		}
		// The worker claimed fn first — it is running right now. Wait it
		// out (it finishes promptly) so the caller's results are whole.
		<-done
		return nil
	}
}

// noteQueryDeadline accounts one query closure abandoned at its
// deadline against its shard and the manager totals.
func (m *Manager) noteQueryDeadline(sh int) {
	m.tels[sh].Snap.Add(obs.ShardDeadlineAbandons, 1)
	m.deadlineQueries.Add(1)
}

// execAll runs fn concurrently on every worker and waits for all. exec
// errors are lifecycle states shared by every shard (closed, warming)
// or the caller's own deadline, so the first one stands for all of
// them.
func (m *Manager) execAll(ctx context.Context, c Consistency, tr *QueryTrace, fn func(w *worker)) error {
	errs := make([]error, m.cfg.Shards)
	var wg sync.WaitGroup
	wg.Add(m.cfg.Shards)
	for i := 0; i < m.cfg.Shards; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = m.exec(ctx, i, c, tr, fn)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush blocks until every shard has applied all ingest enqueued before
// the call (a per-shard barrier, used before snapshots and by tests).
// It always rides the fresh lane — a barrier that could jump the queue
// would not be one.
func (m *Manager) Flush() error {
	m.cacheEpoch.Add(1)
	return m.execAll(context.Background(), ConsistencyFresh, nil, func(*worker) {})
}

// EstimateKey returns the current estimate for a pair key, answered by
// the owning shard on the deployment's default lane (scaled by t/T
// before the stream completes, exactly as in the batch pipeline).
func (m *Manager) EstimateKey(key uint64) (float64, error) {
	return m.EstimateKeyC(key, "")
}

// EstimateKeyC is EstimateKey on an explicit lane (empty = default).
func (m *Manager) EstimateKeyC(key uint64, c Consistency) (float64, error) {
	return m.EstimateKeyT(context.Background(), key, c, nil)
}

// EstimateKeyT is EstimateKeyC with deadline propagation and optional
// span tracing: ctx bounds the queue wait (expiry returns ErrDeadline,
// the answer is abandoned race-free) and when tr is non-nil the queue
// wait and on-worker apply time land in it.
func (m *Manager) EstimateKeyT(ctx context.Context, key uint64, c Consistency, tr *QueryTrace) (float64, error) {
	if key >= uint64(pairs.Count(m.cfg.Dim)) {
		return 0, fmt.Errorf("shard: key %d out of range for Dim=%d", key, m.cfg.Dim)
	}
	var est float64
	err := m.exec(ctx, m.shardOf(key), m.lane(c), tr, func(w *worker) { est = w.eng.Estimate(key) })
	return est, err
}

// Estimate returns the current estimate for the feature pair (a, b) on
// the deployment's default lane.
func (m *Manager) Estimate(a, b int) (float64, error) {
	return m.EstimateC(a, b, "")
}

// EstimateC is Estimate on an explicit lane (empty = default).
func (m *Manager) EstimateC(a, b int, c Consistency) (float64, error) {
	return m.EstimateT(context.Background(), a, b, c, nil)
}

// EstimateT is EstimateC with deadline propagation and optional span
// tracing.
func (m *Manager) EstimateT(ctx context.Context, a, b int, c Consistency, tr *QueryTrace) (float64, error) {
	if a > b {
		a, b = b, a
	}
	if a < 0 || a == b || b >= m.cfg.Dim {
		return 0, fmt.Errorf("shard: invalid pair (%d,%d) for Dim=%d", a, b, m.cfg.Dim)
	}
	return m.EstimateKeyT(ctx, pairs.Key(a, b, m.cfg.Dim), c, tr)
}

// PairEstimate is one retrieved pair with its estimated mean.
type PairEstimate struct {
	A, B     int
	Key      uint64
	Estimate float64
}

// TopK returns the k pairs with the largest (signed) estimates,
// fanning the query out to every shard on the deployment's default
// lane and merging the candidates.
func (m *Manager) TopK(k int) ([]PairEstimate, error) {
	return m.TopKC(k, "")
}

// TopKC is TopK on an explicit lane (empty = default).
func (m *Manager) TopKC(k int, c Consistency) ([]PairEstimate, error) {
	res, _, err := m.topK(context.Background(), k, c, nil, false, false)
	return res, err
}

// TopKT is TopKC with deadline propagation and optional span tracing:
// ctx bounds the fan-out (any shard missing the deadline fails the
// query with ErrDeadline) and the per-shard critical path (max
// wait/apply) and heap-merge time land in tr.
func (m *Manager) TopKT(ctx context.Context, k int, c Consistency, magnitude bool, tr *QueryTrace) ([]PairEstimate, error) {
	res, _, err := m.topK(ctx, k, c, tr, magnitude, false)
	return res, err
}

// TopKCachedT is TopKT for callers that tolerate the memoized
// response (the folded-resolution read path): a memo hit skips the
// shard fan-out entirely and the second return reports it. The result
// slice may be shared across callers — treat it as read-only.
func (m *Manager) TopKCachedT(ctx context.Context, k int, c Consistency, magnitude bool, tr *QueryTrace) ([]PairEstimate, bool, error) {
	return m.topK(ctx, k, c, tr, magnitude, true)
}

// TopKMagnitude ranks by |estimate| so strong negative correlations
// surface alongside positive ones.
func (m *Manager) TopKMagnitude(k int) ([]PairEstimate, error) {
	return m.TopKMagnitudeC(k, "")
}

// TopKMagnitudeC is TopKMagnitude on an explicit lane (empty = default).
func (m *Manager) TopKMagnitudeC(k int, c Consistency) ([]PairEstimate, error) {
	res, _, err := m.topK(context.Background(), k, c, nil, true, false)
	return res, err
}

func (m *Manager) topK(ctx context.Context, k int, c Consistency, tr *QueryTrace, magnitude, cached bool) ([]PairEstimate, bool, error) {
	if k < 1 {
		return nil, false, fmt.Errorf("shard: k must be ≥ 1")
	}
	lane := m.lane(c)
	// The epoch is read before the fan-out: a concurrent ingest during
	// the fan-out leaves the memo stamped with an already-stale epoch,
	// so the next cached read misses — conservative, never stale-beyond-
	// epoch.
	epoch := m.cacheEpoch.Load()
	if cached {
		m.cacheMu.Lock()
		memo := m.cacheTopK
		m.cacheMu.Unlock()
		if memo.valid && memo.epoch == epoch && memo.k == k && memo.lane == lane && memo.magnitude == magnitude {
			return memo.res, true, nil
		}
	}
	rank := func(v float64) float64 { return v }
	if magnitude {
		rank = math.Abs
	}
	locals := make([][]kv, m.cfg.Shards)
	var mu sync.Mutex
	err := m.execAll(ctx, lane, tr, func(w *worker) {
		l := w.localTop(k, rank)
		mu.Lock()
		locals[w.id] = l
		mu.Unlock()
	})
	if err != nil {
		return nil, false, err
	}
	mergeStart := time.Now()
	h := topk.NewHeap(k)
	hint := k * m.cfg.Shards
	if hint > 1<<16 {
		hint = 1 << 16
	}
	ests := make(map[uint64]float64, hint)
	for _, l := range locals {
		for _, c := range l {
			ests[c.key] = c.est
			h.Push(c.key, rank(c.est))
		}
	}
	items := h.SortedDesc()
	out := make([]PairEstimate, len(items))
	for i, it := range items {
		a, b := pairs.Decode(int64(it.Key), m.cfg.Dim)
		out[i] = PairEstimate{A: a, B: b, Key: it.Key, Estimate: ests[it.Key]}
	}
	tr.noteMerge(time.Since(mergeStart))
	// Memoize unconditionally (not just for cached callers): a full-
	// resolution query warming the memo is exactly what lets a later
	// degraded read skip its fan-out. One mutexed struct copy per
	// top-k query — nowhere near the ingest hot path.
	m.cacheMu.Lock()
	m.cacheTopK = topkMemo{valid: true, k: k, lane: lane, magnitude: magnitude, epoch: epoch, res: out}
	m.cacheMu.Unlock()
	return out, false, nil
}

// MergedSketch returns the cell-wise sum of all shard sketches. For the
// CS engine this equals the sketch of serial single-engine ingestion
// (linearity: every key lives in exactly one shard and the hash
// functions are shared); see the package comment for ASCS semantics.
// The two filter baselines split key mass across exact side structures,
// so their tables alone are not the engine state and merging them is
// refused. Decayed shards may sit at different steps (hence different
// lazy decay scales); each clone is renormalized onto scale 1 before
// the merge, which preserves its logical contents exactly.
func (m *Manager) MergedSketch() (*countsketch.Sketch, error) {
	switch m.cfg.Engine.Kind {
	case KindCS, KindASCS:
	default:
		return nil, fmt.Errorf("shard: engine %q does not expose a mergeable sketch (mass lives outside the table)", m.cfg.Engine.Kind)
	}
	clones := make([]*countsketch.Sketch, m.cfg.Shards)
	var mu sync.Mutex
	// Always fresh: the merge is an equivalence artifact (tests, tools),
	// and its contract is "every batch enqueued before the call".
	err := m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
		c := w.eng.(sketcher).Sketch().Clone()
		c.Renormalize()
		// An idle-folded shard merges at full resolution: unfolding the
		// clone replicates its cells back to full width (estimates are
		// preserved exactly), and the fold-history baseline is dropped —
		// it only matters for future re-folds, which a merge view never
		// performs.
		if c.FoldLevel() > 0 {
			c.Unfold()
		}
		c.DropFoldBase()
		mu.Lock()
		clones[w.id] = c
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	merged := clones[0]
	for _, c := range clones[1:] {
		if err := merged.Merge(c); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// ShardHealth is the structured superset of the /metrics shard gauges
// exposed through /v1/stats: the engine's sketch-health counters plus
// the worker's pressure marks. Counts are cumulative since construction;
// a restored manager resumes the ones its manifest's telemetry baseline
// carries (batches, lane jumps, folds, unfolds, tracker pruned and
// refused, and the shard's zero increments).
type ShardHealth struct {
	Batches   uint64 `json:"batches"`
	LaneJumps uint64 `json:"lane_jumps"`
	// QueueHighWater / FastQueueHighWater are the peak backlogs observed
	// at enqueue time (batches resp. closures), not the instantaneous
	// depths reported by Queue/FastQueue.
	QueueHighWater     uint64 `json:"queue_high_water"`
	FastQueueHighWater uint64 `json:"fast_queue_high_water"`
	// Gate/mass accounting — see sketchapi.Health for the semantics.
	GateOffered             uint64  `json:"gate_offered"`
	GateAdmitted            uint64  `json:"gate_admitted"`
	ExplorationInserts      uint64  `json:"exploration_inserts"`
	AdmittedMass            float64 `json:"admitted_mass"`
	RejectedMass            float64 `json:"rejected_mass"`
	Tau                     float64 `json:"tau,omitempty"`
	DecayRenorms            uint64  `json:"decay_renorms,omitempty"`
	WaveGroups              uint64  `json:"wave_groups"`
	WaveFallbackConflict    uint64  `json:"wave_fallback_conflict"`
	WaveFallbackExploration uint64  `json:"wave_fallback_exploration"`
	WaveFallbackShape       uint64  `json:"wave_fallback_shape"`
	// TrackerPruned counts offers the candidate tracker did not keep:
	// prune evictions plus the TrackerRefused offers it turned away at
	// its admission floor.
	TrackerPruned  uint64 `json:"tracker_pruned"`
	TrackerRefused uint64 `json:"tracker_refused"`
	// Folds / Unfolds count idle-policy folds and ingest-triggered
	// unfolds since construction (or the snapshot baseline).
	Folds   uint64 `json:"folds,omitempty"`
	Unfolds uint64 `json:"unfolds,omitempty"`
}

// ShardStats describes one shard worker.
type ShardStats struct {
	Shard   int    `json:"shard"`
	Engine  string `json:"engine"`
	Step    int    `json:"step"`
	Ops     uint64 `json:"ops"`
	Bytes   int    `json:"bytes"`
	Tracked int    `json:"tracked"`
	Queue   int    `json:"queue"`
	// ZeroIncrements counts the Ops that were exactly zero (on a
	// standardized stream, pairs of features the warm-up scaled to
	// zero) and so reached neither the engine nor the tracker.
	ZeroIncrements uint64 `json:"zero_increments"`
	// FastQueue is the priority-lane backlog (queries waiting to jump
	// the ingest FIFO).
	FastQueue int `json:"fast_queue,omitempty"`
	// NEff is the shard engine's effective sample count (decay mode;
	// saturates at the window W as the stream runs on).
	NEff float64 `json:"n_eff,omitempty"`
	// FoldLevel is the engine's current fold level: 0 at full
	// resolution, L after an idle fold halved the table width L times.
	FoldLevel int `json:"fold_level,omitempty"`
	// Health carries the sketch-health and pressure telemetry.
	Health ShardHealth `json:"health"`
}

// Stats is a point-in-time view of the manager.
type Stats struct {
	Dim    int `json:"dim"`
	Shards int `json:"shards"`
	// Horizon is the fixed stream horizon T, and 0 for unbounded
	// (decay-mode) deployments — see Unbounded/Window/Lambda, which
	// carry the window semantics instead of a misleading finite T.
	Horizon   int     `json:"horizon"`
	Unbounded bool    `json:"unbounded,omitempty"`
	Window    int     `json:"window,omitempty"`
	Lambda    float64 `json:"lambda,omitempty"`
	// NEff is the largest per-shard effective sample count (decay mode).
	NEff    float64 `json:"n_eff,omitempty"`
	Step    int     `json:"step"`
	Warming bool    `json:"warming"`
	Engine  string  `json:"engine"`
	// QueryConsistency is the deployment's default query lane
	// ("fresh" or "fast"); per-request overrides are not reflected here.
	QueryConsistency string `json:"query_consistency"`
	Ops              uint64 `json:"ops"`
	Bytes            int    `json:"bytes"`
	// AdmittedMass / RejectedMass aggregate the per-shard gate mass
	// split (Σ|x| of raw offered values): the admitted fraction is the
	// live signal the ROADMAP's drift-trigger work wants to watch.
	AdmittedMass float64      `json:"admitted_mass,omitempty"`
	RejectedMass float64      `json:"rejected_mass,omitempty"`
	PerShard     []ShardStats `json:"per_shard,omitempty"`
	// Admission is the robustness layer's state: policy, shed/deadline
	// counts, governor status, and the current Retry-After estimate.
	Admission AdmissionState `json:"admission"`
	// WAL is the durability layer's status — log progress plus the last
	// boot's recovery pass — or absent when the deployment runs without
	// a write-ahead log.
	WAL *WALStats `json:"wal,omitempty"`
}

// Stats reports ingest progress and per-shard engine state on the
// deployment's default lane. It is answerable during warm-up (with
// zeroed shard entries).
func (m *Manager) Stats() (Stats, error) {
	return m.StatsC("")
}

// StatsC is Stats on an explicit lane (empty = default).
func (m *Manager) StatsC(c Consistency) (Stats, error) {
	return m.StatsT(context.Background(), c, nil)
}

// StatsT is StatsC with deadline propagation and optional span tracing.
func (m *Manager) StatsT(ctx context.Context, c Consistency, tr *QueryTrace) (Stats, error) {
	m.mu.Lock()
	st := Stats{
		Dim:              m.cfg.Dim,
		Shards:           m.cfg.Shards,
		Step:             m.t,
		Warming:          m.warming,
		Engine:           string(m.cfg.Engine.Kind),
		QueryConsistency: string(m.cfg.QueryConsistency),
	}
	if m.cfg.Engine.decaying() {
		st.Unbounded = true
		st.Window = m.cfg.Engine.T
		st.Lambda = m.cfg.Engine.Lambda
	} else {
		st.Horizon = m.cfg.Engine.T
	}
	if m.warming {
		st.Step = len(m.wbuf)
		m.mu.Unlock()
		st.Admission = m.AdmissionState()
		st.WAL = m.WALStats()
		return st, nil
	}
	m.mu.Unlock()
	per := make([]ShardStats, m.cfg.Shards)
	var mu sync.Mutex
	err := m.execAll(ctx, m.lane(c), tr, func(w *worker) {
		s := ShardStats{
			Shard:          w.id,
			Engine:         w.eng.Name(),
			Step:           w.lastT,
			Ops:            w.ops,
			ZeroIncrements: w.zeros,
			Bytes:          w.eng.Bytes(),
			Tracked:        w.track.Len(),
			Queue:          len(w.ch),
			FastQueue:      len(w.qch),
		}
		pruned, refused := w.trackerCounts()
		s.Health = ShardHealth{
			Batches:        w.batches,
			LaneJumps:      w.laneJumps,
			TrackerPruned:  pruned,
			TrackerRefused: refused,
		}
		if w.tel != nil {
			s.Health.QueueHighWater = w.tel.Snap.Load(obs.ShardQueueHighWater)
			s.Health.FastQueueHighWater = w.tel.Snap.Load(obs.ShardFastQueueHighWater)
		}
		h := w.eng.Health()
		s.Health.GateOffered = h.GateOffered
		s.Health.GateAdmitted = h.GateAdmitted
		s.Health.ExplorationInserts = h.ExplorationInserts
		s.Health.AdmittedMass = h.AdmittedMass
		s.Health.RejectedMass = h.RejectedMass
		s.Health.Tau = h.Tau
		s.Health.DecayRenorms = h.DecayRenorms
		s.Health.WaveGroups = h.WaveGroups
		s.Health.WaveFallbackConflict = h.WaveFallbackConflict
		s.Health.WaveFallbackExploration = h.WaveFallbackExploration
		s.Health.WaveFallbackShape = h.WaveFallbackShape
		if w.eng.Decaying() {
			s.NEff = w.eng.EffectiveSamples()
		}
		s.FoldLevel = w.eng.FoldLevel()
		s.Health.Folds = w.folds
		s.Health.Unfolds = w.unfolds
		mu.Lock()
		per[w.id] = s
		mu.Unlock()
	})
	if err != nil {
		return Stats{}, err
	}
	for _, s := range per {
		st.Ops += s.Ops
		st.Bytes += s.Bytes
		if s.NEff > st.NEff {
			st.NEff = s.NEff
		}
		st.AdmittedMass += s.Health.AdmittedMass
		st.RejectedMass += s.Health.RejectedMass
	}
	st.PerShard = per
	st.Admission = m.AdmissionState()
	st.WAL = m.WALStats()
	return st, nil
}

// NumShards returns the shard count.
func (m *Manager) NumShards() int { return m.cfg.Shards }

// MaxShardFoldLevel reports the highest published fold level across
// shards — 0 when every engine serves at full resolution. It reads
// the wait-free telemetry blocks, so it never enqueues onto a worker
// (the level it reports is the last published one, like any scrape).
func (m *Manager) MaxShardFoldLevel() int {
	level := 0
	for _, tel := range m.tels {
		if l := int(tel.Snap.Load(obs.ShardFoldLevel)); l > level {
			level = l
		}
	}
	return level
}

// Tel returns shard i's telemetry block. The block is atomics all the
// way down and the backing slice is immutable after construction, so
// scrapers read it wait-free — a /metrics scrape never enqueues onto a
// worker and never touches the control mutex.
func (m *Manager) Tel(i int) *obs.ShardTel { return m.tels[i] }

// QueueDepth reports shard i's instantaneous ingest and fast-lane
// backlogs without enqueuing anything. During warm-up (no workers yet)
// both are zero. It takes the control mutex briefly — never a worker's
// queue — so a scrape cannot stall behind ingest.
func (m *Manager) QueueDepth(i int) (ingest, fast int) {
	m.mu.Lock()
	ws := m.workers
	m.mu.Unlock()
	if ws == nil {
		return 0, 0
	}
	return len(ws[i].ch), len(ws[i].qch)
}

// Close drains in-flight operations, stops the workers, and marks the
// manager unusable. It is idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.sendWG.Wait()
	for _, w := range m.workers {
		close(w.ch)
		close(w.qch)
	}
	m.workerWG.Wait()
	// Workers are gone — no tee sender remains — so the group-commit
	// loop can drain, final-sync, and retire.
	m.closeWAL()
	return nil
}
