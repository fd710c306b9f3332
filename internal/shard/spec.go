package shard

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/faults"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// Kind names a serving engine: one of the four implementations of
// sketchapi.Engine, whose snapshot methods make crash recovery part of
// the serving contract.
type Kind string

const (
	// KindCS is the vanilla Count Sketch engine.
	KindCS Kind = "CS"
	// KindASCS is the paper's active-sampling engine.
	KindASCS Kind = "ASCS"
	// KindASketch is the Augmented Sketch baseline (§8.3).
	KindASketch Kind = "ASketch"
	// KindColdFilter is the Cold Filter baseline (§8.3).
	KindColdFilter Kind = "ColdFilter"
)

var zeroSchedule core.Hyperparams

// EngineSpec is a fully serializable description of a per-shard engine.
// Every shard is built from the same spec: identical sketch shape,
// seed, and hash family — that shared hashing is what makes the
// fan-out/merge query path (MergedSketch) exact for the CS engine.
type EngineSpec struct {
	// Kind selects the engine.
	Kind Kind `json:"kind"`
	// Sketch is the per-shard sketch shape and hashing.
	Sketch countsketch.Config `json:"sketch"`
	// T is the stream horizon (global sample count the 1/T scaling and
	// the τ schedule are calibrated to).
	T int `json:"t"`
	// Schedule is the solved ASCS schedule (ignored for KindCS). Zero
	// with KindASCS means "derive from the warm-up prefix".
	Schedule core.Hyperparams `json:"schedule"`
	// OneSided selects the one-sided ASCS gate μ̂ ≥ τ (default is the
	// two-sided |μ̂| ≥ τ of Theorems 1–2).
	OneSided bool `json:"one_sided,omitempty"`

	// Lambda, when in (0,1], switches the deployment to exponential-
	// decay (unbounded-stream) mode: there is no horizon — T is
	// reinterpreted as the effective window W the engines normalize by
	// (typically W = round(1/(1−λ))) — engines age their tables by λ per
	// step, trackers age their candidate scores, and Ingest never
	// returns ErrHorizon. λ = 1 serves an unbounded stream with aging
	// disabled, bit-identical to the fixed-horizon engines over any
	// prefix. Zero keeps the classic fixed-horizon deployment.
	Lambda float64 `json:"lambda,omitempty"`

	// FilterCap (KindASketch) is the exact-filter slot count; zero
	// derives max(8, Tables·Range/100), the same rule as the batch
	// pipeline.
	FilterCap int `json:"filter_cap,omitempty"`
	// CFThreshold (KindColdFilter) is the layer-1 saturation threshold
	// in final-mean units; zero derives the batch pipeline default 0.05.
	CFThreshold float64 `json:"cf_threshold,omitempty"`
	// L1Sketch (KindColdFilter) is the layer-1 sketch shape; zero
	// derives a quarter of Sketch's range (Sketch then keeps the rest
	// for layer 2), the same split as the batch pipeline.
	L1Sketch countsketch.Config `json:"l1_sketch,omitempty"`
}

// decaying reports whether the spec describes an unbounded
// (exponential-decay) deployment.
func (sp EngineSpec) decaying() bool { return sp.Lambda != 0 }

// validate checks the spec; scheduleRequired is false while the
// schedule may still be derived from a warm-up prefix.
func (sp EngineSpec) validate(scheduleRequired bool) error {
	switch sp.Kind {
	case KindCS, KindASCS, KindASketch, KindColdFilter:
	default:
		return fmt.Errorf("shard: unknown engine kind %q (want %q, %q, %q or %q)",
			sp.Kind, KindCS, KindASCS, KindASketch, KindColdFilter)
	}
	if sp.T < 1 {
		return fmt.Errorf("shard: engine horizon/window T must be ≥ 1, got %d", sp.T)
	}
	if sp.Lambda != 0 {
		if err := sketchapi.ValidateDecay(sp.Lambda); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
	}
	if sp.Kind == KindASCS && scheduleRequired && sp.Schedule == zeroSchedule {
		return fmt.Errorf("shard: ASCS spec has no schedule")
	}
	if sp.FilterCap < 0 {
		return fmt.Errorf("shard: FilterCap must be ≥ 0, got %d", sp.FilterCap)
	}
	if sp.CFThreshold < 0 {
		return fmt.Errorf("shard: CFThreshold must be ≥ 0, got %v", sp.CFThreshold)
	}
	return nil
}

// sketcher is the table-access facet shared by both servable engines,
// used by the merge path.
type sketcher interface {
	Sketch() *countsketch.Sketch
}

// filterCap resolves the KindASketch exact-filter size (same derivation
// as the batch pipeline).
func (sp EngineSpec) filterCap() int {
	if sp.FilterCap > 0 {
		return sp.FilterCap
	}
	cap := sp.Sketch.Tables * sp.Sketch.Range / 100
	if cap < 8 {
		cap = 8
	}
	return cap
}

// coldFilterLayers resolves the KindColdFilter layer shapes and
// saturation threshold: explicit L1Sketch/CFThreshold when set, else
// the batch pipeline's quarter-budget split and 0.05 threshold.
func (sp EngineSpec) coldFilterLayers() (l1, l2 countsketch.Config, thresh float64) {
	l1 = sp.L1Sketch
	l2 = sp.Sketch
	if l1 == (countsketch.Config{}) {
		l1 = countsketch.Config{Tables: sp.Sketch.Tables, Range: max(sp.Sketch.Range/4, 2), Seed: sp.Sketch.Seed ^ 0x1f}
		l2.Range = max(sp.Sketch.Range-l1.Range, 2)
	}
	thresh = sp.CFThreshold
	if thresh == 0 {
		thresh = 0.05
	}
	return l1, l2, thresh
}

// build constructs one engine from the spec: the fixed-horizon
// constructor, or the decayed (unbounded) one when Lambda is set.
func (sp EngineSpec) build() (sketchapi.Engine, error) {
	switch sp.Kind {
	case KindCS:
		if sp.decaying() {
			return countsketch.NewMeanSketchDecayed(sp.Sketch, sp.T, sp.Lambda)
		}
		return countsketch.NewMeanSketch(sp.Sketch, sp.T)
	case KindASCS:
		if sp.decaying() {
			return core.NewEngineDecayed(sp.Sketch, sp.Schedule, !sp.OneSided, sp.Lambda)
		}
		return core.NewEngine(sp.Sketch, sp.Schedule, !sp.OneSided)
	case KindASketch:
		if sp.decaying() {
			return baselines.NewASketchDecayed(sp.Sketch, sp.T, sp.filterCap(), sp.Lambda)
		}
		return baselines.NewASketch(sp.Sketch, sp.T, sp.filterCap())
	case KindColdFilter:
		l1, l2, thresh := sp.coldFilterLayers()
		if sp.decaying() {
			return baselines.NewColdFilterDecayed(l1, l2, sp.T, thresh, sp.Lambda)
		}
		return baselines.NewColdFilter(l1, l2, sp.T, thresh)
	default:
		return nil, fmt.Errorf("shard: unknown engine kind %q", sp.Kind)
	}
}

// ServeOptions describes a serving deployment in operator-level terms —
// total memory across all shards, a warm-up fraction — and is the single
// translation into a shard.Config. The mem→range split, engine-kind
// defaults, and warm-up sizing rules live here so the entry points that
// build managers (ascs.NewSharded, the ascsd daemon, the ascsload
// benchmark) cannot drift apart.
type ServeOptions struct {
	// Dim is the feature dimensionality d. Required.
	Dim int
	// Samples is the stream horizon T. Required.
	Samples int
	// Shards is the worker count N (default 1).
	Shards int
	// Kind selects the engine (default KindASCS).
	Kind Kind
	// Tables is the hash-table count K per shard sketch (default 5).
	Tables int
	// MemoryFloats is the total sketch budget in float64 cells across
	// all shards; each shard gets MemoryFloats/(Tables·Shards) buckets
	// per table. Required unless Range is set.
	MemoryFloats int
	// Range overrides the per-shard buckets per table directly.
	Range int
	// Seed makes hashing deterministic (default 1).
	Seed uint64
	// Alpha is the assumed signal-pair sparsity for the warm-up solver
	// (shard.Config defaults it to 0.005).
	Alpha float64
	// Standardize rescales features to unit variance from the warm-up
	// prefix.
	Standardize bool
	// WarmupFraction sizes the warm-up prefix via covstream.WarmupSize
	// (default 0.05) when Warmup is zero and a warm-up is needed.
	WarmupFraction float64
	// Warmup overrides the warm-up prefix length directly.
	Warmup int
	// TrackCandidates bounds each shard's retrieval candidate set
	// (shard.Config defaults it to 1<<14).
	TrackCandidates int
	// QueueLen and FlushOps tune the ingest pipeline (shard.Config
	// defaults: 64 batches, 4096 ops).
	QueueLen, FlushOps int
	// OneSided selects the one-sided ASCS gate.
	OneSided bool
	// QueryConsistency is the default query lane: ConsistencyFresh
	// (queries ride the ingest FIFO and observe every prior batch — the
	// default) or ConsistencyFast (bounded priority lane: queries jump
	// queued ingest batches for bounded tail latency at the cost of
	// bounded staleness). Per-query overrides are available either way.
	QueryConsistency Consistency

	// Window, when positive, serves an unbounded stream with a sliding
	// effective window of that many samples: λ = 1 − 1/Window, the
	// engines normalize by Window instead of a horizon, and Samples is
	// ignored (warm-up sizing uses the window). Mutually exclusive with
	// Lambda.
	Window int
	// Lambda, when in (0,1], sets the decay factor directly; the
	// effective window is round(1/(1−λ)) (λ = 1: unbounded with aging
	// disabled, normalized by Samples). Mutually exclusive with Window.
	Lambda float64

	// Admission selects the ingest admission policy: AdmitBlock
	// (default), AdmitShed, or AdmitDegrade — see the AdmissionPolicy
	// docs for the semantics.
	Admission AdmissionPolicy
	// ShedHighWater, DegradeHigh, DegradeLow tune the admission bound
	// and governor hysteresis (shard.Config defaults: 1.0, 0.8, 0.3).
	ShedHighWater, DegradeHigh, DegradeLow float64

	// FoldIdle enables the idle-shard fold policy: a shard with no
	// ingest for FoldIdleTicks consecutive FoldIdle intervals folds its
	// sketch in place (FoldLevels width halvings), unfolding on the
	// first ingest batch. Zero disables. See shard.Config for details.
	FoldIdle time.Duration
	// FoldIdleTicks and FoldLevels tune the policy (shard.Config
	// defaults: 2 ticks, 3 levels clamped to the engine maximum).
	FoldIdleTicks, FoldLevels int
	// SnapshotFold, when positive, streams snapshot sketch blobs
	// pre-folded to that fold level (up to 2^L× fewer bytes on disk).
	SnapshotFold int

	// WALDir arms the write-ahead log under that directory; WALSync and
	// WALSegmentBytes tune it (shard.Config defaults: "batch", 64 MiB).
	// Empty disables durability, as before.
	WALDir  string
	WALSync string
	// WALSegmentBytes caps each log segment before rotation.
	WALSegmentBytes int64

	// Faults wires the deterministic chaos injector (nil in
	// production).
	Faults *faults.Injector
}

// NewFromOptions applies the shared derivation rules and starts a
// Manager: engines needing no warm-up (CS without standardization) start
// immediately, ASCS derives its schedule from the sized warm-up prefix.
// Window/Lambda switch the deployment to unbounded exponential-decay
// serving; the window↔λ coupling lives here so every entry point (the
// library, the ascsd daemon, the ascsload benchmark) derives it
// identically.
func NewFromOptions(o ServeOptions) (*Manager, error) {
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Tables == 0 {
		o.Tables = 5
	}
	if o.Kind == "" {
		o.Kind = KindASCS
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Window != 0 && o.Lambda != 0 {
		return nil, fmt.Errorf("shard: set Window or Lambda, not both")
	}
	if o.Window < 0 {
		return nil, fmt.Errorf("shard: Window must be positive, got %d", o.Window)
	}
	if o.Window > 0 {
		if o.Window < 4 {
			return nil, fmt.Errorf("shard: Window must be ≥ 4 samples, got %d", o.Window)
		}
		o.Lambda = sketchapi.WindowLambda(float64(o.Window))
		o.Samples = o.Window
	} else if o.Lambda != 0 {
		if err := sketchapi.ValidateDecay(o.Lambda); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		if o.Lambda < 1 {
			// The effective window replaces the horizon as the engines'
			// normalizer and as the warm-up sizing basis.
			w := int(sketchapi.EffectiveWindow(o.Lambda) + 0.5)
			if w < 4 {
				return nil, fmt.Errorf("shard: Lambda=%v has an effective window of %d samples; use a factor closer to 1", o.Lambda, w)
			}
			o.Samples = w
		}
		// λ = 1: unbounded with aging disabled; Samples stays the
		// normalizer, exactly matching the fixed-horizon arithmetic.
	}
	if o.Range == 0 {
		if o.MemoryFloats <= 0 {
			return nil, fmt.Errorf("shard: set MemoryFloats or Range")
		}
		if o.Tables < 1 || o.Shards < 1 {
			return nil, fmt.Errorf("shard: Tables (%d) and Shards (%d) must be ≥ 1", o.Tables, o.Shards)
		}
		o.Range = o.MemoryFloats / (o.Tables * o.Shards)
	}
	if o.Range < 2 {
		return nil, fmt.Errorf("shard: per-shard range %d too small (raise MemoryFloats or lower Shards/Tables)", o.Range)
	}
	if fr := o.WarmupFraction; fr != 0 && (fr < 0 || fr > 0.5) {
		return nil, fmt.Errorf("shard: WarmupFraction must be in (0, 0.5], got %v", fr)
	}
	// Pass an explicit Warmup through even when the engine needs none:
	// New rejects it there, so a misconfigured flag fails fast instead
	// of being silently dropped.
	warm := o.Warmup
	if o.Kind == KindASCS || o.Standardize {
		if warm == 0 {
			fr := o.WarmupFraction
			if fr == 0 {
				fr = 0.05
			}
			warm = covstream.WarmupSize(fr, o.Samples)
		}
		if o.Lambda == 0 && warm >= o.Samples {
			return nil, fmt.Errorf("shard: Samples=%d leaves no room after the %d-sample warm-up prefix; increase Samples", o.Samples, warm)
		}
	}
	return New(Config{
		Dim:    o.Dim,
		Shards: o.Shards,
		Engine: EngineSpec{
			Kind:     o.Kind,
			Sketch:   countsketch.Config{Tables: o.Tables, Range: o.Range, Seed: o.Seed},
			T:        o.Samples,
			OneSided: o.OneSided,
			Lambda:   o.Lambda,
		},
		Warmup:           warm,
		Alpha:            o.Alpha,
		Standardize:      o.Standardize,
		QueueLen:         o.QueueLen,
		FlushOps:         o.FlushOps,
		TrackCandidates:  o.TrackCandidates,
		QueryConsistency: o.QueryConsistency,
		Admission:        o.Admission,
		ShedHighWater:    o.ShedHighWater,
		DegradeHigh:      o.DegradeHigh,
		DegradeLow:       o.DegradeLow,
		FoldIdle:         o.FoldIdle,
		FoldIdleTicks:    o.FoldIdleTicks,
		FoldLevels:       o.FoldLevels,
		SnapshotFold:     o.SnapshotFold,
		WALDir:           o.WALDir,
		WALSync:          o.WALSync,
		WALSegmentBytes:  o.WALSegmentBytes,
		Faults:           o.Faults,
	})
}

// AutoSpec derives an ASCS EngineSpec from a warm-up prefix, reusing
// the batch pipeline's §8.1 recipe (covstream.Warmup + ASCSParams) but
// solving the schedule for the *per-shard* sub-problem: key-space
// partitioning puts only ~p/shards variables into each R-bucket
// sketch, so the collision mass — and hence the solved exploration
// length and threshold slope — is that of the smaller universe.
func AutoSpec(samples []stream.Sample, dim, shards, horizon int, sk countsketch.Config, alpha float64) (EngineSpec, error) {
	if len(samples) == 0 {
		return EngineSpec{}, fmt.Errorf("shard: empty warm-up prefix")
	}
	if shards < 1 {
		shards = 1
	}
	// Roomy transient exploration sketch, as in the batch Estimator: the
	// μ̂ census must not be buried in collision noise at tight budgets.
	warmCfg := sk
	if warmCfg.Range < 1<<16 {
		warmCfg.Range = 1 << 16
	}
	warmCfg.Seed ^= 0x9c3
	warm, err := covstream.Warmup(stream.NewSliceSource(samples, dim), len(samples),
		warmCfg, 0, int64(sk.Seed))
	if err != nil {
		return EngineSpec{}, err
	}
	params := warm.ASCSParams(alpha, horizon, sk.Tables, sk.Range)
	perShard := (pairs.Count(dim) + int64(shards) - 1) / int64(shards)
	if perShard < 2 {
		perShard = 2
	}
	params.P = perShard
	params = params.WithSuggestedDeltas()
	hp, err := params.Solve()
	if err != nil {
		return EngineSpec{}, fmt.Errorf("shard: solving warm-up schedule: %w", err)
	}
	return EngineSpec{Kind: KindASCS, Sketch: sk, T: horizon, Schedule: hp}, nil
}

// deriveSpec turns the buffered warm-up prefix into the final engine
// spec (and standardization factors when requested). Called under mu.
func (m *Manager) deriveSpec() (EngineSpec, []float64, error) {
	var invStd []float64
	samples := m.wbuf
	if m.cfg.Standardize {
		st, err := stream.NewStandardizer(stream.NewSliceSource(samples, m.cfg.Dim), len(samples), false)
		if err != nil {
			return EngineSpec{}, nil, err
		}
		invStd = append([]float64(nil), st.InvStds()...)
		scaled := make([]stream.Sample, len(samples))
		for i, s := range samples {
			out := stream.Sample{Idx: s.Idx, Val: make([]float64, len(s.Val))}
			for j, ix := range s.Idx {
				out.Val[j] = s.Val[j] * invStd[ix]
			}
			scaled[i] = out
		}
		samples = scaled
	}
	spec := m.cfg.Engine
	if spec.Kind == KindASCS && spec.Schedule == zeroSchedule {
		derived, err := AutoSpec(samples, m.cfg.Dim, m.cfg.Shards, spec.T, spec.Sketch, m.cfg.Alpha)
		if err != nil {
			return EngineSpec{}, nil, err
		}
		derived.OneSided = spec.OneSided
		// Decay mode survives schedule derivation: the solved schedule is
		// for T = the effective window, which is exactly what AutoSpec
		// received as the horizon.
		derived.Lambda = spec.Lambda
		spec = derived
	}
	return spec, invStd, nil
}
