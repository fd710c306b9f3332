// Package countsketch implements the Count Sketch of Charikar, Chen and
// Farach-Colton (2002): K hash tables of R buckets with ±1 sign hashes,
// supporting point updates and median-of-K point estimates. It is the
// storage substrate under every engine in this repository (vanilla CS,
// ASCS, Augmented Sketch, Cold Filter).
package countsketch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/hashing"
	"repro/internal/sketchapi"
)

// MaxTables bounds K so Estimate can use a fixed stack buffer.
const MaxTables = hashing.MaxTables

// Config describes the shape and hashing of a sketch.
type Config struct {
	// Tables is K, the number of independent hash tables (rows).
	Tables int
	// Range is R, the number of buckets per table.
	Range int
	// Seed derives all hash functions deterministically.
	Seed uint64
	// Hash selects the hash family (default hashing.KindMix).
	Hash hashing.Kind
}

func (c Config) validate() error {
	if c.Tables <= 0 || c.Tables > MaxTables {
		return fmt.Errorf("countsketch: Tables must be in [1,%d], got %d", MaxTables, c.Tables)
	}
	if c.Range <= 0 {
		return fmt.Errorf("countsketch: Range must be positive, got %d", c.Range)
	}
	return nil
}

// Sketch is a Count Sketch. Add and Estimate are safe for concurrent
// Estimate-only use; mutation requires external synchronization (or use
// Split/Merge for parallel ingestion — the sketch is linear).
//
// # Lazy decay
//
// Exponential decay (multiplying every logical cell by λ at a step
// boundary) is implemented lazily: the logical value of cell i is
// scale·w[i], so Decay(λ) is one multiplication of the scale
// accumulator instead of an O(K·R) sweep, and there are no per-bucket
// timestamps. Inserts are divided by the scale on the way in and
// estimates multiplied by it on the way out; when the accumulator
// underflows toward the float64 floor it is folded back into the cells
// (Renormalize), which happens every ~10^5 half-lives — amortized
// noise. With scale == 1 (every non-decayed sketch, and decayed
// sketches at λ = 1) the extra multiplications are by exactly 1.0, so
// tables and estimates stay bit-identical to the pre-decay code.
type Sketch struct {
	cfg Config
	h   hashing.PairHasher
	w   []float64 // Tables*(Range>>level), row-major

	// scale is the lazy decay accumulator: logical cell = scale * w[i].
	// invScale caches 1/scale for the insert path.
	scale    float64
	invScale float64

	// renorms counts completed Renormalize sweeps (telemetry; owned by
	// the single writer, not serialized — it restarts at 0 on restore).
	renorms uint64

	// Fold state (see Fold). level is the current fold level: the live
	// table holds Range>>level buckets per row and h hashes into that
	// width. h0 is the full-resolution hasher, kept so Unfold never has
	// to rebuild (tabulation rebuilds are not free). base/baseLevel are
	// the refold compensation baseline recorded by Unfold: base is the
	// pre-unfold table (raw units, level baseLevel) whose replicated
	// image is embedded in w, so the next Fold can subtract the
	// replication overcount instead of inflating idle mass. Invariant:
	// base != nil implies level == 0 (Unfold is the only producer and
	// Fold the only consumer).
	h0        hashing.PairHasher
	level     int
	rng       int // physical buckets per row: cfg.Range >> level
	base      []float64
	baseLevel int
}

// renormFloor is the scale at which lazy decay folds into the cells:
// small enough that renormalization is rare even under aggressive λ,
// huge headroom above the ~1e-308 float64 underflow. Shared with the
// other lazy-decay accumulators (tracker, ASketch filter).
const renormFloor = sketchapi.RenormFloor

// New creates an empty sketch.
func New(cfg Config) (*Sketch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h, err := hashing.New(cfg.Hash, cfg.Tables, cfg.Range, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Sketch{cfg: cfg, h: h, h0: h, rng: cfg.Range, w: make([]float64, cfg.Tables*cfg.Range), scale: 1, invScale: 1}, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Sketch {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the sketch configuration.
func (s *Sketch) Config() Config { return s.cfg }

// K returns the number of tables.
func (s *Sketch) K() int { return s.cfg.Tables }

// R returns the buckets per table.
func (s *Sketch) R() int { return s.cfg.Range }

// Bytes returns the approximate heap footprint of the table array plus
// any refold baseline (the dominant cost; hash seeds are negligible
// except for tabulation). A folded sketch reports its folded footprint.
func (s *Sketch) Bytes() int { return 8 * (len(s.w) + len(s.base)) }

// Add folds v into the buckets of key. It panics on non-finite v: a NaN
// would silently poison every colliding estimate, so it is treated as a
// programmer error at the boundary.
func (s *Sketch) Add(key uint64, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("countsketch: non-finite update %v for key %d", v, key))
	}
	v *= s.invScale
	for e := 0; e < s.cfg.Tables; e++ {
		s.w[e*s.rng+s.h.Bucket(e, key)] += s.h.Sign(e, key) * v
	}
}

// Estimate returns the median-of-K estimate for key.
func (s *Sketch) Estimate(key uint64) float64 {
	if s.cfg.Tables == 5 {
		return median5(s.signedCell(0, key), s.signedCell(1, key), s.signedCell(2, key),
			s.signedCell(3, key), s.signedCell(4, key)) * s.scale
	}
	var buf [MaxTables]float64
	k := s.cfg.Tables
	for e := 0; e < k; e++ {
		buf[e] = s.signedCell(e, key)
	}
	return medianInPlace(buf[:k]) * s.scale
}

// signedCell returns table e's estimate of key: its cell times its sign.
func (s *Sketch) signedCell(e int, key uint64) float64 {
	return s.w[e*s.rng+s.h.Bucket(e, key)] * s.h.Sign(e, key)
}

// Slot is one precomputed (table cell, sign) location of a key: Off is
// the row-major index e*R + Bucket(e, key) into the table array and Sign
// is Sign(e, key). A filled slot array is the one-hash currency of the
// fused ingest path: Locate hashes the key once, then any number of
// EstimateSlots/AddSlots calls reuse the locations without rehashing.
type Slot = hashing.Slot

// Locate fills slots[0:K] with the key's (cell, sign) locations, hashing
// the key exactly once per table (and dispatching to the hash family
// once per key). The resulting slots are valid for the sketch they came
// from as long as its configuration is unchanged (Reset/Merge/Scale keep
// them valid; they index cells, not contents).
func (s *Sketch) Locate(key uint64, slots *[MaxTables]Slot) {
	s.h.FillSlots(key, slots)
}

// EstimateSlots returns the median-of-K estimate read through
// precomputed slots. It is bit-identical to Estimate of the located key:
// the same cells are read, multiplied by the same signs, and reduced by
// the same median.
func (s *Sketch) EstimateSlots(slots *[MaxTables]Slot) float64 {
	return s.rawMedian(slots) * s.scale
}

// EstimateSlotsWithRaw is EstimateSlots returning additionally the
// pre-scale raw median (logical estimate = raw · DecayScale()). The
// fused decayed offer path gates on the scaled estimate but shifts the
// raw median on insert (AddSlotsWithEstimateRaw), which keeps the
// odd-K post-add estimate exact — no table re-read — even while a
// decay scale is active.
func (s *Sketch) EstimateSlotsWithRaw(slots *[MaxTables]Slot) (est, raw float64) {
	raw = s.rawMedian(slots)
	return raw * s.scale, raw
}

// rawMedian is the pre-scale median of the K signed cells named by
// slots: median5 at K = 5, the insertion sort otherwise.
func (s *Sketch) rawMedian(slots *[MaxTables]Slot) float64 {
	k := s.cfg.Tables
	if k == 5 {
		return median5Slots(s.w, slots[:5])
	}
	var buf [MaxTables]float64
	for e := 0; e < k; e++ {
		buf[e] = s.w[slots[e].Off] * slots[e].Sign
	}
	return medianInPlace(buf[:k])
}

// AddSlots folds v into the cells named by precomputed slots. It is
// bit-identical to Add of the located key (same cells, same sign
// multiplies, same non-finite guard).
func (s *Sketch) AddSlots(slots *[MaxTables]Slot, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("countsketch: non-finite update %v", v))
	}
	v *= s.invScale
	k := s.cfg.Tables
	for e := 0; e < k; e++ {
		s.w[slots[e].Off] += slots[e].Sign * v
	}
}

// AddSlotsEstimate is AddSlots(slots, v) followed by
// EstimateSlots(slots) in one pass, bit-identical to the two calls —
// the post-add estimate every tracked insert without a gate asks for.
//
// At K = 5 it keeps the five new cell values in registers as it stores
// them and reduces their signed values with median5, so the cells are
// not re-read and no scratch buffer is zeroed. Holding the values is
// exact because the K slots of one key never share a cell: slot e's
// offset lies in table e's row, [e·R, (e+1)·R). The reduction sees the
// same products new·sign that a fresh EstimateSlots reads, and median5
// returns the insertion sort's bits. Any other K runs the two calls.
func (s *Sketch) AddSlotsEstimate(slots *[MaxTables]Slot, v float64) float64 {
	if s.cfg.Tables != 5 {
		s.AddSlots(slots, v)
		return s.EstimateSlots(slots)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("countsketch: non-finite update %v", v))
	}
	v *= s.invScale
	w, sl := s.w, slots[:5]
	n0 := w[sl[0].Off] + sl[0].Sign*v
	w[sl[0].Off] = n0
	n1 := w[sl[1].Off] + sl[1].Sign*v
	w[sl[1].Off] = n1
	n2 := w[sl[2].Off] + sl[2].Sign*v
	w[sl[2].Off] = n2
	n3 := w[sl[3].Off] + sl[3].Sign*v
	w[sl[3].Off] = n3
	n4 := w[sl[4].Off] + sl[4].Sign*v
	w[sl[4].Off] = n4
	return median5(n0*sl[0].Sign, n1*sl[1].Sign, n2*sl[2].Sign, n3*sl[3].Sign, n4*sl[4].Sign) * s.scale
}

// AddSlotsWithEstimateRaw is AddSlots(slots, v) followed by
// EstimateSlots(slots), given the pre-add *raw* median preRaw (from
// EstimateSlotsWithRaw) — the admitted-offer step of the gated ingest
// path, where the gate already read the pre-add median.
//
// For odd K it returns (preRaw + v·invScale)·scale without re-reading
// the table, bit-identical to a fresh EstimateSlots: the insert adds
// u = round(v·invScale), the exact value AddSlots folds in, and moves
// every raw table estimate from w·s to round(w + s·u)·s = round(w·s + u)
// (s = ±1 is exact and IEEE rounding is sign-symmetric) — a monotone
// shift that preserves the order of the K estimates, so the median
// element is the same table's, now valued round(preRaw + u). For even K
// the median averages the two middle order statistics, the shift does
// not commute with that average's rounding, and the estimate is
// recomputed from the table.
func (s *Sketch) AddSlotsWithEstimateRaw(slots *[MaxTables]Slot, v, preRaw float64) float64 {
	s.AddSlots(slots, v)
	if s.cfg.Tables%2 == 1 {
		return (preRaw + v*s.invScale) * s.scale
	}
	return s.EstimateSlots(slots)
}

// EstimateMin returns the minimum |table estimate| with its sign, a more
// conservative alternative retrieval occasionally useful for diagnostics.
func (s *Sketch) EstimateMin(key uint64) float64 {
	best := math.Inf(1)
	val := 0.0
	for e := 0; e < s.cfg.Tables; e++ {
		v := s.w[e*s.rng+s.h.Bucket(e, key)] * s.h.Sign(e, key)
		if a := math.Abs(v); a < best {
			best = a
			val = v
		}
	}
	return val * s.scale
}

// Decay multiplies every logical cell by f ∈ (0,1] in O(1): only the
// scale accumulator moves (see the type comment). Renormalization folds
// the accumulator into the cells when it nears the float64 floor.
// Decay(1) is an exact no-op, which is what keeps λ=1 decay mode
// bit-identical to the fixed-horizon path.
func (s *Sketch) Decay(f float64) {
	if !(f > 0) || f > 1 || math.IsNaN(f) {
		panic(fmt.Sprintf("countsketch: decay factor must be in (0,1], got %v", f))
	}
	if f == 1 {
		return
	}
	s.scale *= f
	if s.scale < renormFloor {
		s.Renormalize()
		return
	}
	s.invScale = 1 / s.scale
}

// Renormalize folds the lazy decay scale into the cell contents so the
// stored values equal the logical values again (scale returns to 1).
// O(K·R); called automatically when the accumulator nears underflow,
// and by merge paths that need shards on a common scale.
func (s *Sketch) Renormalize() {
	if s.scale == 1 {
		return
	}
	for i, v := range s.w {
		s.w[i] = v * s.scale
	}
	for i, v := range s.base {
		s.base[i] = v * s.scale
	}
	s.scale, s.invScale = 1, 1
	s.renorms++
}

// Renorms returns the number of completed renormalization sweeps since
// construction (or restore) — decay maintenance telemetry.
func (s *Sketch) Renorms() uint64 { return s.renorms }

// DecayScale returns the current lazy decay accumulator (1 when no
// decay has been applied since the last renormalization).
func (s *Sketch) DecayScale() float64 { return s.scale }

// BucketOf returns the bucket index of key in table e (diagnostics: the
// theorem-validation experiments use it to detect signal-signal
// collisions, the I(i) = 1 event excluded by Theorem 2).
func (s *Sketch) BucketOf(e int, key uint64) int { return s.h.Bucket(e, key) }

// Reset zeroes the sketch contents (and any decay scale and refold
// baseline), keeping the hash functions and the current fold level.
func (s *Sketch) Reset() {
	for i := range s.w {
		s.w[i] = 0
	}
	s.scale, s.invScale = 1, 1
	s.base, s.baseLevel = nil, 0
}

// Clone returns a deep copy sharing no mutable state (hash functions are
// immutable and shared).
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{cfg: s.cfg, h: s.h, h0: s.h0, rng: s.rng, level: s.level, baseLevel: s.baseLevel, w: make([]float64, len(s.w)), scale: s.scale, invScale: s.invScale, renorms: s.renorms}
	copy(c.w, s.w)
	if s.base != nil {
		c.base = append([]float64(nil), s.base...)
	}
	return c
}

// Split returns n empty sketches with identical hash functions (and the
// same fold level), suitable for parallel ingestion followed by Merge
// (the sketch is linear: the sum of the tables of shards equals the
// table of serial ingestion).
func (s *Sketch) Split(n int) []*Sketch {
	out := make([]*Sketch, n)
	for i := range out {
		out[i] = &Sketch{cfg: s.cfg, h: s.h, h0: s.h0, rng: s.rng, level: s.level, w: make([]float64, len(s.w)), scale: s.scale, invScale: s.invScale}
	}
	return out
}

// Merge adds the contents of o into s. The two sketches must share the
// same configuration (hence the same hash functions), the same fold
// level, and the same decay scale — callers merging decayed sketches
// Renormalize both first, and callers merging mixed-resolution sketches
// Fold or Unfold to a common level first. Refold baselines are linear
// too and merge alongside the tables (they must sit at the same level
// when both sides carry one).
func (s *Sketch) Merge(o *Sketch) error {
	if s.cfg != o.cfg {
		return fmt.Errorf("countsketch: cannot merge mismatched configs %+v vs %+v", s.cfg, o.cfg)
	}
	if s.level != o.level {
		return fmt.Errorf("countsketch: cannot merge mismatched fold levels %d vs %d (Fold/Unfold to a common level first)", s.level, o.level)
	}
	if s.scale != o.scale {
		return fmt.Errorf("countsketch: cannot merge mismatched decay scales %v vs %v (Renormalize first)", s.scale, o.scale)
	}
	switch {
	case s.base != nil && o.base != nil:
		if s.baseLevel != o.baseLevel {
			return fmt.Errorf("countsketch: cannot merge mismatched refold baselines at levels %d vs %d (DropFoldBase first)", s.baseLevel, o.baseLevel)
		}
		for i, v := range o.base {
			s.base[i] += v
		}
	case o.base != nil:
		s.base = append([]float64(nil), o.base...)
		s.baseLevel = o.baseLevel
	}
	for i, v := range o.w {
		s.w[i] += v
	}
	return nil
}

// Scale multiplies every cell by f (the sketch is linear, so this equals
// scaling every inserted value). Any refold baseline scales alongside so
// compensation stays exact.
func (s *Sketch) Scale(f float64) {
	for i := range s.w {
		s.w[i] *= f
	}
	for i := range s.base {
		s.base[i] *= f
	}
}

// FoldLevel returns the current fold level: 0 is full resolution, each
// level halves the physical buckets per table.
func (s *Sketch) FoldLevel() int { return s.level }

// MaxFoldLevels returns the deepest fold level the configured range
// supports (the number of times Range divides exactly by two). It is an
// absolute level, not a remaining count: a sketch already at FoldLevel L
// can fold MaxFoldLevels()−L further.
func (s *Sketch) MaxFoldLevels() int {
	return bits.TrailingZeros64(uint64(s.cfg.Range))
}

// Fold compresses the sketch by `levels` additional halvings of the
// table width. The fold index map is congruent with the range mapping:
// every hash family buckets through fastRange(h, R) = ⌊h·R/2⁶⁴⌋, and for
// R divisible by 2ᴸ, fastRange(h, R>>L) == fastRange(h, R) >> L exactly,
// so the folded cell of a key is the sum of the 2ᴸ consecutive fine
// cells whose indices share its high bits — a key's folded lookup lands
// exactly on the folded image of its cells. Sign hashes do not depend on
// the range, so the fold is the sign-composed linear map of the
// compressed-sketch construction and estimates stay unbiased; only the
// collision noise grows (variance doubles per level). The decay scale is
// untouched (the fold operates on raw cells), which preserves the
// raw-scale identities of the fused offer paths, and the odd-K
// median-shift argument holds unchanged at the folded width.
//
// If a refold baseline from a previous Unfold is present, Fold subtracts
// the replication overcount so the result equals the true folded mass
// (idle shards that oscillate fold↔unfold do not inflate). Folding below
// the baseline's level keeps replication semantics — the coarser history
// stays replicated per sub-group, exactly as Unfold left it — and the
// baseline is retained so a later, deeper fold still compensates
// exactly; once the fold reaches the baseline's level the compensation
// is complete and the baseline is dropped.
func (s *Sketch) Fold(levels int) error {
	if levels <= 0 {
		return fmt.Errorf("countsketch: fold levels must be positive, got %d", levels)
	}
	target := s.level + levels
	if target > s.MaxFoldLevels() {
		return fmt.Errorf("countsketch: cannot fold to level %d: Range %d supports at most %d levels", target, s.cfg.Range, s.MaxFoldLevels())
	}
	nw := s.foldedImage(target)
	h, err := hashing.New(s.cfg.Hash, s.cfg.Tables, s.cfg.Range>>target, s.cfg.Seed)
	if err != nil {
		return err
	}
	s.w, s.h, s.rng, s.level = nw, h, s.cfg.Range>>target, target
	if target >= s.baseLevel {
		s.base, s.baseLevel = nil, 0
	}
	return nil
}

// foldedImage computes the table contents at the given absolute fold
// level (> s.level) without mutating the sketch, applying refold
// baseline compensation. Raw units: the decay scale is unchanged.
func (s *Sketch) foldedImage(target int) []float64 {
	k, curR, newR := s.cfg.Tables, s.rng, s.cfg.Range>>target
	group := curR / newR
	nw := make([]float64, k*newR)
	for e := 0; e < k; e++ {
		row := s.w[e*curR : (e+1)*curR]
		nrow := nw[e*newR : (e+1)*newR]
		for j := range nrow {
			sum := 0.0
			for _, v := range row[j*group : (j+1)*group] {
				sum += v
			}
			nrow[j] = sum
		}
	}
	if s.base == nil {
		return nw
	}
	// w embeds the baseline replicated 2^(baseLevel−level) times (the
	// baseline always sits at a coarser level than the live table);
	// subtract the overcount so baseline mass is counted once per
	// folded group.
	b, bR := s.baseLevel, s.cfg.Range>>s.baseLevel
	if target >= b {
		// Each target cell spans whole baseline groups: every baseline
		// cell in its span was summed 2^(b−level) times, keep it once.
		over := math.Ldexp(1, b-s.level) - 1
		span := 1 << (target - b)
		for e := 0; e < k; e++ {
			brow := s.base[e*bR : (e+1)*bR]
			nrow := nw[e*newR : (e+1)*newR]
			for j := range nrow {
				bs := 0.0
				for _, v := range brow[j*span : (j+1)*span] {
					bs += v
				}
				nrow[j] -= over * bs
			}
		}
	} else {
		// Target is finer than the baseline: each target cell sums
		// 2^(target−level) replicas of the same baseline cell; keep one.
		over := math.Ldexp(1, target-s.level) - 1
		shift := b - target
		for e := 0; e < k; e++ {
			brow := s.base[e*bR : (e+1)*bR]
			nrow := nw[e*newR : (e+1)*newR]
			for j := range nrow {
				nrow[j] -= over * brow[j>>shift]
			}
		}
	}
	return nw
}

// Unfold re-expands a folded sketch to full resolution by value
// replication: every fine cell takes the value of its folded group, so
// every estimate (and the full median reduction) is bit-identical before
// and after — no accuracy is recovered (that information was folded
// away) but ingest resumes at full resolution immediately. The
// pre-unfold table is retained as the refold compensation baseline; see
// Fold. No-op at full resolution.
func (s *Sketch) Unfold() {
	if s.level == 0 {
		return
	}
	k, curR, fullR := s.cfg.Tables, s.rng, s.cfg.Range
	nw := make([]float64, k*fullR)
	for e := 0; e < k; e++ {
		row := s.w[e*curR : (e+1)*curR]
		nrow := nw[e*fullR : (e+1)*fullR]
		for x := range nrow {
			nrow[x] = row[x>>s.level]
		}
	}
	s.base, s.baseLevel = s.w, s.level
	s.w, s.h, s.rng, s.level = nw, s.h0, fullR, 0
}

// DropFoldBase forgets the refold compensation baseline: subsequent
// folds treat the current contents — including any replicated history —
// as ground truth. Merge views that never fold again (MergedSketch) use
// it to align mixed provenance clones.
func (s *Sketch) DropFoldBase() { s.base, s.baseLevel = nil, 0 }

// L2Norm returns the Euclidean norm of the table contents, a cheap proxy
// for the energy stored in the sketch (used by SNR diagnostics).
func (s *Sketch) L2Norm() float64 {
	sum := 0.0
	for _, v := range s.w {
		sum += v * v
	}
	return math.Sqrt(sum) * s.scale
}

// median5Slots is median5 over the signed cells of one key's five
// slots (sl has length 5).
func median5Slots(w []float64, sl []Slot) float64 {
	sl = sl[:5]
	return median5(w[sl[0].Off]*sl[0].Sign, w[sl[1].Off]*sl[1].Sign, w[sl[2].Off]*sl[2].Sign,
		w[sl[3].Off]*sl[3].Sign, w[sl[4].Off]*sl[4].Sign)
}

// median5 returns the median of five values with the exact bits
// medianInPlace returns for them, without a sort's data-dependent
// branches. The min/max network reduces a..d to their middle two order
// statistics f and g (the larger pair minimum and the smaller pair
// maximum), then takes the median of {e, f, g}: the median by value.
//
// The insertion sort places equal values in input order, so its
// median's bits depend on more than the value only when the value is
// ±0, and it has no order at all once a NaN is present. The network's
// min and max propagate NaN, so both cases show as a zero or NaN
// result; those defer to the sort itself, and every other result is a
// nonzero number whose bits its value fixes.
func median5(a, b, c, d, e float64) float64 {
	f := max(min(a, b), min(c, d))
	g := min(max(a, b), max(c, d))
	m := max(min(e, f), min(max(e, f), g))
	if m == 0 || m != m {
		xs := [5]float64{a, b, c, d, e}
		return medianInPlace(xs[:])
	}
	return m
}

// gatherRows5 writes the signed cells of a located K = 5 group into
// rows table-major: rows[e·n+i] = cells[slots[5i+e].Off]·slots[5i+e].Sign
// for n = len(rows)/5 members, the products median5Slots reads.
func gatherRows5(cells []float64, slots []Slot, rows []float64) {
	n := len(rows) / 5
	r0, r1, r2, r3, r4 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:4*n], rows[4*n:5*n]
	slots = slots[:5*n]
	for i := range r0 {
		sl := slots[5*i : 5*i+5]
		r0[i] = cells[sl[0].Off] * sl[0].Sign
		r1[i] = cells[sl[1].Off] * sl[1].Sign
		r2[i] = cells[sl[2].Off] * sl[2].Sign
		r3[i] = cells[sl[3].Off] * sl[3].Sign
		r4[i] = cells[sl[4].Off] * sl[4].Sign
	}
}

// median5Rows sets out[i] to median5 of lane i of five table-major rows
// (rows[e·n+i], n = len(out), len(rows) = 5n), bit for bit. Where the
// AVX2 kernel is armed it takes the lanes four at a time (median_amd64.s
// gives its exactness argument) and median5 recomputes only the lanes
// it flags, those with a NaN input or a zero median, plus the ≤ 3 tail
// lanes.
func median5Rows(rows []float64, out []float64) {
	n := len(out)
	rows = rows[:5*n]
	i := 0
	if vecMedian5 && n >= 4 {
		i = n &^ 3
		if median5RowsAVX2(rows, n, out[:i]) {
			for j := 0; j < i; j++ {
				if out[j] != out[j] {
					out[j] = median5(rows[j], rows[n+j], rows[2*n+j], rows[3*n+j], rows[4*n+j])
				}
			}
		}
	}
	for ; i < n; i++ {
		out[i] = median5(rows[i], rows[n+i], rows[2*n+i], rows[3*n+i], rows[4*n+i])
	}
}

// medianInPlace sorts the small slice xs and returns its median.
func medianInPlace(xs []float64) float64 {
	n := len(xs)
	for i := 1; i < n; i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Serialization magics: v1 is the original config+table layout, v2
// appends the lazy decay scale, v3 carries the fold state (scale, fold
// level, refold baseline). WriteTo emits the lowest sufficient version —
// v1 whenever the scale is exactly 1 and the sketch is unfolded (every
// fixed-horizon sketch, and λ=1 decay mode), so the on-disk form of the
// classic path is byte-identical to before; only actively decayed or
// folded sketches pay a format bump. ReadFrom accepts all three.
const (
	serialMagic   = uint32(0xA5C50001)
	serialMagicV2 = uint32(0xA5C50002)
	serialMagicV3 = uint32(0xA5C50003)
)

// WriteTo serializes the sketch (config + table contents, plus the
// decay scale when one is active and the fold state when folded) in a
// stable little-endian binary format.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	if s.level != 0 || s.base != nil {
		return s.writeV3(w, s.level, s.w, s.baseLevel, s.base)
	}
	hdr := make([]byte, 4+8*4, 4+8*5)
	binary.LittleEndian.PutUint32(hdr[0:], serialMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(s.cfg.Tables))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(s.cfg.Range))
	binary.LittleEndian.PutUint64(hdr[20:], s.cfg.Seed)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(s.cfg.Hash))
	if s.scale != 1 {
		binary.LittleEndian.PutUint32(hdr[0:], serialMagicV2)
		hdr = hdr[:4+8*5]
		binary.LittleEndian.PutUint64(hdr[36:], math.Float64bits(s.scale))
	}
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8*len(s.w))
	for i, v := range s.w {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	n, err = w.Write(buf)
	total += int64(n)
	return total, err
}

// WriteToFolded serializes the sketch as if folded to the given absolute
// level, without mutating it: the folded image (baseline-compensated) is
// computed into a buffer of the folded size, so a full-resolution table
// is never copied. A sketch already at or beyond the target level — or a
// target beyond MaxFoldLevels — is written as-is; level 0 with no
// baseline falls through to WriteTo's v1/v2 form.
func (s *Sketch) WriteToFolded(w io.Writer, level int) (int64, error) {
	if level > s.MaxFoldLevels() {
		level = s.MaxFoldLevels()
	}
	if level <= s.level {
		return s.WriteTo(w)
	}
	if s.base != nil && level < s.baseLevel {
		// The fold stops short of the baseline: the image still embeds
		// replicated history, so the baseline must travel for deeper
		// folds after restore to compensate exactly.
		return s.writeV3(w, level, s.foldedImage(level), s.baseLevel, s.base)
	}
	return s.writeV3(w, level, s.foldedImage(level), 0, nil)
}

// writeV3 emits the v3 format: v1 header fields, then scale, fold
// level, baseline level, the (possibly folded) cells, and the baseline
// cells when present.
func (s *Sketch) writeV3(w io.Writer, level int, cells []float64, baseLevel int, base []float64) (int64, error) {
	hdr := make([]byte, 4+8*7)
	binary.LittleEndian.PutUint32(hdr[0:], serialMagicV3)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(s.cfg.Tables))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(s.cfg.Range))
	binary.LittleEndian.PutUint64(hdr[20:], s.cfg.Seed)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(s.cfg.Hash))
	binary.LittleEndian.PutUint64(hdr[36:], math.Float64bits(s.scale))
	binary.LittleEndian.PutUint64(hdr[44:], uint64(level))
	binary.LittleEndian.PutUint64(hdr[52:], uint64(baseLevel))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8*(len(cells)+len(base)))
	for i, v := range cells {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	for i, v := range base {
		binary.LittleEndian.PutUint64(buf[8*(len(cells)+i):], math.Float64bits(v))
	}
	n, err = w.Write(buf)
	total += int64(n)
	return total, err
}

// ReadFrom deserializes a sketch written by WriteTo or WriteToFolded
// (any format version).
func ReadFrom(r io.Reader) (*Sketch, error) {
	hdr := make([]byte, 4+8*4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("countsketch: reading header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic != serialMagic && magic != serialMagicV2 && magic != serialMagicV3 {
		return nil, fmt.Errorf("countsketch: bad magic")
	}
	cfg := Config{
		Tables: int(binary.LittleEndian.Uint64(hdr[4:])),
		Range:  int(binary.LittleEndian.Uint64(hdr[12:])),
		Seed:   binary.LittleEndian.Uint64(hdr[20:]),
		Hash:   hashing.Kind(binary.LittleEndian.Uint64(hdr[28:])),
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	switch magic {
	case serialMagicV2:
		var sc [8]byte
		if _, err := io.ReadFull(r, sc[:]); err != nil {
			return nil, fmt.Errorf("countsketch: reading decay scale: %w", err)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64(sc[:]))
		if !(scale > 0) || math.IsInf(scale, 0) {
			return nil, fmt.Errorf("countsketch: corrupt decay scale %v", scale)
		}
		s.scale, s.invScale = scale, 1/scale
	case serialMagicV3:
		var ext [24]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return nil, fmt.Errorf("countsketch: reading fold header: %w", err)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64(ext[0:]))
		if !(scale > 0) || math.IsInf(scale, 0) {
			return nil, fmt.Errorf("countsketch: corrupt decay scale %v", scale)
		}
		level := int(binary.LittleEndian.Uint64(ext[8:]))
		baseLevel := int(binary.LittleEndian.Uint64(ext[16:]))
		if level < 0 || level > s.MaxFoldLevels() {
			return nil, fmt.Errorf("countsketch: corrupt fold level %d for Range %d", level, cfg.Range)
		}
		if baseLevel != 0 && (baseLevel <= level || baseLevel > s.MaxFoldLevels()) {
			return nil, fmt.Errorf("countsketch: corrupt refold baseline level %d (fold level %d, Range %d)", baseLevel, level, cfg.Range)
		}
		s.scale, s.invScale = scale, 1/scale
		if level > 0 {
			h, err := hashing.New(cfg.Hash, cfg.Tables, cfg.Range>>level, cfg.Seed)
			if err != nil {
				return nil, err
			}
			s.h, s.rng, s.level = h, cfg.Range>>level, level
			s.w = make([]float64, cfg.Tables*s.rng)
		}
		if baseLevel > 0 {
			s.baseLevel = baseLevel
			s.base = make([]float64, cfg.Tables*(cfg.Range>>baseLevel))
		}
	}
	buf := make([]byte, 8*(len(s.w)+len(s.base)))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("countsketch: reading table: %w", err)
	}
	for i := range s.w {
		s.w[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	for i := range s.base {
		s.base[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*(len(s.w)+i):]))
	}
	return s, nil
}
