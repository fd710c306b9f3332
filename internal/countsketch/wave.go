package countsketch

import (
	"fmt"
	"math"
)

// WaveGroup is the default group size G of the wave-pipelined batch
// ingest path: OfferPairs implementations split a batch into groups of
// G pairs and run each group through four stages — group hashing
// (LocateBatch), a touch/prefetch pass over the K·G addressed cells
// (TouchSlots, which overlaps the DRAM misses the per-pair path pays
// one at a time), a group-wide gather of raw estimates
// (EstimateSlotsBatch), and the gate/scatter stage (AddSlotsBatch).
// The read path (EstimateKeys) skips stage 4, and at K = 5 stage 2.
//
// G trades memory-level parallelism against scratch footprint: the
// touch pass issues K·G independent loads, so G must be large enough
// to saturate the core's outstanding-miss budget (~10–16 line-fill
// buffers on current x86/arm cores — reached near G·K ≈ 100), while
// the slot scratch (16 B per slot) plus the per-group estimate arrays
// stay a few KiB so the staging itself never leaves L1. G = 32 with
// the paper's K = 5 sits on that plateau; see DESIGN.md for the
// measured sweep.
const WaveGroup = 32

// MaxWaveGroup bounds tunable group sizes so scratch allocation stays
// sane. Groups larger than a few hundred pairs add no memory-level
// parallelism (the miss budget is long saturated) and only grow the
// scratch past cache. Engines clamp SetWaveGroup arguments to it.
const MaxWaveGroup = 4096

// ClampWaveGroup normalizes a SetWaveGroup argument: anything ≤ 1
// means "scalar" (returned as 1), anything above MaxWaveGroup is
// clamped to it. Shared by every engine's SetWaveGroup.
func ClampWaveGroup(g int) int {
	if g <= 1 {
		return 1
	}
	if g > MaxWaveGroup {
		return MaxWaveGroup
	}
	return g
}

// WaveTune is the embeddable group-size state behind every engine's
// SetWaveGroup/WaveGroup: the configured group (0 = use the default) and the lazily (re)built Wave scratch. One definition
// so clamping, default resolution, and rebuild-on-resize cannot drift
// between the four engines.
type WaveTune struct {
	g int
	w *Wave
}

// Set clamps and records the group size (g ≤ 1 = scalar loop).
func (t *WaveTune) Set(g int) { t.g = ClampWaveGroup(g) }

// Group resolves the group size in force (the package default when
// never Set).
func (t *WaveTune) Group() int {
	if t.g == 0 {
		return WaveGroup
	}
	return t.g
}

// Scratch returns the resolved group size and, when it is > 1, the
// wave scratch for a K=k sketch — built lazily on first use (so every
// construction path, including deserialization, gets one) and rebuilt
// when the group size changed.
func (t *WaveTune) Scratch(k int) (*Wave, int) {
	g := t.Group()
	if g > 1 && (t.w == nil || t.w.Group() != g) {
		t.w = NewWave(k, g)
	}
	return t.w, g
}

// Wave is the reusable per-engine scratch of the wave-pipelined batch
// ingest path. Engines keep one Wave per sketch (single-writer by the
// Engine contract, like the slot buffer of the per-pair fused path)
// so the steady-state group path performs zero allocations.
//
// The slot buffer is over-allocated by MaxTables−K entries so that any
// group member's slots can also be viewed as a *[MaxTables]Slot — the
// currency of the per-pair slot methods — letting the scalar fallback
// (conflicting groups, exploration-phase inserts) reuse the already
// computed group hashes via At.
type Wave struct {
	k, g  int
	slots []Slot
	ests  []float64
	raws  []float64
	vs    []float64
	admit []bool

	// rows is the K = 5 gather's row scratch: EstimateSlotsBatch writes
	// a group's signed cells table-major (row e holds every member's
	// table-e value) so one vector network takes all the medians. Nil
	// for other K.
	rows []float64

	// rowKeys is the row-expansion staging of OfferRow
	// (WalkRowGroups): per group, partner ids are materialized into pair
	// keys by one vector add of the row base, so the group bodies see
	// an ordinary key slice. L1-resident like the rest of the scratch.
	rowKeys []uint64

	// Epoch-stamped open-addressing set over cell offsets, used by
	// Clean to detect intra-group cell sharing without clearing between
	// groups. Tiny (a few KiB) so probing stays in L1.
	scrOff   []int
	scrEpoch []uint32
	epoch    uint32

	// Sink absorbs the touch pass's load results so the compiler cannot
	// elide the prefetching reads. Never meaningful.
	Sink float64
}

// NewWave returns scratch for groups of g pairs over a K=k sketch.
// g < 2 or k outside [1, MaxTables] panics: a one-pair "group" is the
// scalar path and needs no scratch.
func NewWave(k, g int) *Wave {
	if k < 1 || k > MaxTables {
		panic(fmt.Sprintf("countsketch: NewWave tables %d outside [1,%d]", k, MaxTables))
	}
	if g < 2 || g > MaxWaveGroup {
		panic(fmt.Sprintf("countsketch: NewWave group %d outside [2,%d]", g, MaxWaveGroup))
	}
	// Screen capacity: next power of two ≥ 4·g·k keeps the load factor
	// below 1/4, so probe chains stay short.
	sc := 1
	for sc < 4*g*k {
		sc <<= 1
	}
	var rows []float64
	if k == 5 {
		rows = make([]float64, 5*g)
	}
	return &Wave{
		k: k, g: g,
		rows:     rows,
		slots:    make([]Slot, (g-1)*k+MaxTables),
		ests:     make([]float64, g),
		raws:     make([]float64, g),
		vs:       make([]float64, g),
		admit:    make([]bool, g),
		rowKeys:  make([]uint64, g),
		scrOff:   make([]int, sc),
		scrEpoch: make([]uint32, sc),
	}
}

// Group returns the group size g the scratch was sized for.
func (w *Wave) Group() int { return w.g }

// Slots returns the slot buffer of a group of n ≤ g keys (n·k slots),
// ready for LocateBatch.
func (w *Wave) Slots(n int) []Slot { return w.slots[:n*w.k] }

// At views group member i's slots as the fixed-size array pointer the
// per-pair slot methods consume (valid thanks to the MaxTables
// over-allocation; only the first k entries are meaningful).
func (w *Wave) At(i int) *[MaxTables]Slot {
	return (*[MaxTables]Slot)(w.slots[i*w.k : i*w.k+MaxTables])
}

// Ests, Raws, Vs and Admit return the per-group gather/scatter scratch
// arrays truncated to n group members.
func (w *Wave) Ests(n int) []float64 { return w.ests[:n] }

// Raws returns the raw-median scratch (see Ests).
func (w *Wave) Raws(n int) []float64 { return w.raws[:n] }

// Vs returns the scaled-increment scratch (see Ests).
func (w *Wave) Vs(n int) []float64 { return w.vs[:n] }

// Admit returns the gate-decision scratch (see Ests).
func (w *Wave) Admit(n int) []bool { return w.admit[:n] }

// Clean reports whether every cell offset in slots is distinct — the
// precondition under which the gather/scatter stages are bit-identical
// to per-pair processing (no group member reads a cell another member
// writes, so evaluation order cannot matter). Groups that share a cell
// (the same key twice, or two keys colliding in some table) must take
// the per-pair fallback, which replays the exact scalar order.
//
// The set is epoch-stamped: one counter bump retires all previous
// entries, so screening costs O(len(slots)) probes into an L1-resident
// table and nothing is cleared between groups.
func (w *Wave) Clean(slots []Slot) bool {
	w.epoch++
	if w.epoch == 0 { // uint32 wrap: stale stamps would look current
		for i := range w.scrEpoch {
			w.scrEpoch[i] = 0
		}
		w.epoch = 1
	}
	mask := len(w.scrOff) - 1
	for i := range slots {
		off := slots[i].Off
		// Fibonacci multiplicative scramble: offsets are structured
		// (row-major cell indices), the table wants uniform slots.
		h := int((uint64(off)*0x9e3779b97f4a7c15)>>33) & mask
		for w.scrEpoch[h] == w.epoch {
			if w.scrOff[h] == off {
				return false
			}
			h = (h + 1) & mask
		}
		w.scrEpoch[h] = w.epoch
		w.scrOff[h] = off
	}
	return true
}

// WalkRowGroups drives one OfferRow row through an engine's wave
// pipeline: partners[lo:hi] chunks of ≤ g are expanded into pair keys
// rowBase+partner (one wrapping vector add into the Wave's row staging)
// and handed to group together with the matching x and ests windows.
// group is each engine's wave group body — the same body its OfferPairs
// path runs — so the resulting state is bit-identical to OfferPairs over
// the materialized keys, which is in turn pinned bit-identical to the
// scalar per-pair path. Shared by all four engines so the expansion
// cannot drift between them; g must be w.Group() (engines pass their
// WaveTune.Scratch results straight in).
func WalkRowGroups(w *Wave, g int, rowBase uint64, partners []uint64, x []float64, ests []float64,
	group func(keys []uint64, xs []float64, ests []float64)) {
	for lo := 0; lo < len(partners); lo += g {
		hi := lo + g
		if hi > len(partners) {
			hi = len(partners)
		}
		keys := w.rowKeys[:hi-lo]
		for i, p := range partners[lo:hi] {
			keys[i] = rowBase + p
		}
		var sub []float64
		if ests != nil {
			sub = ests[lo:hi]
		}
		group(keys, x[lo:hi], sub)
	}
}

// LocateBatch fills slots (length len(keys)·K, e.g. Wave.Slots) with
// the slot locations of every key — the group-hashing stage of the
// wave pipeline. It is bit-identical to per-key Locate calls while
// dispatching to the hash family once per group instead of once per
// key.
func (s *Sketch) LocateBatch(keys []uint64, slots []Slot) {
	s.h.FillSlotsBatch(keys, slots)
}

// TouchSlots reads every addressed cell once and returns the sum — the
// prefetch stage of the wave pipeline. The loads carry no dependencies
// between them, so the core's out-of-order window overlaps their cache
// misses (bounded by the outstanding-miss budget) instead of paying
// them serially inside the per-pair estimate/insert chain; by the time
// the gather and scatter stages re-read the cells they are
// cache-resident. Callers accumulate the result into Wave.Sink so the
// reads cannot be elided; the value itself is meaningless.
func (s *Sketch) TouchSlots(slots []Slot) float64 {
	sum := 0.0
	w := s.w
	for i := range slots {
		sum += w[slots[i].Off]
	}
	return sum
}

// EstimateSlotsBatch gathers the median-of-K estimates of a located
// group: for each group member i it fills raws[i] with the raw
// (pre-scale) median and ests[i] with the logical estimate
// raws[i]·DecayScale(). len(ests) ≤ w.Group() selects the group size;
// slots must hold len(ests)·K slots, and w must be scratch for this
// sketch's K. At K = 5 the signed cells go table-major into w's row
// scratch and median5Rows takes every median at once; other K sort
// each member's cells. Each member's estimate is bit-identical to
// EstimateSlotsWithRaw through its slots.
func (s *Sketch) EstimateSlotsBatch(w *Wave, slots []Slot, ests, raws []float64) {
	k := s.cfg.Tables
	cells := s.w
	if k == 5 {
		n := len(ests)
		rows := w.rows[:5*n]
		gatherRows5(cells, slots[:5*n], rows)
		raws = raws[:n]
		median5Rows(rows, raws)
		for i, raw := range raws {
			ests[i] = raw * s.scale
		}
		return
	}
	var buf [MaxTables]float64
	for i := range ests {
		base := i * k
		for e := 0; e < k; e++ {
			buf[e] = cells[slots[base+e].Off] * slots[base+e].Sign
		}
		raw := medianInPlace(buf[:k])
		raws[i] = raw
		ests[i] = raw * s.scale
	}
}

// EstimateKeys is the wave pipeline's read path: it fills out[i] with
// Estimate(keys[i]) for every key, running groups of g keys through
// the first three ingest stages (EstimateGroup) so a group's K·g cache
// misses overlap instead of each key paying its K in series. Every out[i] is bit-identical to
// Estimate(keys[i]): the same cells and signs reduced by the same
// median and multiplied by the same decay scale. g ≤ 1 selects the
// scalar per-key loop; otherwise w must be scratch for this sketch's K
// with w.Group() == g (engines pass their WaveTune.Scratch results
// straight in). The sketch is only read; w's scratch is overwritten.
func (s *Sketch) EstimateKeys(w *Wave, g int, keys []uint64, out []float64) {
	if g <= 1 {
		for i, key := range keys {
			out[i] = s.Estimate(key)
		}
		return
	}
	for lo := 0; lo < len(keys); lo += g {
		hi := min(lo+g, len(keys))
		s.EstimateGroup(w, keys[lo:hi], out[lo:hi])
	}
}

// EstimateGroup is one group of EstimateKeys: len(keys) ≤ w.Group().
// Engines that combine several sketches per key (Cold Filter's two
// layers) call it group by group. At K = 5 it runs no touch pass: the
// row gather's 5·n loads carry no dependencies between them, so they
// overlap their misses by themselves. Other K keep it: their
// per-member insertion sort branches on the cell values, and on a
// loaded table (R = 200 000 after 200 000 inserts) K = 3, 4 and 7 read
// 15–30% slower without the touch.
func (s *Sketch) EstimateGroup(w *Wave, keys []uint64, out []float64) {
	n := len(keys)
	slots := w.Slots(n)
	s.LocateBatch(keys, slots)
	if s.cfg.Tables != 5 {
		w.Sink += s.TouchSlots(slots)
	}
	s.EstimateSlotsBatch(w, slots, out, w.Raws(n))
}

// AddSlotsBatch is the gate/scatter stage of the wave pipeline: for
// every group member i with admit[i] true (admit nil admits all) it
// folds vs[i] into the member's cells, and — when ests is non-nil —
// overwrites ests[i] with the post-add estimate derived from the
// pre-add raw median raws[i] by the same odd-K median-shift identity
// as AddSlotsWithEstimateRaw (even K recomputes from the table).
// Rejected members' ests entries are left untouched (the caller seeds
// them with the pre-add estimates from the gather stage).
//
// The scatter is bit-identical to per-pair AddSlots /
// AddSlotsWithEstimateRaw calls in group order provided the group is
// Clean (no shared cells): disjoint writes commute exactly, and each
// member's post-add estimate reads only its own cells.
func (s *Sketch) AddSlotsBatch(slots []Slot, vs []float64, admit []bool, raws, ests []float64) {
	k := s.cfg.Tables
	for i := range vs {
		if admit != nil && !admit[i] {
			continue
		}
		v := vs[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("countsketch: non-finite update %v", v))
		}
		v *= s.invScale
		base := i * k
		for e := 0; e < k; e++ {
			s.w[slots[base+e].Off] += slots[base+e].Sign * v
		}
		if ests == nil {
			continue
		}
		if k%2 == 1 {
			// v is exactly vs[i]·invScale, the value the scalar path's
			// AddSlotsWithEstimateRaw shifts the raw median by.
			ests[i] = (raws[i] + v) * s.scale
		} else {
			var buf [MaxTables]float64
			for e := 0; e < k; e++ {
				buf[e] = s.w[slots[base+e].Off] * slots[base+e].Sign
			}
			ests[i] = medianInPlace(buf[:k]) * s.scale
		}
	}
}
