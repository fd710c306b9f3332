package topk

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/hashing"
)

// mapTracker is the map-backed Tracker this package shipped before the
// flat entry layout, kept as the differential reference. Its prune
// iterates the map, so when equal scores straddle the cut Go's
// randomised iteration order picks the survivors; tiedCut records that
// this happened, because the comparison only binds on distinct scores.
//
// floored selects the admission rule: a floored reference arms a floor
// at each prune's lowest-ranked survivor and refuses untracked keys
// ranking below it, as Tracker does; a floor-free one is the tracker's
// behaviour before the floor, kept as the twin the divergence
// measurement compares against.
type mapTracker struct {
	cap     int
	scores  map[uint64]float64
	scale   float64
	inv     float64
	pruned  uint64
	refused uint64

	floored bool
	armed   bool
	floor   trackEntry // raw units, like the scores

	tiedCut bool
}

func newMapTracker(capacity int, floored bool) *mapTracker {
	if capacity < 1 {
		capacity = 1
	}
	return &mapTracker{cap: capacity, scores: make(map[uint64]float64, 2*capacity), scale: 1, inv: 1, floored: floored}
}

func (t *mapTracker) Offer(key uint64, score float64) {
	raw := score * t.inv
	if _, ok := t.scores[key]; !ok && t.armed && !ranksAbove(trackEntry{key, raw}, t.floor) {
		t.refused++
		t.pruned++
		return
	}
	t.scores[key] = raw
	if len(t.scores) > 2*t.cap {
		t.prune()
	}
}

func (t *mapTracker) Decay(f float64) {
	if f == 1 {
		return
	}
	t.scale *= f
	if t.scale < trackerRenormFloor {
		for k, v := range t.scores {
			t.scores[k] = v * t.scale
		}
		t.floor.score *= t.scale
		t.scale, t.inv = 1, 1
		return
	}
	t.inv = 1 / t.scale
}

func (t *mapTracker) Floor() (uint64, float64, bool) {
	return t.floor.key, t.floor.score * t.scale, t.armed
}

func (t *mapTracker) SetFloor(key uint64, score float64) {
	t.floor, t.armed = trackEntry{key, score * t.inv}, true
}

func (t *mapTracker) Len() int { return len(t.scores) }

func (t *mapTracker) Each(fn func(key uint64, score float64)) {
	for k, s := range t.scores {
		fn(k, s*t.scale)
	}
}

func (t *mapTracker) Top(k int, rescore func(uint64) float64) []Item {
	h := NewHeap(k)
	for key, sc := range t.scores {
		if rescore != nil {
			sc = rescore(key)
		} else {
			sc *= t.scale
		}
		h.Push(key, sc)
	}
	return h.SortedDesc()
}

func (t *mapTracker) prune() {
	h := NewHeap(t.cap)
	for key, sc := range t.scores {
		h.Push(key, sc)
	}
	kept := h.SortedDesc()
	keep := make(map[uint64]bool, len(kept))
	for _, it := range kept {
		keep[it.Key] = true
	}
	for key, sc := range t.scores {
		if !keep[key] && sc == kept[len(kept)-1].Score {
			t.tiedCut = true
		}
	}
	t.pruned += uint64(len(t.scores) - len(kept))
	t.scores = make(map[uint64]float64, 2*t.cap)
	for _, it := range kept {
		t.scores[it.Key] = it.Score
	}
	if t.floored {
		// SortedDesc breaks score ties by the smaller key, so its last
		// item is the lowest-ranked survivor under ranksAbove.
		last := kept[len(kept)-1]
		t.floor, t.armed = trackEntry{last.Key, last.Score}, true
	}
}

func (t *mapTracker) Pruned() uint64  { return t.pruned }
func (t *mapTracker) Refused() uint64 { return t.refused }

// trackerOp is one step of a differential stream: an Offer, a Decay
// tick, or a restore (rebuild from Each via Offer, then re-arm the
// floor, as a snapshot restore does).
type trackerOp struct {
	kind  byte // 'o', 'd' or 'r'
	key   uint64
	value float64
}

// trackerStream generates n ops for a tracker of the given capacity:
// fresh keys, re-offers of earlier keys (pruned ones included), decay
// ticks, one pair of deep ticks that drives the lazy scale below
// RenormFloor, and occasional restores. Scores are continuous random
// draws, so they are distinct with overwhelming probability.
func trackerStream(seed int64, capacity, n int) []trackerOp {
	capacity = max(capacity, 1) // NewTracker's clamp
	rng := rand.New(rand.NewSource(seed))
	var keys []uint64
	ops := make([]trackerOp, 0, n+2)
	deep := n / 2
	for i := 0; i < n; i++ {
		if i == deep {
			ops = append(ops, trackerOp{'d', 0, deepTick}, trackerOp{'d', 0, deepTick})
		}
		switch r := rng.Float64(); {
		case r < 0.05:
			f := 0.5 + 0.5*rng.Float64()
			if rng.Intn(4) == 0 {
				f = 1
			}
			ops = append(ops, trackerOp{'d', 0, f})
		case r < 0.06:
			ops = append(ops, trackerOp{'r', 0, 0})
		case r < 0.4 && len(keys) > 0:
			// Mostly recent keys (still tracked), sometimes old ones.
			j := len(keys) - 1 - rng.Intn(min(len(keys), 3*capacity))
			if rng.Intn(5) == 0 {
				j = rng.Intn(len(keys))
			}
			ops = append(ops, trackerOp{'o', keys[j], rng.ExpFloat64()})
		default:
			k := hashing.Mix64(uint64(seed)<<32 ^ uint64(len(keys)))
			keys = append(keys, k)
			ops = append(ops, trackerOp{'o', k, rng.ExpFloat64()})
		}
	}
	return ops
}

// deepTick is a decay factor whose square is below RenormFloor, so
// the second of two deep ticks renormalises.
const deepTick = 1e-70

// rescoreByKey is a deterministic, key-distinct rescore for Top.
func rescoreByKey(key uint64) float64 { return float64(hashing.Mix64(key) >> 11) }

// runTrackerDifferential drives a Tracker and the map reference through
// the same stream, comparing them at checkpoints. It reports false if
// the stream put equal scores at a prune cut or a Top boundary, where
// the reference's answer depends on map order and nothing is compared.
func runTrackerDifferential(t *testing.T, seed int64, capacity, n int) bool {
	t.Helper()
	got, ref := NewTracker(capacity), newMapTracker(capacity, true)
	for i, op := range trackerStream(seed, capacity, n) {
		switch op.kind {
		case 'o':
			got.Offer(op.key, op.value)
			ref.Offer(op.key, op.value)
		case 'd':
			got.Decay(op.value)
			ref.Decay(op.value)
		case 'r':
			ng, nr := NewTracker(capacity), newMapTracker(capacity, true)
			got.Each(ng.Offer)
			ref.Each(nr.Offer)
			if k, s, ok := got.Floor(); ok {
				ng.SetFloor(k, s)
			}
			if k, s, ok := ref.Floor(); ok {
				nr.SetFloor(k, s)
			}
			got, ref = ng, nr
		}
		if ref.tiedCut {
			return false
		}
		if i%97 == 0 || op.value == deepTick {
			if !compareTrackers(t, got, ref) {
				return false
			}
		}
	}
	return compareTrackers(t, got, ref)
}

// compareTrackers checks Len, Pruned, Refused, Floor, Each and Top
// between the two; it returns false (having checked nothing further)
// when a Top boundary falls inside a run of equal scores.
func compareTrackers(t *testing.T, got *Tracker, ref *mapTracker) bool {
	t.Helper()
	if got.Len() != ref.Len() || got.Pruned() != ref.Pruned() || got.Refused() != ref.Refused() {
		t.Fatalf("Len/Pruned/Refused = %d/%d/%d, reference %d/%d/%d",
			got.Len(), got.Pruned(), got.Refused(), ref.Len(), ref.Pruned(), ref.Refused())
	}
	gk, gs, gok := got.Floor()
	rk, rs, rok := ref.Floor()
	if gk != rk || math.Float64bits(gs) != math.Float64bits(rs) || gok != rok {
		t.Fatalf("Floor = (%d, %v, %v), reference (%d, %v, %v)", gk, gs, gok, rk, rs, rok)
	}
	g, r := eachSorted(got.Each), eachSorted(ref.Each)
	if !slices.Equal(g, r) {
		t.Fatalf("Each differs:\n got %v\n ref %v", g, r)
	}
	desc := make([]float64, len(r))
	for i, it := range r {
		desc[i] = it.Score
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	for _, k := range []int{1, 3, got.Capacity(), len(desc)} {
		if k < 1 {
			continue
		}
		if k < len(desc) && desc[k-1] == desc[k] {
			return false
		}
		if g, r := got.Top(k, nil), ref.Top(k, nil); !itemsEqual(g, r) {
			t.Fatalf("Top(%d, nil) differs:\n got %v\n ref %v", k, g, r)
		}
		if g, r := got.Top(k, rescoreByKey), ref.Top(k, rescoreByKey); !itemsEqual(g, r) {
			t.Fatalf("Top(%d, rescore) differs:\n got %v\n ref %v", k, g, r)
		}
	}
	return true
}

// eachSorted collects an Each walk into key order, scores bitwise.
func eachSorted(each func(func(uint64, float64))) []Item {
	var out []Item
	each(func(k uint64, s float64) { out = append(out, Item{k, s}) })
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func itemsEqual(a, b []Item) bool {
	return slices.EqualFunc(a, b, func(x, y Item) bool {
		return x.Key == y.Key && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// TestTrackerMatchesReference is the seeded differential grid: on
// distinct-score streams with decay, renormalisation and restores, the
// flat tracker must equal the map reference exactly.
func TestTrackerMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 37, 256} {
		for seed := int64(1); seed <= 40; seed++ {
			if !runTrackerDifferential(t, seed, capacity, 3000) {
				t.Fatalf("cap %d seed %d: the stream tied at a cut; the grid must stay distinct", capacity, seed)
			}
		}
	}
}

func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(2000))
	f.Add(int64(7), uint8(1), uint16(500))
	f.Add(int64(99), uint8(60), uint16(4000))
	f.Add(int64(7), uint8(0), uint16(560))
	f.Fuzz(func(t *testing.T, seed int64, capacity uint8, n uint16) {
		if !runTrackerDifferential(t, seed, int(capacity), int(n)) {
			t.Skip("equal scores at a cut: the reference is order-dependent there")
		}
	})
}

// floorDivergence counts, over one stream, how often the floored
// tracker's answers differ from the floor-free twin's.
type floorDivergence struct {
	prunes, setDiffs, topDiffs int // at the floor-free twin's prunes
	reads, readDiffs           int // at fixed read points between prunes
	refused, offered           uint64
}

// measureFloorDivergence drives a Tracker and a floor-free reference
// through one stream. At every prune of the floor-free twin it compares
// the twin's cap survivors with the floored tracker's cap best retained
// entries (the retained set) and Top(k, nil); every 97 ops it compares
// Top(k, nil) again, since a served read may land anywhere in the prune
// cycle. Restores rebuild both, each with its own floor state.
func measureFloorDivergence(seed int64, capacity, n, k int) floorDivergence {
	var d floorDivergence
	got, twin := NewTracker(capacity), newMapTracker(capacity, false)
	keySet := func(items []Item) map[uint64]bool {
		m := make(map[uint64]bool, len(items))
		for _, it := range items {
			m[it.Key] = true
		}
		return m
	}
	for i, op := range trackerStream(seed, capacity, n) {
		switch op.kind {
		case 'o':
			before := twin.Pruned()
			got.Offer(op.key, op.value)
			twin.Offer(op.key, op.value)
			d.offered++
			if twin.Pruned() != before {
				d.prunes++
				if !maps.Equal(keySet(got.Top(capacity, nil)), keySet(twin.Top(capacity, nil))) {
					d.setDiffs++
				}
				if !itemsEqual(got.Top(k, nil), twin.Top(k, nil)) {
					d.topDiffs++
				}
			}
		case 'd':
			got.Decay(op.value)
			twin.Decay(op.value)
		case 'r':
			ng, nt := NewTracker(capacity), newMapTracker(capacity, false)
			got.Each(ng.Offer)
			twin.Each(nt.Offer)
			if fk, fs, ok := got.Floor(); ok {
				ng.SetFloor(fk, fs)
			}
			d.refused += got.Refused()
			got, twin = ng, nt
		}
		if i%97 == 0 {
			d.reads++
			if !itemsEqual(got.Top(k, nil), twin.Top(k, nil)) {
				d.readDiffs++
			}
		}
	}
	d.refused += got.Refused()
	return d
}

// TestTrackerFloorDivergence measures what the admission floor changes.
// The floor is not exact: a key refused below it is one the floor-free
// tracker would usually evict at its next prune, but in-place re-offers
// can lower tracked entries beneath the refused score before that
// prune, the floored tracker prunes later (it appends fewer keys), and
// a read between prunes sees every entry the floor-free tracker still
// holds. So the rates are logged, not pinned; the test requires only
// that the grid exercised the floor.
func TestTrackerFloorDivergence(t *testing.T) {
	for _, capacity := range []int{8, 37, 256} {
		var sum floorDivergence
		k := max(1, capacity/8)
		for seed := int64(1); seed <= 40; seed++ {
			d := measureFloorDivergence(seed, capacity, 3000, k)
			sum.prunes += d.prunes
			sum.setDiffs += d.setDiffs
			sum.topDiffs += d.topDiffs
			sum.reads += d.reads
			sum.readDiffs += d.readDiffs
			sum.refused += d.refused
			sum.offered += d.offered
		}
		if sum.refused == 0 || sum.prunes == 0 {
			t.Fatalf("cap %d: %d refusals over %d prunes; the grid must exercise the floor", capacity, sum.refused, sum.prunes)
		}
		t.Logf("cap %d (Top k=%d): refused %.1f%% of %d offers; at %d floor-free prunes the retained set differs %.1f%%, Top(k) %.1f%%; at %d reads Top(k) differs %.1f%%",
			capacity, k, 100*float64(sum.refused)/float64(sum.offered), sum.offered,
			sum.prunes, 100*float64(sum.setDiffs)/float64(sum.prunes), 100*float64(sum.topDiffs)/float64(sum.prunes),
			sum.reads, 100*float64(sum.readDiffs)/float64(sum.reads))
	}
}

// TestTrackerFloor pins the admission floor: unarmed until the first
// prune, then the lowest-ranked survivor; untracked keys below it are
// refused (and counted in Pruned), tracked keys still update, and the
// floor follows the lazy scale in logical units.
func TestTrackerFloor(t *testing.T) {
	tr := NewTracker(4)
	for k := uint64(1); k <= 8; k++ {
		tr.Offer(k, float64(k))
	}
	if _, _, ok := tr.Floor(); ok {
		t.Fatal("floor armed before the first prune")
	}
	tr.Offer(9, 9) // prune: keeps 6..9
	if k, s, ok := tr.Floor(); !ok || k != 6 || s != 6 {
		t.Fatalf("Floor = (%d, %v, %v), want (6, 6, true)", k, s, ok)
	}
	tr.Offer(20, 5)          // below the floor: refused
	tr.Offer(21, math.NaN()) // NaN ranks below every number
	tr.Offer(5, 6)           // ties the floor score, smaller key: admitted
	tr.Offer(22, 6)          // ties it with a larger key: refused
	tr.Offer(6, 0.5)         // tracked: updated in place, below the floor
	if tr.Len() != 5 || tr.Refused() != 3 || tr.Pruned() != 5+3 {
		t.Fatalf("Len/Refused/Pruned = %d/%d/%d, want 5/3/8", tr.Len(), tr.Refused(), tr.Pruned())
	}
	got := map[uint64]float64{}
	tr.Each(func(k uint64, s float64) { got[k] = s })
	if got[6] != 0.5 || got[5] != 6 {
		t.Fatalf("entries %v, want key 6 at 0.5 and key 5 at 6", got)
	}

	// Lazy decay leaves the raw floor alone: in logical units it sinks
	// with the entries, so a fresh offer of 3 clears a floor of 6·0.25.
	tr.Decay(0.25)
	if _, s, _ := tr.Floor(); s != 1.5 {
		t.Fatalf("decayed floor %v, want 1.5", s)
	}
	tr.Offer(23, 3)
	if tr.Refused() != 3 {
		t.Fatal("an offer above the decayed floor was refused")
	}
	// Renormalisation folds the scale into the floor like the entries.
	for i := 0; i < 8; i++ {
		tr.Decay(1e-20)
	}
	if _, s, _ := tr.Floor(); math.Abs(s/1.5e-160-1) > 1e-12 {
		t.Fatalf("renormalised floor %v, want 1.5e-160", s)
	}

	// SetFloor re-arms a rebuilt tracker in logical units.
	re := NewTracker(4)
	re.Decay(0.5)
	re.SetFloor(7, 2)
	re.Offer(30, 1.9)
	re.Offer(31, 2.1)
	if k, s, ok := re.Floor(); k != 7 || s != 2 || !ok || re.Len() != 1 || re.Refused() != 1 {
		t.Fatalf("SetFloor: Floor (%d, %v, %v), Len %d, Refused %d; want (7, 2, true), 1, 1", k, s, ok, re.Len(), re.Refused())
	}
}

// TestTrackerTieCut pins the prune cut on tied scores: higher score
// first, then the smaller key, and the same stream always yields the
// same survivors in the same order.
func TestTrackerTieCut(t *testing.T) {
	// One prune: 9 entries at capacity 4, all tied but key 17.
	tr := NewTracker(4)
	for _, k := range []uint64{15, 11, 18, 10, 17, 13, 16, 12, 14} {
		s := 1.0
		if k == 17 {
			s = 2
		}
		tr.Offer(k, s)
	}
	if got := eachSorted(tr.Each); !slices.Equal(got, []Item{{10, 1}, {11, 1}, {12, 1}, {17, 2}}) {
		t.Fatalf("survivors %v, want 17 then the three smallest tied keys", got)
	}

	// Many prunes over descending keys at one score: each cut keeps
	// the smallest keys, so the last prune (at key 2) keeps 2..5 and
	// key 1 joins after it.
	tr = NewTracker(4)
	for k := uint64(100); k >= 1; k-- {
		tr.Offer(k, 0.5)
	}
	if got := eachSorted(tr.Each); !slices.Equal(got, []Item{{1, .5}, {2, .5}, {3, .5}, {4, .5}, {5, .5}}) {
		t.Fatalf("survivors %v, want keys 1..5", got)
	}

	// Two runs of a heavily tied stream agree entry for entry, in order.
	run := func() []Item {
		tr := NewTracker(16)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 5000; i++ {
			tr.Offer(uint64(rng.Intn(400)), float64(rng.Intn(3)))
		}
		var out []Item
		tr.Each(func(k uint64, s float64) { out = append(out, Item{k, s}) })
		return out
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("two runs of one stream differ:\n%v\n%v", a, b)
	}
}

// scorePatterns returns score sequences that stress a quickselect:
// sorted both ways, organ-pipe, sawtooth, constant and random, with
// NaN and ±Inf mixed in at fixed strides.
func scorePatterns(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	base := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
		"sawtooth":   func(i int) float64 { return float64(i % 7) },
		"constant":   func(int) float64 { return 3 },
		"random":     func(int) float64 { return rng.NormFloat64() },
	}
	out := make(map[string][]float64, len(base))
	for name, f := range base {
		s := make([]float64, n)
		for i := range s {
			switch {
			case i%7 == 3:
				s[i] = math.NaN()
			case i%11 == 5:
				s[i] = math.Inf(1)
			case i%13 == 6:
				s[i] = math.Inf(-1)
			default:
				s[i] = f(i)
			}
		}
		out[name] = s
	}
	return out
}

// TestTrackerPruneNaNInf offers NaN and ±Inf among adversarially
// ordered scores. Prune must terminate, keep exactly the capacity
// best under the NaN-lowest order, and evict every NaN while enough
// numbers remain.
func TestTrackerPruneNaNInf(t *testing.T) {
	for _, capacity := range []int{1, 5, 64, 1000} {
		n := 2*capacity + 1 // exactly one prune
		for name, scores := range scorePatterns(n) {
			tr := NewTracker(capacity)
			want := make([]trackEntry, n)
			for i, s := range scores {
				tr.Offer(uint64(i), s)
				want[i] = trackEntry{uint64(i), s}
			}
			slices.SortFunc(want, rankOrder)
			want = want[:capacity]
			got := make([]trackEntry, 0, capacity)
			tr.Each(func(k uint64, s float64) { got = append(got, trackEntry{k, s}) })
			slices.SortFunc(got, rankOrder)
			if !slices.EqualFunc(got, want, func(a, b trackEntry) bool {
				return a.key == b.key && math.Float64bits(a.score) == math.Float64bits(b.score)
			}) {
				t.Fatalf("cap %d %s: survivors %v, want %v", capacity, name, got, want)
			}
			numbers := 0
			for _, s := range scores {
				if !math.IsNaN(s) {
					numbers++
				}
			}
			if numbers >= capacity {
				for _, e := range got {
					if math.IsNaN(e.score) {
						t.Fatalf("cap %d %s: NaN key %d survived a prune with %d numbers", capacity, name, e.key, numbers)
					}
				}
			}
		}
	}
}

// TestSelectTop checks the selection boundary on every pattern, for
// work budgets from "sort at once" to the one prune uses.
func TestSelectTop(t *testing.T) {
	for _, n := range []int{1, 2, 13, 14, 100, 777} {
		for name, scores := range scorePatterns(n) {
			for _, budget := range []int{0, n, 3 * n, 8 * n} {
				for _, k := range []int{0, 1, n / 3, n / 2, n - 1, n} {
					es := make([]trackEntry, n)
					for i, s := range scores {
						es[i] = trackEntry{hashing.Mix64(uint64(i)), s}
					}
					selectTop(es, k, budget)
					if k == 0 || k >= n {
						continue
					}
					worstHead, bestTail := es[0], es[k]
					for _, e := range es[1:k] {
						if ranksAbove(worstHead, e) {
							worstHead = e
						}
					}
					for _, e := range es[k+1:] {
						if ranksAbove(e, bestTail) {
							bestTail = e
						}
					}
					if !ranksAbove(worstHead, bestTail) {
						t.Fatalf("n %d %s budget %d k %d: head entry %v does not rank above tail entry %v",
							n, name, budget, k, worstHead, bestTail)
					}
				}
			}
		}
	}
}

// TestRanksAbove pins the order's edge cases.
func TestRanksAbove(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		a, b trackEntry
		want bool
	}{
		{trackEntry{1, 2}, trackEntry{0, 1}, true},
		{trackEntry{0, 1}, trackEntry{1, 1}, true},
		{trackEntry{1, 1}, trackEntry{0, 1}, false},
		{trackEntry{1, math.Copysign(0, -1)}, trackEntry{0, 0}, false},
		{trackEntry{0, -inf}, trackEntry{1, nan}, true},
		{trackEntry{1, nan}, trackEntry{0, -inf}, false},
		{trackEntry{0, nan}, trackEntry{1, nan}, true},
		{trackEntry{0, inf}, trackEntry{1, math.MaxFloat64}, true},
	}
	for _, c := range cases {
		if got := ranksAbove(c.a, c.b); got != c.want {
			t.Errorf("ranksAbove(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestTrackerOfferAllocs requires Offer, prunes included, to allocate
// nothing.
func TestTrackerOfferAllocs(t *testing.T) {
	tr := NewTracker(64)
	i := uint64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		tr.Offer(hashing.Mix64(i), float64(i%97))
	})
	if allocs != 0 {
		t.Fatalf("Offer allocates %v per call", allocs)
	}
	if tr.Pruned() == 0 {
		t.Fatal("the run never pruned")
	}
}

// BenchmarkTrackerOffer times Offer at the daemon's default per-shard
// capacity: fresh keys (every offer inserts; prune runs every 2^14
// offers) and hot keys (every offer updates a tracked entry).
func BenchmarkTrackerOffer(b *testing.B) {
	const capacity = 1 << 14
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 1<<16)
	for i := range scores {
		scores[i] = rng.ExpFloat64()
	}
	b.Run("fresh", func(b *testing.B) {
		tr := NewTracker(capacity)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Offer(hashing.Mix64(uint64(i)), scores[i&(len(scores)-1)])
		}
	})
	b.Run("hot", func(b *testing.B) {
		tr := NewTracker(capacity)
		for i := 0; i < capacity; i++ {
			tr.Offer(hashing.Mix64(uint64(i)), scores[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Offer(hashing.Mix64(uint64(i&(capacity-1))), scores[i&(len(scores)-1)])
		}
	})
}
