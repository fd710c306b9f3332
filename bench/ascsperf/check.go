package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"

	"repro/internal/countsketch"
	"repro/internal/pairs"
	"repro/internal/server"
)

// refTolerance is the relative error allowed between a served estimate
// and the in-process reference: both sum the same increments into the
// same cells, possibly in another order.
const refTolerance = 1e-9

// referenceEstimates builds an in-process countsketch.MeanSketch like
// the daemon's single CS shard, feeds it the accepted samples, and
// returns its estimate of every pair of the dense stream. The sketch is
// linear, so each pair's increments are summed exactly first and
// offered once: the cells receive the same terms as the daemon's,
// grouped differently, which moves an estimate by rounding only.
// corrupt perturbs the reference, so a test can check that a wrong
// reference fails the run.
func referenceEstimates(ws *workStream, accepted []int, horizon int, corrupt bool) (map[uint64]float64, error) {
	ms, err := countsketch.NewMeanSketch(daemonSketch(), horizon)
	if err != nil {
		return nil, err
	}
	sums := make([]float64, pairs.Count(ws.dim))
	for _, i := range accepted {
		s := ws.samples[i]
		for a := 0; a+1 < len(s.Idx); a++ {
			base := pairs.RowBase(s.Idx[a], ws.dim)
			for b := a + 1; b < len(s.Idx); b++ {
				sums[base+int64(s.Idx[b])] += s.Val[a] * s.Val[b]
			}
		}
	}
	for key, sum := range sums {
		ms.Offer(uint64(key), sum)
	}
	out := make(map[uint64]float64, len(sums))
	for key := range sums {
		e := ms.Estimate(uint64(key))
		if corrupt {
			e *= 1 + 1e-6
		}
		out[uint64(key)] = e
	}
	return out, nil
}

// checkTopK verifies that served is the reference's top-k by magnitude
// with matching estimates. Pairs tied with the k-th magnitude (within
// the tolerance) may be served in either order.
func checkTopK(served []server.PairJSON, ref map[uint64]float64, k int) error {
	if len(served) != min(k, len(ref)) {
		return fmt.Errorf("served %d pairs, want %d", len(served), min(k, len(ref)))
	}
	mags := make([]float64, 0, len(ref))
	for _, e := range ref {
		mags = append(mags, math.Abs(e))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
	kth := mags[len(served)-1]
	got := map[uint64]bool{}
	for _, p := range served {
		want, ok := ref[p.Key]
		if !ok {
			return fmt.Errorf("served pair (%d,%d) key %d is not a pair of the stream", p.A, p.B, p.Key)
		}
		if math.Abs(p.Estimate-want) > refTolerance*math.Abs(want) {
			return fmt.Errorf("pair (%d,%d): served estimate %v, reference %v", p.A, p.B, p.Estimate, want)
		}
		if math.Abs(want) < kth*(1-refTolerance) {
			return fmt.Errorf("pair (%d,%d) with |estimate| %v is served but is not in the reference top %d (k-th %v)", p.A, p.B, math.Abs(want), len(served), kth)
		}
		got[p.Key] = true
	}
	for key, e := range ref {
		if math.Abs(e) > kth*(1+refTolerance) && !got[key] {
			a, b := pairs.Decode(int64(key), denseDim)
			return fmt.Errorf("reference top-%d pair (%d,%d) |estimate| %v was not served", len(served), a, b, math.Abs(e))
		}
	}
	return nil
}

// precision is the share of the served pairs that are planted signal
// pairs, out of the most the top-k could hold: min(k, |signal|).
func precision(served []server.PairJSON, signal map[uint64]bool) float64 {
	hits := 0
	for _, p := range served {
		if signal[p.Key] {
			hits++
		}
	}
	return float64(hits) / float64(min(topK, len(signal)))
}

// servedState is what durable-cs compares across a SIGKILL restart.
type servedState struct {
	step  int
	top   []server.PairJSON
	probe [][2]int
	ests  []float64
}

// capture reads the step, the top-k and the point estimates of probe.
func capture(c *http.Client, base string, probe [][2]int) (servedState, error) {
	st := servedState{probe: probe}
	s, code, err := getStats(c, base)
	if err != nil || code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d, %v", code, err)
	}
	st.step = s.Manager.Step
	var top server.TopKResponse
	if code, err := getJSON(c, base, topKPath, "", &top); err != nil || code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/topk: status %d, %v", code, err)
	}
	st.top = top.Pairs
	for _, p := range probe {
		var e server.EstimateResponse
		path := fmt.Sprintf("/v1/estimate?i=%d&j=%d", p[0], p[1])
		if code, err := getJSON(c, base, path, "", &e); err != nil || code != http.StatusOK {
			return st, fmt.Errorf("GET %s: status %d, %v", path, code, err)
		}
		st.ests = append(st.ests, e.Estimate)
	}
	return st, nil
}

// estimateProbe picks the pairs whose estimates durable-cs compares:
// the served top pairs first, then random pairs from seed.
func estimateProbe(top []server.PairJSON, dim int, seed int64) [][2]int {
	var out [][2]int
	for _, p := range top {
		if len(out) == estimateChecks/2 {
			break
		}
		out = append(out, [2]int{p.A, p.B})
	}
	rng := rand.New(rand.NewSource(seed))
	for len(out) < estimateChecks {
		a, b := rng.Intn(dim), rng.Intn(dim)
		if a != b {
			out = append(out, [2]int{min(a, b), max(a, b)})
		}
	}
	return out
}

// sameState requires two captures to be bit-identical.
func sameState(before, after servedState) error {
	if before.step != after.step {
		return fmt.Errorf("step %d after restart, %d before", after.step, before.step)
	}
	if len(before.top) != len(after.top) {
		return fmt.Errorf("top-k has %d pairs after restart, %d before", len(after.top), len(before.top))
	}
	for i := range before.top {
		b, a := before.top[i], after.top[i]
		if b.Key != a.Key || math.Float64bits(b.Estimate) != math.Float64bits(a.Estimate) {
			return fmt.Errorf("top-k rank %d: (%d,%d)=%v after restart, (%d,%d)=%v before", i, a.A, a.B, a.Estimate, b.A, b.B, b.Estimate)
		}
	}
	for i, p := range before.probe {
		if math.Float64bits(before.ests[i]) != math.Float64bits(after.ests[i]) {
			return fmt.Errorf("estimate (%d,%d): %v after restart, %v before", p[0], p[1], after.ests[i], before.ests[i])
		}
	}
	return nil
}
