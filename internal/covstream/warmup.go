package covstream

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/pairs"
	"repro/internal/stream"
	"repro/internal/topk"
)

// WarmupResult carries the data-driven hyper-parameter inputs of §8.1: a
// vanilla count sketch is run over a prefix of the stream to obtain an
// approximate pair-mean vector μ̂, whose percentiles give the signal
// strength u (the (1−α) percentile) and the initial threshold τ(T0) (a
// low percentile for covariance mode), plus σ estimated as the root mean
// square of the increments (§7.2 relaxation 2).
//
// Percentiles are taken over the full p-dimensional μ̂ vector: pairs that
// never co-occurred in the warm-up have estimate zero (up to collision
// noise), so it suffices to census the estimates of the pairs actually
// offered and rank them against p — that is what makes the recipe work
// at Table 2 scale, where p is in the billions and signals occupy a
// ~1e-6 fraction. When even the distinct offered pairs exceed the census
// budget, a bottom-k (KMV) sampler keeps a *uniform* subsample of them
// and ranks are rescaled by the estimated distinct count, so the
// percentiles remain unbiased instead of silently dropping late keys.
type WarmupResult struct {
	// Seen holds the estimates of the censused distinct pairs, sorted
	// descending. It is the full seen set below the census cap, and a
	// uniform sample of it above.
	Seen []float64
	// P is the total number of pairs p = d(d−1)/2.
	P int64
	// DistinctSeen estimates how many distinct pairs were offered during
	// warm-up (exact below the census cap).
	DistinctSeen float64
	// Sigma is the estimated common standard deviation of the pair
	// variables X_i, including their implicit zeros.
	Sigma float64
	// SamplesUsed is the number of warm-up samples consumed.
	SamplesUsed int
}

// Percentile returns the q-percentile (q in [0,100]) of the full μ̂
// vector: ranks inside the (possibly sampled) seen census return its
// values, rescaled by the sampling fraction; the vast middle of
// never-offered pairs returns zero.
func (w WarmupResult) Percentile(q float64) float64 {
	if w.P <= 0 {
		return math.NaN()
	}
	rank := (1 - q/100) * float64(w.P-1) // 0 = largest of all p values
	if rank < 0 {
		rank = 0
	}
	nSample := len(w.Seen)
	if nSample == 0 {
		return 0
	}
	scale := 1.0
	if w.DistinctSeen > float64(nSample) {
		scale = w.DistinctSeen / float64(nSample)
	}
	nPosSample := sort.Search(nSample, func(i int) bool { return w.Seen[i] <= 0 })
	nPosAll := float64(nPosSample) * scale
	unseen := float64(w.P) - w.DistinctSeen
	if unseen < 0 {
		unseen = 0
	}
	switch {
	case rank < nPosAll:
		idx := int(rank / scale)
		if idx >= nPosSample {
			idx = nPosSample - 1
		}
		return w.Seen[idx]
	case rank < nPosAll+unseen:
		return 0 // the unseen mass sits between the positive and negative tails
	default:
		idx := nPosSample + int((rank-nPosAll-unseen)/scale)
		if idx >= nSample {
			idx = nSample - 1
		}
		return w.Seen[idx]
	}
}

// SignalStrength returns u = the (1−alpha) percentile of μ̂ (§8.1),
// i.e. approximately the ⌈α·p⌉-th largest warm-up estimate.
func (w WarmupResult) SignalStrength(alpha float64) float64 {
	return w.Percentile(100 * (1 - alpha))
}

// WarmupSize is the shared warm-up sizing rule (§8.1): a fraction of
// the stream with a floor of 4 samples, raised to 200 on long streams
// so sparse pairs can recur during the prefix. The batch Estimator,
// the sharded serving constructor, and the daemons all size their
// warm-up prefixes through this one rule.
func WarmupSize(fraction float64, samples int) int {
	n := int(fraction * float64(samples))
	if n < 4 {
		n = 4
	}
	if sparseFloor := 200; n < sparseFloor && samples/2 >= sparseFloor {
		n = sparseFloor
	}
	return n
}

// ASCSParams assembles the §8.1 data-driven solver inputs for an ASCS
// schedule over a stream of T samples sketched with K tables × R
// buckets: u is the (1−alpha) percentile of the warm-up census with a
// 0.75 safety margin (§7.2 wants a *lower bound* on the signal
// strength; the warm-up percentile is a noisy point estimate whose
// rank statistics skew high on sparse streams, and Figure 6 shows ASCS
// is robust to under-stating u — smaller u just means longer
// exploration and a gentler threshold), floored at 10·τ₀; σ comes from
// the census; the miss-probability budgets are the suggested defaults.
// Both the end-to-end Estimator and the sharded serving layer derive
// their schedules through this one recipe.
func (w WarmupResult) ASCSParams(alpha float64, T, K, R int) core.Params {
	const tau0 = 1e-4
	u := 0.75 * w.SignalStrength(alpha)
	if u < 10*tau0 {
		u = 10 * tau0
	}
	return core.Params{
		P: w.P, T: T, K: K, R: R,
		U: u, Sigma: w.Sigma, Alpha: alpha, Tau0: tau0, Gamma: 30,
	}.WithSuggestedDeltas()
}

// Warmup runs a vanilla CS over the first warmupN samples of src (§8.1:
// "we can spend some samples to explore the distribution of μ").
// maxSeen bounds the census (default 5M keys) but is not allocated up
// front; beyond it the census degrades gracefully to a uniform subsample.
func Warmup(src stream.Source, warmupN int, cfg countsketch.Config, maxSeen int, seed int64) (WarmupResult, error) {
	if warmupN < 1 {
		return WarmupResult{}, fmt.Errorf("covstream: warmupN must be ≥ 1")
	}
	if maxSeen < 1 {
		maxSeen = 5_000_000
	}
	dim := src.Dim()
	ms, err := countsketch.NewMeanSketch(cfg, warmupN)
	if err != nil {
		return WarmupResult{}, err
	}
	est, err := New(Config{Dim: dim, T: warmupN, Engine: ms})
	if err != nil {
		return WarmupResult{}, err
	}
	// Σx² (for σ) and the distinct-key census (for the percentiles)
	// accumulate over the very pairs each flush hands to OfferPairs.
	sampler := topk.NewBottomK(maxSeen, uint64(seed)^0xB077)
	var sumX2 float64
	est.tap = func(keys []uint64, xs []float64) {
		for i, key := range keys {
			sumX2 += xs[i] * xs[i]
			sampler.Offer(key)
		}
	}
	n, err := est.Run(stream.NewLimit(src, warmupN))
	if err != nil {
		return WarmupResult{}, err
	}
	if n == 0 {
		return WarmupResult{}, fmt.Errorf("covstream: warm-up stream was empty")
	}

	keys := sampler.Keys()
	seen := make([]float64, len(keys))
	ms.EstimateKeys(keys, seen)
	sort.Sort(sort.Reverse(sort.Float64Slice(seen)))

	p := pairs.Count(dim)
	distinct := sampler.DistinctEstimate()
	if distinct > float64(p) {
		distinct = float64(p)
	}
	// σ² ≈ mean of X² over all p·n pair-observations; offers cover only
	// the non-zero increments, the remainder contribute zeros.
	sigma := math.Sqrt(sumX2 / (float64(p) * float64(n)))
	if sigma == 0 {
		sigma = 1e-12 // degenerate all-zero prefix; keep downstream finite
	}
	return WarmupResult{Seen: seen, P: p, DistinctSeen: distinct, Sigma: sigma, SamplesUsed: n}, nil
}
