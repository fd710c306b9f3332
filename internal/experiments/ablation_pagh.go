package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/outersketch"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/topk"
)

// AblationPagh compares the two ways of count-sketching a covariance
// stream that the paper's §2 discusses, at equal memory on the dense
// epsilon-like dataset:
//
//   - explicit pair enumeration (the paper's path, O(nz²) per sample),
//     which supports ASCS's per-pair gating; and
//   - Pagh's compressed outer product (O(nz + R log R) per sample via
//     FFT), which is much faster on dense data but must ingest
//     everything — no active sampling is possible.
//
// Expected shape: comparable accuracy for plain CS vs Pagh (both are
// count sketches of the same signal), a large insertion-speed win for
// Pagh on dense samples, and ASCS ahead of both on accuracy.
func AblationPagh(opt Options, w io.Writer) (AblationResult, error) {
	res := AblationResult{Study: "pair enumeration vs Pagh outer-product (epsilon-like, top 0.1·αp mean corr)"}
	ds := dataset.EpsilonLike(opt.Scale, opt.Seed)
	samples, err := standardized(ds)
	if err != nil {
		return res, err
	}
	d := ds.Dim
	p := pairs.Count(d)
	// Power-of-two range near p/RDivisor for a fair memory match.
	r := 2
	for r*2 <= int(p)/opt.RDivisor {
		r *= 2
	}
	truth, err := trueCorrOf(ds)
	if err != nil {
		return res, err
	}
	topK := int(0.1 * ds.Alpha * float64(p))
	if topK < 1 {
		topK = 1
	}

	// Pair-enumeration engines: CS and ASCS.
	for _, build := range []struct {
		name string
		mk   func() (sketchapi.Engine, error)
	}{
		{"CS-pairs", func() (sketchapi.Engine, error) { return newCS(len(samples), opt.K, r, uint64(opt.Seed)) }},
		{"ASCS-pairs", func() (sketchapi.Engine, error) {
			eng, _, err := engineSetup(samples, d, ds.Alpha, opt.K, r, uint64(opt.Seed))
			return eng, err
		}},
	} {
		eng, err := build.mk()
		if err != nil {
			return res, err
		}
		est, dur, err := runEngine(samples, d, eng, 0)
		if err != nil {
			return res, err
		}
		ranked, err := est.RankedKeys()
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:     build.name,
			MeanTopCorr: eval.MeanTrueScore(ranked, topK, truth),
			Note:        fmt.Sprintf("insert %.3fs, %s", dur.Seconds(), fmtBytes(eng.Bytes())),
		})
	}

	// Pagh outer-product sketch at the same K×R memory.
	outer, err := outersketch.New(outersketch.Config{Tables: opt.K, Range: r, Seed: uint64(opt.Seed)})
	if err != nil {
		return res, err
	}
	invT := 1 / float64(len(samples))
	start := time.Now()
	for _, s := range samples {
		if err := outer.AddOuter(s, invT); err != nil {
			return res, err
		}
	}
	outerDur := time.Since(start)
	h := topk.NewHeap(int(p))
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			h.Push(pairs.Key(a, b, d), outer.Estimate(a, b))
		}
	}
	items := h.SortedDesc()
	ranked := make([]uint64, len(items))
	for i, it := range items {
		ranked[i] = it.Key
	}
	res.Rows = append(res.Rows, AblationRow{
		Variant:     "Pagh-outer",
		MeanTopCorr: eval.MeanTrueScore(ranked, topK, truth),
		Note:        fmt.Sprintf("insert %.3fs, %s (no gating possible)", outerDur.Seconds(), fmtBytes(outer.Bytes())),
	})
	res.print(w)
	return res, nil
}
