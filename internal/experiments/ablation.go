package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/hashing"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// AblationRow is one variant's score in an ablation study.
type AblationRow struct {
	Variant     string
	MeanTopCorr float64
	Note        string
}

// AblationResult collects the rows of one study.
type AblationResult struct {
	Study string
	Rows  []AblationRow
}

// Get returns the row for a variant.
func (r AblationResult) Get(variant string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Variant == variant {
			return row, true
		}
	}
	return AblationRow{}, false
}

func (r AblationResult) print(w io.Writer) {
	fmt.Fprintf(w, "Ablation: %s\n", r.Study)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-22s %8.3f  %s\n", row.Variant, row.MeanTopCorr, row.Note)
	}
}

// ablationBench prepares the shared gisette-like fixture: standardized
// samples, solved parameters, ground truth scorer and the evaluation
// size (top 0.1·αp as in Table 5). The sketch is sized at half the
// Table 4 budget: the design choices under study only bind when
// collisions actually hurt.
func ablationBench(opt Options) (samples []stream.Sample, d int, params core.Params, truth func(uint64) float64, topK int, err error) {
	ds := dataset.GisetteLike(opt.Scale, opt.Seed)
	raw, err := standardized(ds)
	if err != nil {
		return nil, 0, core.Params{}, nil, 0, err
	}
	d = ds.Dim
	p := pairs.Count(d)
	r := int(p) / (2 * opt.RDivisor)
	if r < 16 {
		r = 16
	}
	_, prm, err := engineSetup(raw, d, ds.Alpha, opt.K, r, uint64(opt.Seed))
	if err != nil {
		return nil, 0, core.Params{}, nil, 0, err
	}
	truth, err = trueCorrOf(ds)
	if err != nil {
		return nil, 0, core.Params{}, nil, 0, err
	}
	topK = int(0.1 * ds.Alpha * float64(p))
	if topK < 1 {
		topK = 1
	}
	return raw, d, prm, truth, topK, nil
}

// AblationSchedule compares threshold schedules at fixed memory on the
// gisette-like dataset: vanilla CS (no gate), a flat gate at τ(T0), the
// solved linear schedule (the paper's design), and an aggressive 2×
// slope. The paper argues (§6.5, law of the iterated logarithm) that the
// linear rise is close to optimal: flat admits too much noise, steeper
// slopes drop signals.
func AblationSchedule(opt Options, w io.Writer) (AblationResult, error) {
	res := AblationResult{Study: "threshold schedule (gisette-like, top 0.1·αp mean corr)"}
	samples, d, prm, truth, topK, err := ablationBench(opt)
	if err != nil {
		return res, err
	}
	hp, err := prm.Solve()
	if err != nil {
		return res, err
	}
	variants := []struct {
		name  string
		build func() (sketchapi.Engine, error)
		note  string
	}{
		{"CS", func() (sketchapi.Engine, error) {
			return newCS(len(samples), prm.K, prm.R, uint64(opt.Seed))
		}, "no gate"},
		{"ASCS-flat", func() (sketchapi.Engine, error) {
			flat := hp
			flat.Theta = 0
			return core.NewEngine(countsketch.Config{Tables: prm.K, Range: prm.R, Seed: uint64(opt.Seed)}, flat, true)
		}, "gate frozen at tau0"},
		{"ASCS-linear", func() (sketchapi.Engine, error) {
			return core.NewEngine(countsketch.Config{Tables: prm.K, Range: prm.R, Seed: uint64(opt.Seed)}, hp, true)
		}, fmt.Sprintf("solved theta=%.3f", hp.Theta)},
		{"ASCS-steep", func() (sketchapi.Engine, error) {
			steep := hp
			steep.Theta = 2 * hp.Theta
			return core.NewEngine(countsketch.Config{Tables: prm.K, Range: prm.R, Seed: uint64(opt.Seed)}, steep, true)
		}, "2x solved slope"},
	}
	for _, v := range variants {
		eng, err := v.build()
		if err != nil {
			return res, err
		}
		est, _, err := runEngine(samples, d, eng, 0)
		if err != nil {
			return res, err
		}
		ranked, err := est.RankedKeys()
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:     v.name,
			MeanTopCorr: eval.MeanTrueScore(ranked, topK, truth),
			Note:        v.note,
		})
	}
	res.print(w)
	return res, nil
}

// AblationGate compares the two-sided |μ̂| ≥ τ gate (Theorems 1–2) with
// the one-sided μ̂ ≥ τ gate (Algorithm 2 as printed) on data whose
// signals are positive correlations; the two-sided gate also protects
// negative signals and costs nothing here.
func AblationGate(opt Options, w io.Writer) (AblationResult, error) {
	res := AblationResult{Study: "gate sidedness (gisette-like, top 0.1·αp mean corr)"}
	samples, d, prm, truth, topK, err := ablationBench(opt)
	if err != nil {
		return res, err
	}
	hp, err := prm.Solve()
	if err != nil {
		return res, err
	}
	for _, v := range []struct {
		name     string
		absolute bool
	}{{"two-sided", true}, {"one-sided", false}} {
		eng, err := core.NewEngine(countsketch.Config{Tables: prm.K, Range: prm.R, Seed: uint64(opt.Seed)}, hp, v.absolute)
		if err != nil {
			return res, err
		}
		est, _, err := runEngine(samples, d, eng, 0)
		if err != nil {
			return res, err
		}
		ranked, err := est.RankedKeys()
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:     v.name,
			MeanTopCorr: eval.MeanTrueScore(ranked, topK, truth),
		})
	}
	res.print(w)
	return res, nil
}

// AblationHash compares hash families under vanilla CS at fixed memory:
// the mixing family (default), 2-wise and 4-wise independent polynomial
// hashing, and tabulation. The Count Sketch analysis only needs pairwise
// independence, so all families should score alike — this guards the
// default against a silent quality regression.
func AblationHash(opt Options, w io.Writer) (AblationResult, error) {
	res := AblationResult{Study: "hash family (gisette-like, CS, top 0.1·αp mean corr)"}
	samples, d, prm, truth, topK, err := ablationBench(opt)
	if err != nil {
		return res, err
	}
	for _, kind := range []hashing.Kind{hashing.KindMix, hashing.KindPoly, hashing.KindPoly4, hashing.KindTabulation} {
		ms, err := countsketch.NewMeanSketch(countsketch.Config{
			Tables: prm.K, Range: prm.R, Seed: uint64(opt.Seed), Hash: kind,
		}, len(samples))
		if err != nil {
			return res, err
		}
		est, _, err := runEngine(samples, d, ms, 0)
		if err != nil {
			return res, err
		}
		ranked, err := est.RankedKeys()
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:     kind.String(),
			MeanTopCorr: eval.MeanTrueScore(ranked, topK, truth),
		})
	}
	res.print(w)
	return res, nil
}
