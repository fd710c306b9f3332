package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/pairs"
	"repro/internal/stream"
)

// Fig6Curve is one engine/parameterization curve: the max-F1 of signal
// recovery at each "number of top signal correlations" grid point.
type Fig6Curve struct {
	Label string
	// F1 aligns with Fig6Result.TopCounts.
	F1 []float64
}

// Fig6Result holds, per dataset, the CS curve and the ASCS curves for
// each signal-strength percentile choice.
type Fig6Result struct {
	TopCounts []int
	Curves    map[string][]Fig6Curve
}

// fig6UPercentiles are the signal-strength choices sweeping around the
// (1−α) percentile, demonstrating robustness to u (Figure 6a-e).
var fig6UPercentiles = []float64{90, 95, 97.5, 99}

// Fig6 reproduces Figure 6(a)-(e): the maximum F1 score of locating the
// top-m signal correlations, for vanilla CS and for ASCS under several
// choices of the signal strength u. Expected shape: every ASCS curve
// above CS across m, with only mild sensitivity to u.
func Fig6(opt Options, w io.Writer) (Fig6Result, error) {
	res := Fig6Result{Curves: map[string][]Fig6Curve{}}
	for _, name := range dataset.SmallNames() {
		ds, err := dataset.ByName(name, opt.Scale, opt.Seed)
		if err != nil {
			return res, err
		}
		counts, curves, err := fig6Dataset(ds, opt, nil)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		res.TopCounts = counts
		res.Curves[name] = curves
	}
	printFig6(w, "Figure 6(a)-(e): max F1 vs number of top signals", res)
	return res, nil
}

// Fig6Alpha reproduces Figure 6(f): robustness of ASCS to the choice of
// α on the gisette-like dataset.
func Fig6Alpha(opt Options, w io.Writer) (Fig6Result, error) {
	res := Fig6Result{Curves: map[string][]Fig6Curve{}}
	ds := dataset.GisetteLike(opt.Scale, opt.Seed)
	alphas := []float64{ds.Alpha / 2, ds.Alpha, 2 * ds.Alpha}
	counts, curves, err := fig6Dataset(ds, opt, alphas)
	if err != nil {
		return res, err
	}
	res.TopCounts = counts
	res.Curves["gisette"] = curves
	printFig6(w, "Figure 6(f): max F1 vs number of top signals, varying α (gisette-like)", res)
	return res, nil
}

// fig6Dataset runs CS plus the ASCS variants over one dataset. When
// alphas is nil the u-percentile sweep of Figure 6(a)-(e) is used;
// otherwise one ASCS run per α (Figure 6(f)).
func fig6Dataset(ds *dataset.Dataset, opt Options, alphas []float64) ([]int, []Fig6Curve, error) {
	samples, err := standardized(ds)
	if err != nil {
		return nil, nil, err
	}
	d := ds.Dim
	p := pairs.Count(d)
	r := int(p) / opt.RDivisor
	if r < 16 {
		r = 16
	}
	absTruth, err := absCorrOf(ds)
	if err != nil {
		return nil, nil, err
	}
	// Signal-count grid: up to αp, log-ish spacing.
	maxM := int(ds.Alpha * float64(p))
	counts := topCountGrid(maxM)

	universe := allKeys(d)
	var curves []Fig6Curve
	addCurve := func(label string, ranked []uint64) {
		c := Fig6Curve{Label: label}
		for _, m := range counts {
			truthSet := eval.TopTrueKeys(universe, m, absTruth)
			c.F1 = append(c.F1, eval.MaxF1(ranked, m, func(k uint64) bool { return truthSet[k] }))
		}
		curves = append(curves, c)
	}

	// Vanilla CS baseline.
	cs, err := newCS(len(samples), opt.K, r, uint64(opt.Seed))
	if err != nil {
		return nil, nil, err
	}
	est, _, err := runEngine(samples, d, cs, 0)
	if err != nil {
		return nil, nil, err
	}
	ranked, err := est.RankedKeys()
	if err != nil {
		return nil, nil, err
	}
	addCurve("CS", ranked)

	// Shared warm-up for the ASCS variants.
	warmN := len(samples) / 20
	if warmN < 10 {
		warmN = 10
	}
	warm, err := covstream.Warmup(stream.NewSliceSource(samples, d), warmN,
		countsketch.Config{Tables: opt.K, Range: r, Seed: uint64(opt.Seed) ^ 0x77},
		200_000, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	runASCS := func(label string, u, alpha float64) error {
		tau0 := 1e-4
		if u < 10*tau0 {
			u = 10 * tau0
		}
		params := core.Params{
			P: p, T: len(samples), K: opt.K, R: r,
			U: u, Sigma: warm.Sigma, Alpha: alpha,
			Tau0: tau0, Gamma: 30,
		}.WithSuggestedDeltas()
		eng, _, err := core.NewAuto(params, uint64(opt.Seed), true)
		if err != nil {
			return err
		}
		est, _, err := runEngine(samples, d, eng, 0)
		if err != nil {
			return err
		}
		ranked, err := est.RankedKeys()
		if err != nil {
			return err
		}
		addCurve(label, ranked)
		return nil
	}
	if alphas == nil {
		for _, pct := range fig6UPercentiles {
			u := warm.Percentile(pct)
			if err := runASCS(fmt.Sprintf("ASCS u=%g%%ile", pct), u, ds.Alpha); err != nil {
				return nil, nil, err
			}
		}
	} else {
		for _, a := range alphas {
			u := warm.SignalStrength(a)
			if err := runASCS(fmt.Sprintf("ASCS α=%.3g", a), u, a); err != nil {
				return nil, nil, err
			}
		}
	}
	return counts, curves, nil
}

// topCountGrid returns up to five signal-count grid points ≤ maxM.
func topCountGrid(maxM int) []int {
	if maxM < 1 {
		maxM = 1
	}
	raw := []int{maxM / 20, maxM / 8, maxM / 4, maxM / 2, maxM}
	var out []int
	for _, m := range raw {
		if m < 1 {
			m = 1
		}
		if len(out) == 0 || m > out[len(out)-1] {
			out = append(out, m)
		}
	}
	return out
}

func printFig6(w io.Writer, title string, res Fig6Result) {
	fmt.Fprintln(w, title)
	names := make([]string, 0, len(res.Curves))
	for n := range res.Curves {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "[%s] top-m grid: %v\n", name, res.TopCounts)
		for _, c := range res.Curves[name] {
			fmt.Fprintf(w, "  %-18s", c.Label)
			for _, f := range c.F1 {
				fmt.Fprintf(w, " %6.3f", f)
			}
			fmt.Fprintln(w)
		}
	}
}
