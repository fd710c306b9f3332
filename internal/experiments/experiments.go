// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6.2, §7.3, §8), each printing the same rows or
// series the paper reports and returning structured results for tests
// and benchmarks. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/dataset"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// Options sizes and seeds an experiment run.
type Options struct {
	// Scale sizes generated datasets.
	Scale dataset.Scale
	// Seed drives all randomness.
	Seed int64
	// Reps is the replicate count for the bootstrap experiments
	// (Figures 3-4, Table 1).
	Reps int
	// K is the number of hash tables (the paper uses 5 throughout §8).
	K int
	// RDivisor sets the sketch range as R = p/RDivisor (the paper's
	// "memory = 20% of unique entries" setting is RDivisor·K = 20·...;
	// §8.3 uses R = p/25 per table at K=5 — here R = p/RDivisor).
	RDivisor int
}

// DefaultOptions returns the small-scale configuration used by tests.
func DefaultOptions() Options {
	return Options{
		Scale:    dataset.SmallScale(),
		Seed:     42,
		Reps:     60,
		K:        5,
		RDivisor: 25,
	}
}

// Runner is the signature of every experiment driver.
type Runner func(Options, io.Writer) error

// Registry maps experiment ids (fig1..fig6, table1..table6) to drivers.
var Registry = map[string]Runner{
	"fig1":   func(o Options, w io.Writer) error { _, err := Fig1(o, w); return err },
	"fig2":   func(o Options, w io.Writer) error { _, err := Fig2(o, w); return err },
	"fig3":   func(o Options, w io.Writer) error { _, err := Fig3(o, w); return err },
	"fig4":   func(o Options, w io.Writer) error { _, err := Fig4(o, w); return err },
	"fig5":   func(o Options, w io.Writer) error { _, err := Fig5(o, w); return err },
	"fig6":   func(o Options, w io.Writer) error { _, err := Fig6(o, w); return err },
	"fig6f":  func(o Options, w io.Writer) error { _, err := Fig6Alpha(o, w); return err },
	"table1": func(o Options, w io.Writer) error { _, err := Table1(o, w); return err },
	"table2": func(o Options, w io.Writer) error { _, err := Table2(o, w); return err },
	"table3": func(o Options, w io.Writer) error { _, err := Table3(o, w); return err },
	"table4": func(o Options, w io.Writer) error { _, err := Table4(o, w); return err },
	"table5": func(o Options, w io.Writer) error { _, err := Table5(o, w); return err },
	"table6": func(o Options, w io.Writer) error { _, err := Table6(o, w); return err },

	// Ablation studies for the design choices DESIGN.md calls out.
	"ablation-schedule": func(o Options, w io.Writer) error { _, err := AblationSchedule(o, w); return err },
	"ablation-gate":     func(o Options, w io.Writer) error { _, err := AblationGate(o, w); return err },
	"ablation-hash":     func(o Options, w io.Writer) error { _, err := AblationHash(o, w); return err },
	"ablation-pagh":     func(o Options, w io.Writer) error { _, err := AblationPagh(o, w); return err },
}

// Names returns the registered experiment ids in stable order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run dispatches one experiment by id.
func Run(name string, opt Options, w io.Writer) error {
	r, ok := Registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(opt, w)
}

// standardized loads a dataset and returns its samples standardized to
// unit feature variance (scale-only, fitted on a 5% prefix as §8.3
// estimates μ̂ "using the first 5% of the data"), so the second-moment
// engine estimates correlations.
func standardized(ds *dataset.Dataset) ([]stream.Sample, error) {
	fitN := ds.Samples() / 20
	if fitN < 2 {
		fitN = 2
	}
	st, err := stream.NewStandardizer(ds.Source(), fitN, false)
	if err != nil {
		return nil, err
	}
	return stream.Drain(st), nil
}

// engineSetup derives the §8.1 hyper-parameters for a dataset stream and
// builds an ASCS engine plus its schedule. The warm-up CS runs on the
// first 5% of samples; u is the (1−α) percentile of its estimates, σ the
// RMS increment, τ(T0) = 1e-4 (correlation scale).
func engineSetup(samples []stream.Sample, d int, alpha float64, K, R int, seed uint64) (*core.Engine, core.Params, error) {
	T := len(samples)
	// §8.1 explores the first 5% of the stream; a floor keeps the pair
	// estimates meaningful for sparse data at reduced scale (a rare pair
	// must have a chance to co-occur more than once during warm-up, or
	// single-co-occurrence flukes dominate the top percentiles).
	warmN := T / 20
	if warmN < 400 {
		warmN = 400
	}
	if warmN > T/2 {
		warmN = T / 2
	}
	if warmN < 10 {
		warmN = 10
	}
	// The warm-up sketch is transient (discarded after exploration), so
	// it need not honor the run's memory budget: a too-tight R would
	// bury the μ̂ census in collision noise and corrupt u.
	rWarm := R
	if rWarm < 1<<16 {
		rWarm = 1 << 16
	}
	w, err := covstream.Warmup(stream.NewSliceSource(samples, d), warmN,
		countsketch.Config{Tables: K, Range: rWarm, Seed: seed ^ 0x77}, 2_000_000, int64(seed))
	if err != nil {
		return nil, core.Params{}, err
	}
	// §7.2 wants a lower bound on signal strength; shave the noisy
	// warm-up percentile (Figure 6 shows ASCS is robust to under-stating
	// u, while over-stating it can gate genuine signals out).
	u := 0.75 * w.SignalStrength(alpha)
	tau0 := 1e-4
	if u < 10*tau0 {
		// Degenerate warm-up (weak or noisy prefix): fall back to a small
		// but workable signal floor.
		u = 10 * tau0
	}
	params := core.Params{
		P: pairs.Count(d), T: T, K: K, R: R,
		U: u, Sigma: w.Sigma, Alpha: alpha,
		Tau0: tau0, Gamma: 30,
	}
	params = params.WithSuggestedDeltas()
	eng, _, err := core.NewAuto(params, seed, true)
	if err != nil {
		return nil, core.Params{}, err
	}
	return eng, params, nil
}

// runEngine replays samples through an engine via the covariance
// streamer and returns the wall-clock sketching time.
func runEngine(samples []stream.Sample, d int, eng sketchapi.Engine, track int) (*covstream.Estimator, time.Duration, error) {
	est, err := covstream.New(covstream.Config{
		Dim: d, T: len(samples), Engine: eng, TrackCandidates: track,
	})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := est.Run(stream.NewSliceSource(samples, d)); err != nil {
		return nil, 0, err
	}
	return est, time.Since(start), nil
}

// newCS builds the vanilla-CS engine.
func newCS(T, K, R int, seed uint64) (sketchapi.Engine, error) {
	return countsketch.NewMeanSketch(countsketch.Config{Tables: K, Range: R, Seed: seed}, T)
}

// newASketch builds the Augmented Sketch baseline with a filter sized at
// 1% of the sketch cells (memory parity is achieved by shrinking R).
func newASketch(T, K, R int, seed uint64) (sketchapi.Engine, error) {
	filterCap := K * R / 100
	if filterCap < 8 {
		filterCap = 8
	}
	// Two floats (key+value) per filter slot come out of the budget.
	rAdj := R - 2*filterCap/K
	if rAdj < 2 {
		rAdj = 2
	}
	return baselines.NewASketch(countsketch.Config{Tables: K, Range: rAdj, Seed: seed}, T, filterCap)
}

// trueCorrOf adapts a dataset's ground-truth correlation into a
// key-scored function.
func trueCorrOf(ds *dataset.Dataset) (func(uint64) float64, error) {
	corr, err := ds.Corr()
	if err != nil {
		return nil, err
	}
	d := ds.Dim
	return func(key uint64) float64 {
		a, b := pairs.Decode(int64(key), d)
		return corr.At(a, b)
	}, nil
}

// absCorrOf is trueCorrOf with absolute values (ranking magnitude).
func absCorrOf(ds *dataset.Dataset) (func(uint64) float64, error) {
	f, err := trueCorrOf(ds)
	if err != nil {
		return nil, err
	}
	return func(key uint64) float64 {
		v := f(key)
		if v < 0 {
			return -v
		}
		return v
	}, nil
}

// allKeys enumerates the p pair keys of a d-dimensional dataset.
func allKeys(d int) []uint64 {
	p := pairs.Count(d)
	out := make([]uint64, p)
	for i := int64(0); i < p; i++ {
		out[i] = uint64(i)
	}
	return out
}
