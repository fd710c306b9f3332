package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/pairs"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// Table4Cell is one (dataset, engine) column of Table 4: the mean true
// correlation of the top fraction·αp estimated pairs, for the six paper
// fractions.
type Table4Cell struct {
	Dataset string
	Engine  string
	// ByFraction aligns with eval.Fractions.
	ByFraction []float64
	// Seconds is the sketching wall-clock (feeds Table 6).
	Seconds float64
}

// Table4Result collects all cells.
type Table4Result struct {
	Cells []Table4Cell
}

// Cell returns the cell for (dataset, engine).
func (r Table4Result) Cell(ds, engine string) (Table4Cell, bool) {
	for _, c := range r.Cells {
		if c.Dataset == ds && c.Engine == engine {
			return c, true
		}
	}
	return Table4Cell{}, false
}

// table4Engines builds the three §8.3 contenders for a dataset stream.
func table4Engines(samples []stream.Sample, d int, alpha float64, K, R int, seed uint64) ([]sketchapi.Engine, error) {
	cs, err := newCS(len(samples), K, R, seed)
	if err != nil {
		return nil, err
	}
	ask, err := newASketch(len(samples), K, R, seed)
	if err != nil {
		return nil, err
	}
	ascs, _, err := engineSetup(samples, d, alpha, K, R, seed)
	if err != nil {
		return nil, err
	}
	return []sketchapi.Engine{cs, ask, ascs}, nil
}

// Table4 reproduces Table 4 (and collects the Table 6 timings): for the
// five small datasets, the mean true correlation of the top
// {0.01, 0.05, 0.1, 0.25, 0.5, 1}·αp pairs reported by CS, Augmented
// Sketch and ASCS at equal memory. The expected shape: ASCS highest (or
// tied) nearly everywhere, ASketch between ASCS and CS.
func Table4(opt Options, w io.Writer) (Table4Result, error) {
	var res Table4Result
	for _, name := range dataset.SmallNames() {
		ds, err := dataset.ByName(name, opt.Scale, opt.Seed)
		if err != nil {
			return res, err
		}
		cells, err := table4Dataset(ds, opt)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		res.Cells = append(res.Cells, cells...)
	}
	printTable4(w, res)
	return res, nil
}

// table4Dataset runs the three engines over one dataset.
func table4Dataset(ds *dataset.Dataset, opt Options) ([]Table4Cell, error) {
	samples, err := standardized(ds)
	if err != nil {
		return nil, err
	}
	d := ds.Dim
	p := pairs.Count(d)
	r := int(p) / opt.RDivisor
	if r < 16 {
		r = 16
	}
	engines, err := table4Engines(samples, d, ds.Alpha, opt.K, r, uint64(opt.Seed))
	if err != nil {
		return nil, err
	}
	truth, err := trueCorrOf(ds)
	if err != nil {
		return nil, err
	}
	sizes := eval.FractionSizes(p, ds.Alpha)
	var cells []Table4Cell
	for _, eng := range engines {
		est, dur, err := runEngine(samples, d, eng, 0)
		if err != nil {
			return nil, err
		}
		ranked, err := est.RankedKeys()
		if err != nil {
			return nil, err
		}
		cell := Table4Cell{Dataset: ds.Name, Engine: eng.Name(), Seconds: dur.Seconds()}
		for _, k := range sizes {
			cell.ByFraction = append(cell.ByFraction, eval.MeanTrueScore(ranked, k, truth))
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

func printTable4(w io.Writer, res Table4Result) {
	fmt.Fprintln(w, "Table 4: mean correlation of top fraction·αp pairs")
	datasets := []string{}
	seen := map[string]bool{}
	for _, c := range res.Cells {
		if !seen[c.Dataset] {
			seen[c.Dataset] = true
			datasets = append(datasets, c.Dataset)
		}
	}
	fmt.Fprintf(w, "%-10s %-9s", "fraction", "engine")
	for _, dsn := range datasets {
		fmt.Fprintf(w, " %9s", dsn)
	}
	fmt.Fprintln(w)
	for fi, f := range eval.Fractions {
		for _, engine := range []string{"CS", "ASketch", "ASCS"} {
			fmt.Fprintf(w, "%-10s %-9s", eval.FractionLabel(f), engine)
			for _, dsn := range datasets {
				if c, ok := res.Cell(dsn, engine); ok && fi < len(c.ByFraction) {
					fmt.Fprintf(w, " %9.3f", c.ByFraction[fi])
				} else {
					fmt.Fprintf(w, " %9s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// Table5Row is one (budget, K) cell: the mean correlation of the top
// 0.1·αp pairs found by ASCS on the gisette-like dataset.
type Table5Row struct {
	BudgetFloats int
	K            int
	R            int
	MeanTopCorr  float64
}

// Table5Result collects the grid.
type Table5Result struct {
	Rows []Table5Row
}

// At returns the cell for (budget, k).
func (r Table5Result) At(budget, k int) (Table5Row, bool) {
	for _, row := range r.Rows {
		if row.BudgetFloats == budget && row.K == k {
			return row, true
		}
	}
	return Table5Row{}, false
}

// Table5 reproduces Table 5: ASCS accuracy as the memory budget M and
// the table count K vary, on the gisette-like dataset. Expected shape:
// accuracy grows with M; for fixed M it is flat across K ∈ [4,10] and
// worse at K = 2.
func Table5(opt Options, w io.Writer) (Table5Result, error) {
	var res Table5Result
	ds := dataset.GisetteLike(opt.Scale, opt.Seed)
	samples, err := standardized(ds)
	if err != nil {
		return res, err
	}
	d := ds.Dim
	p := pairs.Count(d)
	truth, err := trueCorrOf(ds)
	if err != nil {
		return res, err
	}
	topK := int(0.1 * ds.Alpha * float64(p))
	if topK < 1 {
		topK = 1
	}
	// Budgets as fractions of p, echoing the paper's 10K..500K over
	// p ≈ 500K.
	budgets := []int{int(p) / 50, int(p) / 25, int(p) / 10, int(p) / 5, int(p)}
	ks := []int{2, 4, 6, 8, 10}
	for _, m := range budgets {
		for _, k := range ks {
			r := m / k
			if r < 4 {
				r = 4
			}
			eng, _, err := engineSetup(samples, d, ds.Alpha, k, r, uint64(opt.Seed))
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
			res.Rows = append(res.Rows, Table5Row{
				BudgetFloats: m, K: k, R: r,
				MeanTopCorr: eval.MeanTrueScore(ranked, topK, truth),
			})
		}
	}
	fmt.Fprintln(w, "Table 5: ASCS mean correlation of top 0.1·αp pairs (gisette-like)")
	fmt.Fprintf(w, "%-10s", "budget")
	for _, k := range ks {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("K=%d", k))
	}
	fmt.Fprintln(w)
	for _, m := range budgets {
		fmt.Fprintf(w, "%-10d", m)
		for _, k := range ks {
			row, _ := res.At(m, k)
			fmt.Fprintf(w, " %8.3f", row.MeanTopCorr)
		}
		fmt.Fprintln(w)
	}
	return res, nil
}

// Table6Row is one dataset's sketching wall-clock for CS and ASCS.
type Table6Row struct {
	Dataset string
	// Seconds maps engine name → sketching time.
	Seconds map[string]float64
}

// Table6Result collects the rows.
type Table6Result struct {
	Rows []Table6Row
}

// Table6 reproduces Table 6: CS and ASCS sketch the five datasets in
// comparable wall-clock time (the sampling gate adds only per-offer
// estimate lookups).
func Table6(opt Options, w io.Writer) (Table6Result, error) {
	var res Table6Result
	for _, name := range dataset.SmallNames() {
		ds, err := dataset.ByName(name, opt.Scale, opt.Seed)
		if err != nil {
			return res, err
		}
		samples, err := standardized(ds)
		if err != nil {
			return res, err
		}
		d := ds.Dim
		p := pairs.Count(d)
		r := int(p) / opt.RDivisor
		if r < 16 {
			r = 16
		}
		row := Table6Row{Dataset: name, Seconds: map[string]float64{}}
		cs, err := newCS(len(samples), opt.K, r, uint64(opt.Seed))
		if err != nil {
			return res, err
		}
		ascs, _, err := engineSetup(samples, d, ds.Alpha, opt.K, r, uint64(opt.Seed))
		if err != nil {
			return res, err
		}
		for _, eng := range []sketchapi.Engine{cs, ascs} {
			var total time.Duration
			_, dur, err := runEngine(samples, d, eng, 0)
			if err != nil {
				return res, err
			}
			total += dur
			row.Seconds[eng.Name()] = total.Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	fmt.Fprintln(w, "Table 6: sketching wall-clock (seconds)")
	fmt.Fprintf(w, "%-10s %-8s %-8s\n", "dataset", "CS", "ASCS")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %-8.3f %-8.3f\n", r.Dataset, r.Seconds["CS"], r.Seconds["ASCS"])
	}
	return res, nil
}
