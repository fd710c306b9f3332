package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// largeSpec is one Table 2 workload: a huge-dimension generator whose
// full correlation matrix can never be materialized, evaluated by exact
// second-pass correlation of the reported pairs only.
type largeSpec struct {
	name      string
	dim       int
	alpha     float64
	newSource func(n int) (stream.Source, error)
}

// table2Specs builds the URL-like and DNA-k-mer workloads at a size
// scaled from opt (the paper: d = 10^6 / 1.7·10^7, here laptop-sized by
// default and configurable upward in cmd/experiments).
func table2Specs(opt Options) []largeSpec {
	urlDim := opt.Scale.Dim * 10
	if urlDim < 600 {
		urlDim = 600
	}
	urlCfg := dataset.DefaultURLConfig(urlDim, opt.Seed)
	nURLSig := len(urlCfg.SignalPairs())
	pURL := float64(urlDim) * float64(urlDim-1) / 2

	dnaCfg := dataset.DNAConfig{
		K: 8, ReadLen: 100, Motifs: 40, MotifLen: 15, MotifProb: 0.5, Seed: 42,
	}
	nDNASig := len(dnaCfg.SignalPairs())
	pDNA := float64(dnaCfg.Dim()) * float64(dnaCfg.Dim()-1) / 2

	return []largeSpec{
		{
			name: "URL", dim: urlDim, alpha: float64(nURLSig) / pURL,
			newSource: func(n int) (stream.Source, error) { return urlCfg.NewSource(n) },
		},
		{
			name: "DNA", dim: dnaCfg.Dim(), alpha: float64(nDNASig) / pDNA,
			newSource: func(n int) (stream.Source, error) { return dnaCfg.NewSource(n) },
		},
	}
}

// Table2Row is one (dataset, memory) cell pair of Table 2.
type Table2Row struct {
	Dataset  string
	K, R     int
	MemBytes int
	// MeanTopCorr maps engine name → mean exact correlation of its top
	// reported pairs.
	MeanTopCorr map[string]float64
	TopK        int
}

// Table2Result collects the rows.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 reproduces Table 2: on trillion-scale-structured workloads
// (URL-like, DNA k-mer), ASCS finds top pairs with near-one mean
// correlation at a memory budget where vanilla CS degrades badly, and
// the two converge once memory is plentiful.
func Table2(opt Options, w io.Writer) (Table2Result, error) {
	var res Table2Result
	T := opt.Scale.Samples
	topK := 200
	for _, spec := range table2Specs(opt) {
		// Standardize once; reuse the identical sample stream for every
		// engine and memory setting.
		raw, err := spec.newSource(T)
		if err != nil {
			return res, err
		}
		st, err := stream.NewStandardizer(raw, maxInt(T/10, 50), false)
		if err != nil {
			return res, err
		}
		samples := stream.Drain(st)
		if len(samples) == 0 {
			return res, fmt.Errorf("experiments: %s produced no samples", spec.name)
		}

		// Memory sweep: ×1, ×8, ×64 of a deliberately tight base, echoing
		// the paper's R ∈ {10^7, 10^8, 10^9} progression for DNA.
		baseR := 1 << 10
		for _, mult := range []int{1, 8, 64} {
			r := baseR * mult
			row := Table2Row{
				Dataset: spec.name, K: opt.K, R: r,
				MemBytes:    opt.K * r * 8,
				MeanTopCorr: map[string]float64{},
				TopK:        topK,
			}
			for _, build := range []func() (sketchapi.Engine, error){
				func() (sketchapi.Engine, error) { return newCS(len(samples), opt.K, r, uint64(opt.Seed)) },
				func() (sketchapi.Engine, error) {
					eng, _, err := engineSetup(samples, spec.dim, spec.alpha, opt.K, r, uint64(opt.Seed))
					return eng, err
				},
			} {
				eng, err := build()
				if err != nil {
					return res, err
				}
				est, _, err := runEngine(samples, spec.dim, eng, 4*topK)
				if err != nil {
					return res, err
				}
				top, err := est.Top(topK)
				if err != nil {
					return res, err
				}
				var prs []dataset.PairRef
				for _, pe := range top {
					prs = append(prs, dataset.PairRef{A: pe.A, B: pe.B})
				}
				fresh, err := spec.newSource(T)
				if err != nil {
					return res, err
				}
				exact, err := eval.ExactPairCorr(fresh, prs)
				if err != nil {
					return res, err
				}
				mean := 0.0
				for _, pr := range prs {
					mean += exact[pr]
				}
				mean /= float64(len(prs))
				row.MeanTopCorr[eng.Name()] = mean
			}
			res.Rows = append(res.Rows, row)
		}
	}
	fmt.Fprintf(w, "Table 2: mean exact correlation of top %d reported pairs\n", topK)
	fmt.Fprintf(w, "%-6s %-3s %-8s %-10s %-8s %-8s\n", "data", "K", "R", "memory", "CS", "ASCS")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%-6s %-3d %-8d %-10s %-8.3f %-8.3f\n",
			row.Dataset, row.K, row.R, fmtBytes(row.MemBytes),
			row.MeanTopCorr["CS"], row.MeanTopCorr["ASCS"])
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
