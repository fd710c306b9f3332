package stream

import (
	"fmt"

	"repro/internal/stats"
)

// Standardizer rescales features to unit standard deviation (and
// optionally zero mean) using statistics fitted on a prefix of the
// stream, as the paper does when estimating correlation rather than
// covariance matrices. Scale-only mode preserves sparsity (zeros stay
// zero), matching the paper's E[YaYb] approximation for features whose
// mean/std is negligible (§5, Figure 2); centering is available for
// dense workloads.
type Standardizer struct {
	src      Source
	center   bool
	fitN     int
	buffered []Sample
	mean     []float64
	invStd   []float64
	fitted   bool
	pos      int
}

// NewStandardizer wraps src, fitting per-feature mean/std on the first
// fitN samples (which are then replayed, standardized, before the rest
// of the stream). center selects mean subtraction in addition to
// unit-variance scaling; note centering densifies sparse samples and is
// applied only to stored coordinates (use dense sources for exact
// centering).
func NewStandardizer(src Source, fitN int, center bool) (*Standardizer, error) {
	if fitN < 2 {
		return nil, fmt.Errorf("stream: standardizer needs fitN ≥ 2, got %d", fitN)
	}
	return &Standardizer{src: src, fitN: fitN, center: center}, nil
}

func (st *Standardizer) fit() {
	d := st.src.Dim()
	accs := make([]stats.Welford, d)
	for len(st.buffered) < st.fitN {
		s, ok := st.src.Next()
		if !ok {
			break
		}
		st.buffered = append(st.buffered, s)
		// Sparse-aware accumulation: zeros are implicit.
		for i, ix := range s.Idx {
			accs[ix].Add(s.Val[i])
		}
	}
	n := int64(len(st.buffered))
	st.mean = make([]float64, d)
	st.invStd = make([]float64, d)
	for j := 0; j < d; j++ {
		// Fold the implicit zeros in closed form: O(nnz + d), not O(d × fitN).
		w := accs[j]
		w.AddWeighted(0, n-w.Count())
		st.mean[j] = 0
		if w.Count() > 0 {
			st.mean[j] = w.Mean()
		}
		sd := w.Std()
		if sd > 0 {
			st.invStd[j] = 1 / sd
		} // zero-variance features are zeroed out (uninformative)
	}
	st.fitted = true
}

// Next implements Source.
func (st *Standardizer) Next() (Sample, bool) {
	if !st.fitted {
		st.fit()
	}
	var s Sample
	if st.pos < len(st.buffered) {
		s = st.buffered[st.pos]
		st.pos++
	} else {
		var ok bool
		s, ok = st.src.Next()
		if !ok {
			return Sample{}, false
		}
	}
	return st.apply(s), true
}

func (st *Standardizer) apply(s Sample) Sample {
	out := Sample{Idx: append([]int(nil), s.Idx...), Val: make([]float64, len(s.Val))}
	for i, ix := range s.Idx {
		v := s.Val[i]
		if st.center {
			v -= st.mean[ix]
		}
		out.Val[i] = v * st.invStd[ix]
	}
	return out
}

// Dim implements Source.
func (st *Standardizer) Dim() int { return st.src.Dim() }

// Means returns the fitted feature means (fitting on demand).
func (st *Standardizer) Means() []float64 {
	if !st.fitted {
		st.fit()
	}
	return st.mean
}

// InvStds returns the fitted reciprocal standard deviations (zero for
// zero-variance features).
func (st *Standardizer) InvStds() []float64 {
	if !st.fitted {
		st.fit()
	}
	return st.invStd
}
