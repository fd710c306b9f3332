package stats

import "math"

// Welford accumulates count, mean and variance of a stream in a single
// numerically stable pass. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddWeighted folds x in count times in O(1), as a Chan merge of the
// zero-variance block {count, x, 0}; a count ≤ 0 is a no-op.
func (w *Welford) AddWeighted(x float64, count int64) {
	if count > 0 {
		w.Merge(Welford{n: count, mean: x})
	}
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean (NaN before any observation).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (NaN before two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance returns the population (n-denominator) variance.
func (w *Welford) PopVariance() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.m2 / float64(w.n)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Merge folds another accumulator into w (Chan et al. parallel variant),
// so that the result matches a single accumulator over both streams.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// CoMoment accumulates the co-moment of a paired stream (x, y) for
// streaming covariance, numerically stable. The zero value is ready.
type CoMoment struct {
	n     int64
	meanX float64
	meanY float64
	cm    float64
}

// Add folds the pair (x, y).
func (c *CoMoment) Add(x, y float64) {
	c.n++
	dx := x - c.meanX
	c.meanX += dx / float64(c.n)
	c.meanY += (y - c.meanY) / float64(c.n)
	c.cm += dx * (y - c.meanY)
}

// Count returns the number of pairs observed.
func (c *CoMoment) Count() int64 { return c.n }

// Covariance returns the unbiased sample covariance.
func (c *CoMoment) Covariance() float64 {
	if c.n < 2 {
		return math.NaN()
	}
	return c.cm / float64(c.n-1)
}

// PopCovariance returns the population (n-denominator) covariance.
func (c *CoMoment) PopCovariance() float64 {
	if c.n == 0 {
		return math.NaN()
	}
	return c.cm / float64(c.n)
}
