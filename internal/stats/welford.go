package stats

import "math"

// Welford accumulates count, mean and variance of a stream of observations
// using Welford's numerically stable online algorithm. The zero value is an
// empty accumulator ready to use.
type Welford struct {
	N    int64   // number of observations
	Mean float64 // running mean
	M2   float64 // sum of squared deviations from the mean
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.N++
	delta := x - w.Mean
	w.Mean += delta / float64(w.N)
	w.M2 += delta * (x - w.Mean)
}

// addN incorporates the same observation n times (used when collapsing
// pre-aggregated samples).
func (w *Welford) addN(x float64, n int64) {
	if n <= 0 {
		return
	}
	other := Welford{N: n, Mean: x}
	w.Merge(other)
}

// Merge combines another accumulator into this one (Chan et al. parallel
// variance formula). Merging an empty accumulator is a no-op.
func (w *Welford) Merge(o Welford) {
	if o.N == 0 {
		return
	}
	if w.N == 0 {
		*w = o
		return
	}
	n := w.N + o.N
	delta := o.Mean - w.Mean
	w.Mean += delta * float64(o.N) / float64(n)
	w.M2 += o.M2 + delta*delta*float64(w.N)*float64(o.N)/float64(n)
	w.N = n
}

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SEM returns the standard error of the mean, or 0 with fewer than two
// observations.
func (w *Welford) SEM() float64 {
	if w.N < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.N))
}

// ci95 returns the lower and upper bounds of the 95% confidence interval on
// the mean: Mean ± 1.96·SEM. With fewer than two samples both bounds equal
// the mean; callers that need to treat sparse data conservatively should
// check N themselves.
func (w *Welford) ci95() (lower, upper float64) {
	sem := w.SEM()
	return w.Mean - 1.96*sem, w.Mean + 1.96*sem
}

// Pearson computes the Pearson correlation coefficient between two
// equal-length series. It returns 0 if either series has zero variance or
// the lengths differ or are < 2.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
