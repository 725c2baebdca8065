package stats

import "math"

// Welford tracks count, mean and variance of a value stream in one pass
// using Welford's numerically stable online algorithm. The zero value is
// ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	max  float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 || x > w.max {
		w.max = x
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 for an empty tracker).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance.
func (w *Welford) Var() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Max returns the largest sample seen (0 for an empty tracker).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another tracker into w using the parallel variance
// formula (Chan et al.). The maximum merges exactly.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]; larger alpha weighs recent observations more. The zero
// value is invalid — use NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor. It panics if
// alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Add incorporates x. The first observation seeds the average.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value, e.init = x, true
		return
	}
	e.value += e.alpha * (x - e.value)
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }
