package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-width bucket histogram over [lo, hi) with overflow
// and underflow buckets. It supports approximate quantiles by linear
// interpolation within a bucket, which is accurate enough for the
// lateness-distribution sketches used by the controller when the bucket
// width is small relative to the buffer granularity.
type Histogram struct {
	lo, hi  float64
	width   float64
	counts  []int64
	under   int64
	over    int64
	total   int64
	sum     float64
	maxSeen float64
}

// NewHistogram returns a histogram with n equal buckets covering [lo, hi).
// It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(n), counts: make([]int64, n)}
}

// Add incorporates x.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	if x > h.maxSeen {
		h.maxSeen = x
	}
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.counts) { // guard the hi boundary against fp rounding
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the exact maximum observation (0 if empty).
func (h *Histogram) Max() float64 { return h.maxSeen }

// Quantile returns an approximation of the q-quantile (q in [0, 1]) by
// walking buckets and interpolating. Underflow mass is attributed to lo and
// overflow mass to the maximum observed value.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.lo
	}
	if q >= 1 {
		return h.maxSeen
	}
	target := q * float64(h.total)
	cum := float64(h.under)
	if cum >= target {
		return h.lo
	}
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.maxSeen
}

// FracAbove returns the fraction of observations strictly greater than x,
// interpolating within the bucket containing x.
func (h *Histogram) FracAbove(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	if x < h.lo {
		return 1
	}
	if x >= h.hi {
		if x >= h.maxSeen {
			return 0
		}
		return float64(h.over) / float64(h.total)
	}
	i := int((x - h.lo) / h.width)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	above := h.over
	for j := i + 1; j < len(h.counts); j++ {
		above += h.counts[j]
	}
	// Interpolate the partial bucket.
	bucketLo := h.lo + float64(i)*h.width
	frac := 1 - (x-bucketLo)/h.width
	return (float64(above) + frac*float64(h.counts[i])) / float64(h.total)
}

// Reset clears all counts, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.under, h.over, h.total, h.sum, h.maxSeen = 0, 0, 0, 0, 0
}

// String renders a compact textual sketch, useful in experiment logs.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist[n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g]",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.maxSeen)
	return b.String()
}

// Percentile computes the exact p-quantile (p in [0,1]) of xs using linear
// interpolation between closest ranks. It sorts a copy; use it for offline
// analysis, not per-tuple paths.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// PercentileSorted computes the exact p-quantile of an already sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	i, frac := PercentileRank(len(s), p)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return Lerp(s[i], s[i+1], frac)
}

// PercentileRank says where the p-quantile (0 < p < 1) of n sorted values
// lies: frac of the way from the value at rank i to the one at rank i+1, or
// at the last value when i+1 == n. With Lerp it is the whole of
// PercentileSorted's arithmetic, for a caller that can produce the two
// values without holding the sorted slice (window's order-statistic
// selection) and must still answer to the bit what PercentileSorted would.
func PercentileRank(n int, p float64) (i int, frac float64) {
	pos := p * float64(n-1)
	i = int(pos)
	return i, pos - float64(i)
}

// Lerp returns the point frac of the way from a to b, as PercentileSorted
// rounds it.
func Lerp(a, b, frac float64) float64 { return a + frac*(b-a) }
